"""Acyclic orientations with the root as unique source.

An orientation assigns a head to every edge. The set A(G) collects the
acyclic ones whose only source is the root; they are in bijection with the
maximal parking functions of the graph, a vertex receiving its weighted
indegree minus one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    InconsistentIndegrees,
    LengthMismatch,
    NotInA,
    NotMaximal,
    TooLarge,
)
from .graph import ROOT, RootedWeightedGraph


@dataclass(frozen=True)
class Orientation:
    """heads[k] is the head of graph.edges[k]."""

    graph: RootedWeightedGraph
    heads: tuple[int, ...]

    def __post_init__(self):
        if len(self.heads) != len(self.graph.edges):
            raise LengthMismatch("one head per edge required")
        for (i, j, _), h in zip(self.graph.edges, self.heads):
            if h not in (i, j):
                raise LengthMismatch(f"head {h} not an endpoint of ({i}, {j})")

    def directed_edges(self):
        """Yield (tail, head, weight) triples."""
        for (i, j, w), h in zip(self.graph.edges, self.heads):
            yield (i if h == j else j), h, w

    def tokens(self) -> tuple[str, ...]:
        """Serialization: one "tail->head" token per edge, in edge order."""
        return tuple(f"{t}->{h}" for t, h, _ in self.directed_edges())


def indegree(o: Orientation, v: int) -> int:
    return sum(w for _, h, w in o.directed_edges() if h == v)


def indegree_vector(o: Orientation) -> tuple[int, ...]:
    """Weighted indegree of every vertex, root included at index 0."""
    acc = [0] * (o.graph.n + 1)
    for _, h, w in o.directed_edges():
        acc[h] += w
    return tuple(acc)


def is_acyclic(o: Orientation) -> bool:
    order = _topological_order(o)
    return order is not None


def _topological_order(o: Orientation) -> list[int] | None:
    n = o.graph.n
    out: dict[int, list[int]] = {v: [] for v in range(n + 1)}
    indeg = [0] * (n + 1)
    for t, h, _ in o.directed_edges():
        out[t].append(h)
        indeg[h] += 1
    ready = [v for v in range(n + 1) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for u in out[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    return order if len(order) == n + 1 else None


def has_unique_source(o: Orientation) -> bool:
    counts = indegree_vector(o)
    return counts[ROOT] == 0 and all(c > 0 for c in counts[1:])


def in_A(o: Orientation) -> bool:
    return is_acyclic(o) and has_unique_source(o)


def _head_tuples(g: RootedWeightedGraph) -> set[tuple[int, ...]]:
    """Heads of every orientation in A(G), one tuple per orientation.

    Recursive source elimination: grow vertex orders starting at the root,
    admitting a vertex only once it has an already-placed neighbor (otherwise
    it would become a second source). Each admissible order orients every
    edge toward its later endpoint; distinct orders can repeat an
    orientation, so results are deduplicated.
    """
    n = g.n
    adj = {v: [u for u, _ in g.neighbors(v)] for v in g.vertices}
    placed = [False] * (n + 1)
    placed[ROOT] = True
    pos = [0] * (n + 1)
    found: set[tuple[int, ...]] = set()

    def grow(depth: int) -> None:
        if depth == n + 1:
            found.add(
                tuple(j if pos[i] < pos[j] else i for i, j, _ in g.edges)
            )
            return
        for v in range(1, n + 1):
            if not placed[v] and any(placed[u] for u in adj[v]):
                placed[v] = True
                pos[v] = depth
                grow(depth + 1)
                placed[v] = False

    grow(1)
    return found


def _heads_to_mpf(
    g: RootedWeightedGraph, heads: tuple[int, ...]
) -> tuple[int, ...]:
    """Weighted indegree minus one per non-root vertex."""
    acc = [-1] * (g.n + 1)
    for (_, _, w), h in zip(g.edges, heads):
        acc[h] += w
    return tuple(acc[1:])


def enumerate_A(g: RootedWeightedGraph) -> list[Orientation]:
    """All acyclic orientations with the root as unique source, sorted by heads."""
    return [Orientation(g, heads) for heads in sorted(_head_tuples(g))]


def enumerate_A_bruteforce(
    g: RootedWeightedGraph, *, max_edges: int = 12
) -> list[Orientation]:
    """Filter all 2^|E| orientations; reference oracle for enumerate_A."""
    m = len(g.edges)
    if m > max_edges:
        raise TooLarge(f"brute force guarded at {max_edges} edges; got {m}")
    out = []
    for choice in itertools.product(*(((i, j)) for i, j, _ in g.edges)):
        o = Orientation(g, tuple(choice))
        if in_A(o):
            out.append(o)
    return out


def orientation_to_mpf(o: Orientation) -> tuple[int, ...]:
    """Indegree minus one per non-root vertex; o must lie in A(G)."""
    if not in_A(o):
        raise NotInA("orientation is not acyclic with the root as only source")
    return _heads_to_mpf(o.graph, o.heads)


def mpf_to_orientation(
    g: RootedWeightedGraph, b
) -> Orientation:
    """Invert the indegree map on maximal parking functions by sink peeling.

    Repeatedly find the smallest-indexed remaining non-root vertex whose
    target indegree equals its remaining weighted degree, orient its
    remaining edges toward it, and remove it. A wrong entry sum can never be
    maximal; a stall with the right sum means no orientation hits the
    targets.
    """
    b = tuple(b)
    if len(b) != g.n:
        raise LengthMismatch(
            f"vector of length {len(b)} against {g.n} non-root vertices"
        )
    if any(x < 0 for x in b) or sum(b) != g.total_weight - g.n:
        raise NotMaximal(
            "maximal parking functions have non-negative entries summing to "
            f"{g.total_weight - g.n}"
        )
    targets = [0] + [x + 1 for x in b]
    remaining = set(g.vertices)
    head_of: dict[tuple[int, int], int] = {}
    while len(remaining) > 1:
        pick = None
        for v in sorted(remaining - {ROOT}):
            deg = sum(w for u, w in g.neighbors(v) if u in remaining)
            if targets[v] == deg:
                pick = v
                break
        if pick is None:
            raise InconsistentIndegrees(
                f"no orientation realizes indegree targets {tuple(b)}"
            )
        for u, _ in g.neighbors(pick):
            if u in remaining:
                key = (u, pick) if u < pick else (pick, u)
                head_of[key] = pick
        remaining.remove(pick)
    o = Orientation(g, tuple(head_of[(i, j)] for i, j, _ in g.edges))
    if orientation_to_mpf(o) != b:
        raise InconsistentIndegrees(
            f"sink peeling does not realize indegree targets {b}"
        )
    return o

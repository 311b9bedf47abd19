"""Acyclic orientations with the root as unique source.

An orientation assigns a head to every edge. The set A(G) collects the
acyclic ones whose only source is the root; they are in bijection with the
maximal parking functions of the graph, a vertex receiving its weighted
indegree minus one.

This module is that bijection at the API edge. Dhar's burning order and the
walk that enumerates the maximal parking functions live in parking; an
orientation is read off the burning order of its vector by pointing every
edge at its later endpoint, and A(G) is the image of the maximal set.
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
from .graph import ROOT, RootedWeightedGraph, _check_ints
from .parking import _burn_order, _check_length, enumerate_mpf

MAX_BRUTE_EDGES = 12


@dataclass(frozen=True)
class Orientation:
    """heads[k] is the head of graph.edges[k]."""

    graph: RootedWeightedGraph
    heads: tuple[int, ...]

    def __post_init__(self):
        _check_ints(self.heads, "head")
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
    """Kahn's check, with no logic shared with burning, so that
    enumerate_A_bruteforce stays an independent oracle for enumerate_A."""
    n = o.graph.n
    out: dict[int, list[int]] = {v: [] for v in range(n + 1)}
    indeg = [0] * (n + 1)
    for t, h, _ in o.directed_edges():
        out[t].append(h)
        indeg[h] += 1
    ready = [v for v in range(n + 1) if indeg[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for u in out[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    return removed == n + 1


def has_unique_source(o: Orientation) -> bool:
    counts = indegree_vector(o)
    return counts[ROOT] == 0 and all(c > 0 for c in counts[1:])


def in_A(o: Orientation) -> bool:
    return is_acyclic(o) and has_unique_source(o)


def _heads(g: RootedWeightedGraph, pos) -> tuple[int, ...]:
    """Point every edge at its later endpoint; pos[v] is v's place in the order."""
    return tuple(j if pos[i] < pos[j] else i for i, j, _ in g.edges)


def enumerate_A(g: RootedWeightedGraph) -> list[Orientation]:
    """All acyclic orientations with the root as unique source, sorted by heads."""
    return sorted(
        (mpf_to_orientation(g, b) for b in enumerate_mpf(g)),
        key=lambda o: o.heads,
    )


def enumerate_A_bruteforce(g: RootedWeightedGraph) -> list[Orientation]:
    """Filter all 2^|E| orientations; reference oracle for enumerate_A."""
    m = len(g.edges)
    if m > MAX_BRUTE_EDGES:
        raise TooLarge(f"brute force guarded at {MAX_BRUTE_EDGES} edges; got {m}")
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
    return tuple(d - 1 for d in indegree_vector(o)[1:])


def mpf_to_orientation(
    g: RootedWeightedGraph, b
) -> Orientation:
    """Invert the indegree map on maximal parking functions by burning.

    Every edge points at its later endpoint in the burning order of b. A
    wrong entry sum can never be maximal; with the right sum, b is maximal
    exactly when it burns. The result needs no re-check: a vertex burns when
    its burned neighbours outweigh its entry, so each indegree exceeds its
    entry, equal sums make every indegree exactly the entry plus one, and
    forward edges leave the root the only source of an acyclic orientation.
    """
    b = tuple(b)
    _check_length(g, b)
    if any(x < 0 for x in b) or sum(b) != g.total_weight - g.n:
        raise NotMaximal(
            "maximal parking functions have non-negative entries summing to "
            f"{g.total_weight - g.n}"
        )
    order = _burn_order(g.incidence, g.edges, b)
    if order is None:
        raise InconsistentIndegrees(
            f"no orientation realizes indegree targets {b}"
        )
    return Orientation(g, _heads(g, {v: k for k, v in enumerate(order)}))

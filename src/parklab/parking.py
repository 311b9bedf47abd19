"""Parking function membership and enumeration.

Three membership notions live here. Classical parking functions compare
order statistics against 1..n; vector parking functions compare them
against an arbitrary positive non-decreasing threshold vector; graph
parking functions require every non-empty set of non-root vertices to
contain a vertex whose entry is beaten by its outward weighted degree.

Graph parking rests on Dhar's burning order, and this module owns it:
membership burns the vector, and the maximal parking functions, the
weighted indegrees minus one of the acyclic orientations with the root as
unique source, are read off one walk over the burning orders. The full
parking set of a graph is the downward closure of its maximal elements.
The same closure serves the parking pairs of a weight grid. Closures count
the elements they produce against a size guard; the PARKLAB_MAX_SET
environment variable or a keyword argument lifts it.
"""

from __future__ import annotations

import heapq
import itertools
import os
from typing import Iterable, Iterator, Sequence

from .errors import (
    InvalidParameters,
    LengthMismatch,
    NotAParkingFunction,
    TooLarge,
    UNotMonotone,
)
from .graph import ROOT, RootedWeightedGraph

Vector = tuple[int, ...]

DEFAULT_MAX_SET = 10_000_000
MAX_SUBSET_SCAN_VERTICES = 24


def _size_guard(max_set: int | None) -> int:
    """The enumeration guard: max_set, else PARKLAB_MAX_SET, else the default.

    Raises InvalidParameters for a negative guard or a variable that is not
    an integer.
    """
    source = "max_set"
    if max_set is None:
        source = "PARKLAB_MAX_SET"
        raw = os.environ.get(source)
        if raw is None:
            return DEFAULT_MAX_SET
        try:
            max_set = int(raw)
        except ValueError:
            raise InvalidParameters(f"{source} is not an integer: {raw!r}") from None
    if max_set < 0:
        raise InvalidParameters(f"{source} must be >= 0, got {max_set}")
    return max_set


def order_statistics(values: Sequence[int]) -> Vector:
    """The entries in non-decreasing order."""
    return tuple(sorted(values))


def is_classical_pf(a: Sequence[int]) -> bool:
    """Whether the i-th order statistic stays below i for every i."""
    return all(v < i for i, v in enumerate(order_statistics(a), start=1))


def is_vector_pf(a: Sequence[int], u: Sequence[int]) -> bool:
    """Whether a parks against the threshold vector u.

    u must be positive and non-decreasing; a parks when its i-th order
    statistic is strictly below u[i-1] for every i.
    """
    if len(a) != len(u):
        raise LengthMismatch(
            f"vector of length {len(a)} checked against {len(u)} thresholds"
        )
    if any(x <= 0 for x in u) or any(u[i] > u[i + 1] for i in range(len(u) - 1)):
        raise UNotMonotone("thresholds must be positive and non-decreasing")
    return all(v < bound for v, bound in zip(order_statistics(a), u))


def _check_length(g: RootedWeightedGraph, b: Sequence[int]) -> None:
    if len(b) != g.n:
        raise LengthMismatch(
            f"vector of length {len(b)} against {g.n} non-root vertices"
        )


def _burn_order(g: RootedWeightedGraph, b) -> list[int] | None:
    """Dhar's burning order [ROOT, ...] of a non-negative b, None if it stalls.

    From the root, repeatedly burn the smallest-indexed vertex whose entry
    is beaten by its weighted degree into the burned set. b parks exactly
    when every vertex burns. slack[v] is b's entry less v's degree into the
    burned set; it only falls, so a vertex joins the heap of burnable
    vertices once, when its slack turns negative.
    """
    slack = [-1, *b]
    ready = [ROOT]
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u, w in g.neighbors(v):
            if slack[u] >= 0:
                slack[u] -= w
                if slack[u] < 0:
                    heapq.heappush(ready, u)
    return order if len(order) == g.n + 1 else None


def is_g_pf(g: RootedWeightedGraph, b: Sequence[int]) -> bool:
    """Graph parking membership in polynomial time, by Dhar's burning.

    b parks exactly when its entries are non-negative and its burning order
    reaches every vertex.
    """
    _check_length(g, b)
    if any(x < 0 for x in b):
        return False
    return _burn_order(g, b) is not None


def is_g_pf_by_subsets(g: RootedWeightedGraph, b: Sequence[int]) -> bool:
    """Graph parking membership by scanning every non-empty vertex subset.

    Exponential reference implementation; must agree with is_g_pf everywhere.
    Guarded at MAX_SUBSET_SCAN_VERTICES vertices.
    """
    if g.n > MAX_SUBSET_SCAN_VERTICES:
        raise TooLarge(
            f"subset scan guarded at {MAX_SUBSET_SCAN_VERTICES} vertices; got {g.n}"
        )
    _check_length(g, b)
    if any(x < 0 for x in b):
        return False
    verts = range(1, g.n + 1)
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(verts, size):
            chosen = set(subset)
            ok = False
            for v in subset:
                out = sum(w for u, w in g.neighbors(v) if u not in chosen)
                if b[v - 1] < out:
                    ok = True
                    break
            if not ok:
                return False
    return True


def enumerate_mpf(g: RootedWeightedGraph) -> list[Vector]:
    """All maximal parking functions, one per orientation, in sorted order."""
    return sorted(_mpf_walk(g))


def _mpf_walk(g: RootedWeightedGraph) -> Iterator[Vector]:
    """The maximal parking functions, one per orientation, in walk order.

    Grows only burning orders from the root. A vertex may come next if it
    has a placed neighbour and is not owed. Placing v makes every unplaced
    u < v not adjacent to v owed: u was passed over, so a neighbour of u
    must be placed before u; placing a neighbour clears the debt. A vertex
    whose neighbours are all placed could never be cleared, so once it has
    been tried no larger vertex is placed at that depth. Each complete order
    gives one vector: every edge's weight goes to its later endpoint, less
    one per vertex. The walk keeps its own stack of bitmask frames, so the
    recursion limit does not bound n.
    """
    n = g.n
    if n == 0:
        yield ()
        return
    edges = g.edges
    nbr = [0] * (n + 1)
    for i, j, _ in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    pos = [0] * (n + 1)
    # frames (depth, placed, owed, reached, candidates): reached holds every
    # neighbour of a placed vertex; the candidates left at this depth are
    # tried lowest first
    first = nbr[ROOT]
    stack = [(1, 1 << ROOT, 0, first, first)] if first else []
    while stack:
        depth, placed, owed, reached, cand = stack.pop()
        bit = cand & -cand
        v = bit.bit_length() - 1
        pos[v] = depth
        if cand != bit and nbr[v] & ~placed:
            stack.append((depth, placed, owed, reached, cand ^ bit))
        if depth == n:
            acc = [-1] * (n + 1)
            for i, j, w in edges:
                acc[j if pos[i] < pos[j] else i] += w
            yield tuple(acc[1:])
            continue
        owed = (owed | (bit - 1) & ~placed) & ~nbr[v]
        placed |= bit
        reached |= nbr[v]
        cand = reached & ~(placed | owed)
        if cand:
            stack.append((depth + 1, placed, owed, reached, cand))


def _down_set(maximal: Iterable[Vector], limit: int) -> list[Vector]:
    """Sorted downward closure of non-negative vectors in the entrywise order.

    Raises TooLarge as soon as the closure holds more than limit vectors.
    """
    seen: set[Vector] = set(maximal)
    if len(seen) > limit:
        raise TooLarge(f"parking set exceeds the guard of {limit}")
    stack: list[Vector] = list(seen)
    while stack:
        vec = stack.pop()
        for idx in range(len(vec)):
            if vec[idx] == 0:
                continue
            smaller = vec[:idx] + (vec[idx] - 1,) + vec[idx + 1 :]
            if smaller not in seen:
                seen.add(smaller)
                if len(seen) > limit:
                    raise TooLarge(f"parking set exceeds the guard of {limit}")
                stack.append(smaller)
    return sorted(seen)


def enumerate_pf(
    g: RootedWeightedGraph, *, max_set: int | None = None
) -> list[Vector]:
    """The full parking set: downward closure of the maximal elements.

    Raises TooLarge when the closure exceeds the size guard.
    """
    limit = _size_guard(max_set)
    return _down_set(enumerate_mpf(g), limit)


def is_maximal(g: RootedWeightedGraph, b: Sequence[int]) -> bool:
    """Whether b parks and no single entry can grow while still parking.

    Every maximal element sums to W - n; a parking b with that sum lies
    under a maximal one of equal sum, so it is that one.
    """
    if not is_g_pf(g, b):
        raise NotAParkingFunction(f"{tuple(b)} does not park on this graph")
    return sum(b) == g.total_weight - g.n

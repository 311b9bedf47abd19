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
parking set of a graph is the downward closure of its maximal elements,
generated in lexicographic order with no membership test; the same closure
serves the parking pairs of a weight grid. Its last three coordinates are
built once per distinct set of covering suffixes and emitted under every
prefix that shares them. A closure counts the distinct maximal elements as
they arrive and the elements it will produce against a size guard, and
raises as soon as either exceeds it; the PARKLAB_MAX_SET environment
variable or a keyword argument sets the guard.
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
from .graph import ROOT, RootedWeightedGraph, _check_ints, _masks

Vector = tuple[int, ...]

DEFAULT_MAX_SET = 10_000_000
MAX_SUBSET_SCAN_VERTICES = 24


def _size_guard(max_set: int | None) -> int:
    """The enumeration guard: max_set, else PARKLAB_MAX_SET, else the default.

    Raises InvalidParameters for a negative guard, or a guard or variable
    that is not an integer.
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
    elif type(max_set) is not int:
        raise InvalidParameters(f"max_set must be an integer, got {max_set!r}")
    if max_set < 0:
        raise InvalidParameters(f"{source} must be >= 0, got {max_set}")
    return max_set


def order_statistics(values: Sequence[int]) -> Vector:
    """The entries in non-decreasing order."""
    return tuple(sorted(values))


def is_classical_pf(a: Sequence[int]) -> bool:
    """Whether a is non-negative and its i-th order statistic stays below i.

    That is vector parking against the thresholds 1..n.
    """
    return is_vector_pf(a, range(1, len(a) + 1))


def is_vector_pf(a: Sequence[int], u: Sequence[int]) -> bool:
    """Whether a parks against the threshold vector u.

    u must be positive and non-decreasing; a parks when it is non-negative
    and its i-th order statistic is strictly below u[i-1] for every i.
    """
    if len(a) != len(u):
        raise LengthMismatch(
            f"vector of length {len(a)} checked against {len(u)} thresholds"
        )
    _check_ints(a, "vector entry")
    _check_ints(u, "threshold")
    if any(x <= 0 for x in u) or any(u[i] > u[i + 1] for i in range(len(u) - 1)):
        raise UNotMonotone("thresholds must be positive and non-decreasing")
    return all(0 <= v < bound for v, bound in zip(order_statistics(a), u))


def _check_length(g: RootedWeightedGraph, b: Sequence[int]) -> None:
    if len(b) != g.n:
        raise LengthMismatch(
            f"vector of length {len(b)} against {g.n} non-root vertices"
        )
    _check_ints(b, "vector entry")


def _burn_order(g: RootedWeightedGraph, b) -> list[int] | None:
    """Dhar's burning order [ROOT, ...] of b, None if it stalls.

    From the root, repeatedly burn the smallest-indexed vertex whose entry
    is beaten by its weighted degree into the burned set. b parks exactly
    when every vertex burns. slack[v] is b's entry less v's degree into the
    burned set; it only falls, so a vertex joins the heap of burnable
    vertices once, when its slack turns negative. A vertex whose slack
    starts below zero is never lowered or pushed, so a negative entry never
    burns.
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

    b parks exactly when its burning order reaches every vertex; a negative
    entry never burns, so no vector with one parks.
    """
    _check_length(g, b)
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
    nbr = _masks(g)
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


def _closure_block(
    tails: frozenset[Vector],
    budget: int,
    memo: dict[frozenset[Vector], list[Vector]],
) -> list[Vector] | None:
    """Sorted downward closure of tails, non-negative vectors of one length 1..3.

    None when the closure holds more than budget vectors, and then nothing
    past budget has been built. Single entries close to the run 0..top.
    Pairs close to a staircase: each first entry v runs its last entry up to
    the largest last entry among the pairs whose first is at least v, and
    the staircase's exact size is checked before it is built. Triples close
    to their children's blocks with the first entry prepended: the child for
    v closes the tails of the triples whose first entry is at least v, and
    gets the budget its larger siblings left, less one vector for each
    smaller sibling still to come. memo maps each tail set closed so far to
    its block; a hit is checked against the budget of the call.
    """
    block = memo.get(tails)
    if block is not None:
        return block if len(block) <= budget else None
    top = max(t[0] for t in tails)
    # each entry 0..top starts at least one vector
    if top >= budget:
        return None
    width = len(next(iter(tails)))
    if width == 1:
        block = [(v,) for v in range(top + 1)]
    elif width == 2:
        # reach[v]: the largest last entry of a tail whose first is >= v
        reach = [-1] * (top + 1)
        for a, b in tails:
            if b > reach[a]:
                reach[a] = b
        for v in range(top - 1, -1, -1):
            if reach[v + 1] > reach[v]:
                reach[v] = reach[v + 1]
        if top + 1 + sum(reach) > budget:
            return None
        block = [(v, w) for v, last in enumerate(reach) for w in range(last + 1)]
    else:
        by_first: list[list[Vector]] = [[] for _ in range(top + 1)]
        for t in tails:
            by_first[t[0]].append(t[1:])
        children: list[list[Vector]] = [[]] * (top + 1)
        grown: set[Vector] = set()
        size = 0
        for v in range(top, -1, -1):
            grown.update(by_first[v])
            child = _closure_block(frozenset(grown), budget - size - v, memo)
            if child is None:
                return None
            children[v] = child
            size += len(child)
        block = []
        for v, child in enumerate(children):
            block.extend(map((v,).__add__, child))
    memo[tails] = block
    return block


def _down_set(tops: Iterable[Vector], limit: int) -> list[Vector]:
    """Sorted downward closure of non-negative vectors in the entrywise order.

    The tops are deduplicated as they arrive, so a generator is read only
    until it has yielded more than limit distinct tops. The closure is then
    generated in lexicographic order, a coordinate at a time. A node holds a
    prefix and the distinct suffixes of the tops that cover it; its entry runs
    from 0 to the largest first entry among them, and the child for value v
    keeps the tails of the suffixes whose first entry is at least v. The
    closure below a node depends only on its suffixes, never on its prefix,
    so the last three coordinates are a block, built once per distinct
    suffix set in a call by _closure_block and emitted under every prefix
    that shares it. Each element is emitted once, already in order, with no
    membership test and no sort.

    Raises TooLarge exactly when the closure holds more than limit vectors:
    at the first distinct top past limit, or before emitting a subtree or
    building a block that would take the count past limit.
    """
    exceeded = f"parking set exceeds the guard of {limit}"
    distinct: set[Vector] = set()
    for top in tops:
        if top not in distinct:
            distinct.add(top)
            if len(distinct) > limit:
                raise TooLarge(exceeded)
    if not distinct:
        return []
    if distinct == {()}:
        return [()]
    width = len(next(iter(distinct)))
    memo: dict[frozenset[Vector], list[Vector]] = {}
    out: list[Vector] = []
    # frames (prefix, tails): tails are the distinct suffixes of the tops
    # that cover prefix
    stack = [((), frozenset(distinct))]
    while stack:
        prefix, tails = stack.pop()
        if width - len(prefix) <= 3:
            block = _closure_block(tails, limit - len(out), memo)
            if block is None:
                raise TooLarge(exceeded)
            out.extend(map(prefix.__add__, block))
            continue
        top = max(t[0] for t in tails)
        # each entry 0..top extends prefix to at least one element
        if len(out) + top >= limit:
            raise TooLarge(exceeded)
        by_first: list[list[Vector]] = [[] for _ in range(top + 1)]
        for t in tails:
            by_first[t[0]].append(t[1:])
        grown: set[Vector] = set()
        # pushed largest value first, so the smallest is expanded first
        for v in range(top, -1, -1):
            grown.update(by_first[v])
            stack.append((prefix + (v,), frozenset(grown)))
    return out


def enumerate_pf(
    g: RootedWeightedGraph, *, max_set: int | None = None
) -> list[Vector]:
    """The full parking set in sorted order: the down-set of the maximal ones.

    The walk's maximal vectors feed the closure as they are found, so more
    than max_set distinct maximal vectors raise TooLarge without finishing
    the walk; a larger closure raises TooLarge before it is built past
    max_set.
    """
    return _down_set(_mpf_walk(g), _size_guard(max_set))


def is_maximal(g: RootedWeightedGraph, b: Sequence[int]) -> bool:
    """Whether b parks and no single entry can grow while still parking.

    Every maximal element sums to W - n; a parking b with that sum lies
    under a maximal one of equal sum, so it is that one.
    """
    if not is_g_pf(g, b):
        raise NotAParkingFunction(f"{tuple(b)} does not park on this graph")
    return sum(b) == g.total_weight - g.n

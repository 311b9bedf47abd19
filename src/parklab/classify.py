"""Block-permutation invariance: testing and grid construction.

A bipartitioned graph is invariant when permuting entries within each block
maps parking functions to parking functions. Invariance of the full parking
set is equivalent to invariance of its maximal elements, so every test here
reads the maximal set only.

Invariant graphs are matched against the structural case list (cycles
with up to two marked vertices, a cycle with a chord, banded complete
graphs, a cycle or complete first side with restricted attachments,
uniform forests carrying one cycle or complete second side, and two-weight
trees) by graph's one matcher: a plan of an edge pattern with one check
per case its structure leaves open, whose weight condition one routine
reads from named groups of edge positions.
Each matched case prescribes a weight grid whose parking pairs reproduce
the graph's parking functions; verify_equality checks that claim exactly,
and construct_u_for_graph builds the grid of a graph's lowest case.
sweep_classification checks the classification by brute force on every
block graph within a budget, up to relabeling inside the blocks. It counts
the graphs per edge pattern and builds only those whose blocks are level;
each other graph is rejected by a level equality that fails. It plans each
pattern's cases once and reads each invariant graph's lowest case from
that plan, the case construct_u_for_graph would use. Its swap-burn walk
also works per pattern: the burning orders and the incidence that the
burns read depend on the pattern alone, so each is made once and read
with every weighting's weights.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidParameters, NotClassified, ShapeMismatch
from .graph import (
    FamilyTag,
    RootedWeightedGraph,
    _case_plan,
    _incidence,
    _masks,
    _reach,
    _read_cases,
    _root_side_edges,
    build_graph,
    match_theorem61,
)
from .lattice import (
    Pair,
    WeightGrid,
    _node_grid,
    _orbit_size,
    increasing_maximal_pairs,
)
from .parking import (
    Vector,
    _burn_order,
    _burning_orders,
    _mpf_walk,
    _order_mpf,
    enumerate_mpf,
    enumerate_pf,
    order_statistics,
)


# ---------------------------------------------------------------------------
# invariance testing


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of the invariance test.

    witness, present only on failure, is a pair (element, missing): element
    is the least maximal vector with an adjacent in-block swap that does
    not park, and missing is that vector under its leftmost such swap.
    """

    invariant: bool
    witness: tuple[Vector, Vector] | None
    family_matches: tuple[FamilyTag, ...]
    swapped: bool

    def to_json(self) -> dict:
        return {
            "invariant": self.invariant,
            "witness": None
            if self.witness is None
            else {
                "element": list(self.witness[0]),
                "missing": list(self.witness[1]),
            },
            "family_matches": [t.to_json() for t in self.family_matches],
            "swapped": self.swapped,
        }


def _first_hole(p: int, incidence, edges, vectors: Iterable[Vector]) -> tuple:
    """The first vector with an in-block swap that does not park: (hole, read).

    The graph has first block 1..p, edges, and their incidence
    (graph._incidence), which _burn_order reads; the sweep passes one
    incidence for all weightings of an edge pattern. vectors is the graph's
    maximal set or its full parking set, in any order. The
    adjacent swaps inside a block generate the block permutations, so the
    set is closed under them exactly when no vector has an adjacent
    in-block swap outside it. The full set holds every parking vector, and
    a swap keeps the entry sum W - n, so on either set a swapped vector
    stays in it exactly when it parks. Each vector's moving swaps are looked
    up among the vectors known to park, and burned only when absent.

    hole is (vector, swapped) for the first vector, in the order given, with
    such a swap, and its leftmost one. read holds the vectors read and the
    swaps found to park by then; with no hole, hole is None and read is the
    whole set.
    """
    swaps = [i for i in range(len(incidence) - 2) if i != p - 1]
    known: set[Vector] = set()
    for vec in vectors:
        known.add(vec)
        for i in swaps:
            if vec[i] != vec[i + 1]:
                swapped = vec[:i] + (vec[i + 1], vec[i]) + vec[i + 2 :]
                if swapped not in known:
                    if _burn_order(incidence, edges, swapped) is None:
                        return (vec, swapped), known
                    known.add(swapped)
    return None, known


def is_invariant(g: RootedWeightedGraph) -> InvarianceReport:
    """Test block-permutation invariance on the maximal parking set.

    Closure of the maximal set under block permutations is equivalent to
    closure of the full parking set, so no down-set is enumerated.
    """
    g.require_bipartition()
    witness = _first_hole(g.p, g.incidence, g.edges, enumerate_mpf(g))[0]
    tags = match_theorem61(g) if g.p and g.q else []
    swapped = tags[0].swapped if tags else False
    return InvarianceReport(witness is None, witness, tuple(tags), swapped)


def check_lemma61(g: RootedWeightedGraph) -> bool:
    """Compare invariance of the full parking set against the maximal set.

    Both verdicts come from the sweep's adjacent-swap check, _first_hole,
    one run over the full set and one over the maximal set's walk. Returns
    True when the two agree (they must, for every graph). The full set is
    enumerated under enumerate_pf's guard: PARKLAB_MAX_SET, else the
    default.
    """
    g.require_bipartition()
    full_hole = _first_hole(g.p, g.incidence, g.edges, enumerate_pf(g))[0]
    maximal_hole = _first_hole(g.p, g.incidence, g.edges, _mpf_walk(g))[0]
    return (full_hole is None) == (maximal_hole is None)


# ---------------------------------------------------------------------------
# constructions


def wedge(
    g1: RootedWeightedGraph, g2: RootedWeightedGraph
) -> RootedWeightedGraph:
    """Merge two rooted graphs at their roots; blocks become (n1, n2)."""
    shift = g1.n
    edges = [(i, j, w) for i, j, w in g1.edges]
    for i, j, w in g2.edges:
        edges.append((i + shift if i else 0, j + shift, w))
    return build_graph(g1.n + g2.n, edges, p=g1.n, q=g2.n)


def _side_vector(shape: str, length: int, first: int, second: int) -> Vector:
    """Threshold vector of a recognized side structure.

    A tree or forest side has second band 0, so the complete side's rule
    gives its constant vector.
    """
    if shape == "cycle":
        return (first,) * (length - 1) + (2 * first,)
    return tuple(first + k * second for k in range(length))


@dataclass(frozen=True)
class GridConstruction:
    """Grid built for a matched graph, with the case that produced it."""

    grid: WeightGrid
    case: FamilyTag
    matches: tuple[FamilyTag, ...]
    swapped: bool

    def to_json(self) -> dict:
        out = self.grid.to_json()
        out["case_used"] = self.case.to_json()
        out["matches"] = [t.to_json() for t in self.matches]
        out["swapped"] = self.swapped
        return out


def _grid_for_case(p: int, q: int, tag: FamilyTag) -> WeightGrid:
    """The grid of a matched case, on blocks p and q as the graph is labeled.

    Each case family's grid is one pair of node formulas (u_at, v_at) on the
    blocks (first, second) that its tag reads: affine for case iii; for the
    cycles i.a-ii, a marked-root band a, the rest, and the chord {1, 2} (0
    when absent); for iv.a-vi, the side vectors, whose last entry repeats
    into the unread row and column. A swapped tag's grid is the transpose
    of its own grid on (q, p), so its formulas are read at (j, i) with u and
    v exchanged; either way the grid is one validated construction.
    """
    case, params = tag.case, dict(tag.params)
    first, second = (q, p) if tag.swapped else (p, q)  # the block sizes the tag reads
    if case == "iii":
        a, b, c, d, e = (params[k] for k in "abcde")
        u_at, v_at = lambda i, j: b * i + c * j + a, lambda i, j: c * i + d * j + e
    elif case in ("i.a", "i.b", "i.c", "ii"):
        a, rest, chord = params["a"], params.get("b", params["a"]), 0
        if case == "ii":
            rest, chord = params["c"], params["b"]
        band = a + chord  # the last two rows carry the chord
        u_at, v_at = (
            lambda i, j: band + (rest if j == second else 0) if i >= first - 1 else a,
            lambda i, j: 2 * rest if i == first and j >= second - 1 else rest,
        )
    else:
        if case == "vi":
            u, v = (params["a"],) * first, (params["b"],) * second
        else:  # iv.a, iv.b and v; v has no inner A band, iv.b no inner B band
            u = _side_vector(params["a_shape"], first, params["a"], params.get("b", 0))
            v = _side_vector(params["b_shape"], second, params["c"], params.get("d", 0))
        u_at, v_at = (
            lambda i, j: u[min(i, first - 1)],
            lambda i, j: v[min(j, second - 1)],
        )
    if tag.swapped:
        return _node_grid(p, q, lambda i, j: v_at(j, i), lambda i, j: u_at(j, i))
    return _node_grid(p, q, u_at, v_at)


def construct_u_for_graph(g: RootedWeightedGraph) -> GridConstruction:
    """Grid prescribed by the lowest matching case.

    The grid's east direction always corresponds to the graph's first block
    as labeled, also when the chosen case matched under the swapped
    labeling.
    """
    tags = match_theorem61(g)
    if not tags:
        raise NotClassified("graph matches no case of the classification")
    tag = tags[0]
    grid = _grid_for_case(g.p, g.q, tag)
    return GridConstruction(grid, tag, tuple(tags), tag.swapped)


def _matches_grid(maximal: set[Vector], p: int, increasing: list[Pair]) -> bool:
    """Whether a graph's maximal set equals the grid with these increasing pairs.

    The grid's maximal set is the disjoint union of the block orbits of its
    increasing pairs. Block-sorted members that are exactly those pairs put
    the graph's set inside the grid's, and equal sizes make the sets equal.
    """
    if len(maximal) != sum(map(_orbit_size, increasing)):
        return False
    ranked = {order_statistics(v[:p]) + order_statistics(v[p:]) for v in maximal}
    return ranked == {a + b for a, b in increasing}


def verify_equality(g: RootedWeightedGraph, grid: WeightGrid) -> bool:
    """Whether the graph's maximal parking set equals the grid's.

    Comparing the maximal antichains decides equality of the full sets, both
    being downward closures.
    """
    g.require_bipartition()
    if (g.p, g.q) != (grid.p, grid.q):
        raise ShapeMismatch(
            f"graph blocks ({g.p}, {g.q}) against grid ({grid.p}, {grid.q})"
        )
    return _matches_grid(set(enumerate_mpf(g)), g.p, increasing_maximal_pairs(grid))


# ---------------------------------------------------------------------------
# sweeps


def _block_relabelings(p: int, q: int) -> tuple[list, dict, list]:
    """The edge slots on blocks 1..p and p+1..p+q, their index, and each
    relabeling inside the blocks as a slot permutation perm, identity first.

    The relabeled assignment reads weights[perm[k]] at slot k.
    """
    n = p + q
    slots = list(itertools.combinations(range(n + 1), 2))
    index = {pair: k for k, pair in enumerate(slots)}
    perms = []
    for sigma in itertools.permutations(range(1, p + 1)):
        for tau in itertools.permutations(range(p + 1, n + 1)):
            to = (0, *sigma, *tau)
            perms.append(
                tuple(index[min(to[i], to[j]), max(to[i], to[j])] for i, j in slots)
            )
    return slots, index, perms


def _relabeling_states(perms: list, m: int) -> list:
    """The starting state (perm, wait, 0) of each permutation of m positions.

    An orderly walk sets positions 0..m-1 in order, and a relabeled
    assignment reads weights[perm[t]] at t. A state (perm, wait, t) records
    that perm agrees with the identity before position t; position t can be
    compared once position wait[t] = max(t, perm[t]) is set.
    """
    return [(perm, tuple(map(max, range(m), perm)), 0) for perm in perms]


def _still_least(states: list, weights: list, d: int, m: int) -> list | None:
    """The states still undecided once position d is set, with those that
    fix the whole assignment, or None when a relabeling reads the prefix
    smaller.

    A relabeling is compared with the identity on positions 0..d only.
    Where it reads smaller, the prefix starts no orbit's least member and
    its subtree is pruned; where it reads larger, it is dropped for the
    subtree. Where it fixes all m positions it is kept, as (perm, wait, m).
    That is first decided at d = m - 1, where every state is decided, so
    the list kept at the last position is exactly the relabelings in states
    that fix the assignment.
    """
    kept = []
    for state in states:
        perm, wait, t = state
        if wait[t] == d:
            while t < m and wait[t] <= d and weights[perm[t]] == weights[t]:
                t += 1
            if t < m and wait[t] <= d:
                if weights[perm[t]] < weights[t]:
                    return None  # a relabeling reads smaller: prune
                continue  # it reads larger for good
            state = (perm, wait, t)
        kept.append(state)
    return kept


def _block_leaves(p: int, q: int, max_w: int):
    """The walk behind connected_block_graphs, yielding (edges, nbrs, total, states).

    The walk assigns the slots depth first, in order (orderly generation,
    after Read 1978), and keeps a prefix only while no block relabeling
    reads it smaller (_still_least).

    edges lists the present slots (i, j, w) in slot order, nbrs is what
    graph._masks reads from them, and total is the weight sum. The walk
    keeps them slot by slot: each weight step adds 1 to the total, a slot
    whose weights run out takes max_w back off, and the last slot's edge is
    appended for the yield and popped on resume. states lists the leaf's
    stabilizer less the identity: the states (perm, wait, m) of the
    relabelings that fix every slot's weight, which _still_least keeps at
    the last slot. The three lists are the walk's live state, valid until
    the next item is requested; a caller that keeps a leaf copies
    tuple(edges), as the search does only for the leaves that pass its sum
    test, and the sweep only for the edge patterns whose levels it can
    meet.

    Deeper slots only add edges, and a weight rising past 1 leaves a slot's
    bits set. So once a leaf's search reaches every vertex, every later leaf
    is connected until the deepest slot present at that leaf runs out: the
    walk searches once per connected prefix, not once per leaf.
    """
    # the walk steps weights by 1 and takes max_w back off, so a float
    # max_w corrupts its total; bool is refused as in build_graph
    if type(max_w) is not int:
        raise InvalidParameters(f"max_w must be an integer, got {max_w!r}")
    if max_w < 0:
        raise InvalidParameters(
            f"max_w must be >= 0 (weights run 0..max_w), got {max_w}"
        )
    if type(p) is not int or type(q) is not int:
        raise ShapeMismatch(f"block sizes {p!r} and {q!r} must be integers")
    if p < 0 or q < 0:
        raise ShapeMismatch(f"block sizes {p} and {q} must be non-negative")
    n = p + q
    slots, index, perms = _block_relabelings(p, q)
    if not slots:  # the root alone
        yield (), [0], 0, []
        return
    m = len(slots)
    weights = [-1] * m  # -1: slot not assigned yet
    # input states per depth; the identity, the permutations' first, is dropped
    undecided = [_relabeling_states(perms[1:], m)] + [None] * (m - 1)
    nbrs = [0] * (n + 1)
    total = 0
    full = (1 << (n + 1)) - 1
    edges = []
    connected_at = -1  # if >= 0, leaves are connected until this slot runs out
    d = 0
    while d >= 0:
        i, j = slots[d]
        w = weights[d] + 1
        if w > max_w:
            if d == connected_at:
                connected_at = -1
            weights[d] = -1
            nbrs[i] &= ~(1 << j)
            nbrs[j] &= ~(1 << i)
            total -= max_w
            d -= 1
            if d >= 0 and weights[d]:
                edges.pop()
            continue
        weights[d] = w
        if w:
            total += 1
            if w == 1:  # slot d's bits stay set until its weights run out
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
        # most prefixes have no relabeling left undecided
        kept = undecided[d] and _still_least(undecided[d], weights, d, m)
        if kept is None:
            continue
        if w:
            edges.append((i, j, w))
        if d < m - 1:
            undecided[d + 1] = kept
            d += 1
            continue
        if connected_at < 0 and _reach(nbrs) == full:
            # n >= 1 here, so a connected leaf has a present slot
            connected_at = index[edges[-1][:2]]
        if connected_at >= 0:
            yield edges, nbrs, total, kept
        if w:
            edges.pop()


def connected_block_graphs(p: int, q: int, max_w: int):
    """All connected bipartitioned graphs up to relabeling within blocks.

    Every edge slot takes a weight in 0..max_w (0 means absent), and of each
    block-relabeling orbit only the lexicographically smallest assignment is
    yielded, in lexicographic order, when it is connected. The graphs are
    the leaves of _block_leaves.
    """
    for edges, _, _, _ in _block_leaves(p, q, max_w):
        yield RootedWeightedGraph(p + q, tuple(edges), p, q)


@dataclass
class SweepReport:
    max_n: int
    max_w: int
    graphs_tested: int
    invariant_count: int
    per_family_counts: dict[str, int]
    counterexamples: list[dict]

    def to_json(self) -> dict:
        return {
            "budget": {"max_n": self.max_n, "max_w": self.max_w},
            "graphs_tested": self.graphs_tested,
            "invariant_count": self.invariant_count,
            "per_family_counts": dict(sorted(self.per_family_counts.items())),
            "counterexamples": self.counterexamples,
        }


def _level_plans(p: int, edges: list, nbrs: list[int], max_w: int) -> list | None:
    """Each block vertex's plan in one edge pattern; None if no weighting levels it.

    By Dhar's burning, v's largest parking entry is w(v, R) - 1, for R the
    root's component of g - v: the vertices outside R have edges out only
    at v, and with v at w(v, R) - 1 and zeros elsewhere, R burns, then v,
    then the rest. A block permutation moves a largest entry to any vertex
    of its block, so in an invariant graph each block's vertices are level:
    they share w(v, R).

    edges and nbrs are a leaf of _block_leaves(p, q, 1), so nbrs[v] has one
    bit per edge of v. v's level w(v, R) is the weight sum over its plan:
    the positions in edges that _root_side_edges lists, or all of v's edges
    when v is no cut vertex (ats[v] is None then). The plans depend on the
    pattern alone. With weights in 1..max_w a plan of k positions reads a
    level in k..k * max_w, so a block whose intervals share no value is
    level under no weighting. The vertices are read in order, and the reads
    stop at the first vertex whose interval misses the common part of those
    before it in its block. With max_w = 1 each interval is the one level
    its vertex reads, so the test is exact.
    """
    ats = [None] * len(nbrs)
    for first, last in ((1, p), (p + 1, len(nbrs) - 1)):
        if first >= last:  # one vertex is level with itself
            continue
        least, most = len(edges), 0
        for v in range(first, last + 1):
            at = ats[v] = _root_side_edges(edges, v, nbrs)
            size = nbrs[v].bit_count() if at is None else len(at)
            if size > most:
                most = size
            if size < least:
                least = size
            if most > least * max_w:
                return None
    return ats


def _level_steps(p: int, edges: list, ats: list, max_w: int) -> list[list]:
    """The level equalities of one edge pattern, listed by position.

    ats is _level_plans' result. Each vertex's level must equal that of its
    block's first vertex. Each such equality c reads the weights at its
    support, the positions in one plan and not the other, with coefficient
    +1 or -1, and sums to 0. steps[d] lists a tuple (c, coef, lo, hi) for
    each equality whose support holds position d: coef is d's coefficient,
    and lo..hi the range of coef times what the support's later positions
    can add. At its last position lo = hi = 0, so there the equality closes
    exactly; before it the open level is bounded.
    """
    incident: list[list[int]] = [[] for _ in ats]
    for k, (i, j, _) in enumerate(edges):
        incident[i].append(k)
        incident[j].append(k)
    steps: list[list] = [[] for _ in edges]
    c = 0
    for first, last in ((1, p), (p + 1, len(ats) - 1)):
        if first >= last:
            continue
        base, *plans = (
            set(incident[v] if ats[v] is None else ats[v])
            for v in range(first, last + 1)
        )
        for plan in plans:
            lo = hi = 0
            for d in sorted(plan ^ base, reverse=True):
                if d in plan:
                    steps[d].append((c, 1, lo, hi))
                    lo, hi = lo + 1, hi + max_w
                else:
                    steps[d].append((c, -1, -hi, -lo))
                    lo, hi = lo - max_w, hi - 1
            c += 1
    return steps


def _level_weightings(steps: list[list], group: list, max_w: int):
    """The weightings in 1..max_w that meet every equality in steps, lex-least
    in their orbit under group, in lexicographic order.

    A depth-first walk sets one position at a time, each to the values that
    every equality there still allows, and prunes a prefix that a member of
    group reads smaller (_still_least, as in _block_leaves). group lists
    permutations of the positions; the relabeled weighting reads
    weights[pi[t]] at t. The weights list yielded is the walk's live state.
    """
    m = len(steps)
    weights = [0] * m
    top = [0] * m  # the largest weight the bounds allow at each position
    gap = [0] * m  # each equality's sum so far; there are fewer than m
    undecided = [_relabeling_states(group, m)] + [None] * (m - 1)
    if not m:  # the root alone: one empty weighting
        yield weights
        return
    d = 0
    while d >= 0:
        w = weights[d]
        if w:  # the next value, if the bounds allow it
            if w == top[d]:
                for c, coef, _, _ in steps[d]:
                    gap[c] -= coef * w
                weights[d] = 0
                d -= 1
                continue
            w += 1
            for c, coef, _, _ in steps[d]:
                gap[c] += coef
        else:  # the values every equality at d still allows
            low, high = 1, max_w
            for c, coef, lo, hi in steps[d]:
                g = gap[c] * coef  # coef is +1 or -1
                if -g - hi > low:
                    low = -g - hi
                if -g - lo < high:
                    high = -g - lo
            if low > high:
                d -= 1
                continue
            w, top[d] = low, high
            for c, coef, _, _ in steps[d]:
                gap[c] += coef * w
        weights[d] = w
        kept = undecided[d] and _still_least(undecided[d], weights, d, m)
        if kept is None:
            continue
        if d < m - 1:
            undecided[d + 1] = kept
            d += 1
            continue
        yield weights


def _cycle_count(perm: list[int]) -> int:
    """The number of cycles of a permutation of range(len(perm))."""
    seen = [False] * len(perm)
    count = 0
    for t in range(len(perm)):
        if not seen[t]:
            count += 1
            while not seen[t]:
                seen[t] = True
                t = perm[t]
    return count


def _level_solutions(p: int, q: int, max_w: int):
    """The sweep's graphs of one split, solved per edge pattern: (tested, graphs).

    Each canonical edge pattern P, a leaf of _block_leaves(p, q, 1), is read
    once. The weighted graphs whose support lies in P's orbit correspond one
    to one with the orbits of weightings of P in 1..max_w under Stab(P), the
    block relabelings that fix P, and Burnside's lemma counts those orbits:
    the mean of max_w ** (cycles of g on P) over Stab(P). Stab(P) is read
    off the walk that yields P: the identity, and the relabelings of the
    walk's fourth item, each mapped to a permutation of P's positions. With
    max_w <= 1 a pattern has at most one weighting, so the group is left
    trivial: it counts the same, prunes nothing, and is not mapped to
    positions. tested sums that count over the patterns read since the
    previous item, so the items' tested add up to the split's number of
    graphs; an item is yielded for each pattern that _level_plans finds
    possibly level, and once at the end.

    graphs is a lazy iterator over the edge tuples of the lex-least
    weighting of each orbit whose block levels are equal, the exact
    largest-entry criterion (_level_plans, _level_steps,
    _level_weightings), so memory does not grow with a pattern's
    weightings. Every other graph of the orbits is rejected by a level
    equality that fails, and is never built.
    """
    slots = itertools.combinations(range(p + q + 1), 2)
    index = {pair: k for k, pair in enumerate(slots)}  # _block_relabelings' index
    tested = 0
    for edges, nbrs, _, states in _block_leaves(p, q, 1):
        m = len(edges)
        orbits = max_w**m
        group = []  # Stab(P) less the identity, as permutations of positions
        if max_w > 1:
            at = [index[i, j] for i, j, _ in edges]
            position = dict(zip(at, range(m)))
            group = [[position[perm[k]] for k in at] for perm, _, _ in states]
            orbits += sum(max_w ** _cycle_count(pi) for pi in group)
            orbits //= len(group) + 1
        tested += orbits
        ats = _level_plans(p, edges, nbrs, max_w)
        if ats is None:
            continue
        weightings = _level_weightings(_level_steps(p, edges, ats, max_w), group, max_w)
        heads, tails = [i for i, _, _ in edges], [j for _, j, _ in edges]
        # map binds this pattern's heads and tails now, where a generator
        # expression would read them once the next pattern has replaced them
        graphs = map(zip, itertools.repeat(heads), itertools.repeat(tails), weightings)
        yield tested, map(tuple, graphs)
        tested = 0
    yield tested, ()


def _replay(seen: list, source: Iterator) -> Iterator:
    """The items in seen, then source's next ones, each appended to seen as drawn."""
    yield from seen
    for item in source:
        seen.append(item)
        yield item


def _sweep_block(args: tuple[int, int, int]) -> tuple:
    """Test each graph of one split once: (tested, invariant, counts, bad).

    The swap-burn walk works per edge pattern: on the pattern's first
    weighting it makes the pattern's incidence (graph._incidence) and its
    source of burning orders (parking._burning_orders), which depend on the
    pattern alone. Each weighting replays the orders drawn so far and draws
    new ones only past them (_replay), reading each with its own weights
    (parking._order_mpf), so a walk that stops at an early hole leaves the
    rest of the source undrawn. A graph is built only to report a failure.
    The case stage also works per edge pattern: its structure is planned
    once, on the first invariant graph (graph._case_plan), and each
    invariant graph's weights are read against that plan up to the lowest
    case. The lowest case's grid is priced once per distinct tag in the
    split.
    """
    p, q, max_w = args
    n = p + q
    tested = invariant = 0
    counts: Counter[str] = Counter()
    bad: list[dict] = []
    priced: dict[FamilyTag, list[Pair]] = {}  # each tag's increasing pairs
    for count, graphs in _level_solutions(p, q, max_w):
        tested += count
        plan = orders = None
        for edges in graphs:
            if orders is None:
                incidence, seen = _incidence(n, edges), []
                orders = _burning_orders(_masks(n, edges))
            vectors = map(_order_mpf, _replay(seen, orders), itertools.repeat(edges))
            hole, maximal = _first_hole(p, incidence, edges, vectors)
            if hole is not None:
                continue
            invariant += 1
            if plan is None:
                plan = _case_plan(p, q, [e[:2] for e in edges])
            tag = next(_read_cases(plan, [w for _, _, w in edges]), None)
            if tag is None:
                failure = {"reason": "no-case-matches"}
            else:
                counts[tag.case] += 1
                if tag not in priced:
                    priced[tag] = increasing_maximal_pairs(_grid_for_case(p, q, tag))
                if _matches_grid(maximal, p, priced[tag]):
                    continue
                failure = {"reason": "grid-mismatch", "case": tag.case}
            g = RootedWeightedGraph(n, edges, p, q)
            bad.append({"graph": g.to_json(), **failure})
    return tested, invariant, counts, bad


def sweep_classification(
    max_n: int, max_w: int = 2, *, jobs: int = 1
) -> SweepReport:
    """Check the classification on every graph within the budget.

    Every connected bipartitioned graph with both blocks non-empty, at most
    max_n non-root vertices, and weights up to max_w is tested for closure
    under block permutations. An exact prefilter first rejects each graph
    whose vertices in one block differ in their largest parking entry. It
    works per edge pattern (_level_solutions): the pattern's graphs are
    counted by Burnside's lemma, and only those whose entries agree within
    each block are built. The rejected graphs are never built, and each
    fails a level equality; they count in graphs_tested like any other
    non-invariant graph. The rest are tested while their maximal parking
    set is walked, and the walk stops at the first adjacent in-block swap
    that does not park. The walk's burning orders depend on the edge
    pattern alone, so each pattern's are drawn once, as far as its
    weightings read them, and replayed for its later weightings; one
    incidence of the pattern serves every burn. Only invariant graphs are
    matched against the case list; each must match a case whose grid has
    the same maximal set. The lowest case is read from a plan made once per
    edge pattern, and its grid is priced once per split (_sweep_block);
    both are the case and the grid that construct_u_for_graph gives the
    graph. A graph is built only for a counterexample: failures are
    reported as counterexamples, in the labeling of their
    pattern's lex-least weighting. Each block split (p, q) is one task whose
    graphs are generated once; jobs worker processes, at most
    os.cpu_count(), take the tasks in turn. The max_n - 1 splits of the
    largest n hold most graphs, so more workers than that gain nothing.
    """
    for name, value, least in (
        ("max_n", max_n, 0),
        ("max_w", max_w, 0),
        ("jobs", jobs, 1),
    ):
        if type(value) is not int:
            raise InvalidParameters(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise InvalidParameters(f"{name} must be >= {least}, got {value}")
    tasks = [(p, n - p, max_w) for n in range(2, max_n + 1) for p in range(1, n)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(min(jobs, os.cpu_count() or 1)) as pool:
            partials = list(pool.map(_sweep_block, tasks))
    else:
        partials = [_sweep_block(t) for t in tasks]
    report = SweepReport(max_n, max_w, 0, 0, Counter(), [])
    for tested, invariant, counts, bad in partials:
        report.graphs_tested += tested
        report.invariant_count += invariant
        report.per_family_counts.update(counts)
        report.counterexamples.extend(bad)
    report.counterexamples.sort(key=lambda d: sorted(d["graph"]["edges"]))
    return report


def search_graph_matching_grid(
    grid: WeightGrid, max_w: int
) -> tuple[RootedWeightedGraph | None, int]:
    """Scan all block graphs of the grid's shape for one with equal parking.

    Uses an exact prefilter: all maximal parking functions of a graph share
    the entry sum W - n, so a grid whose maximal sums are not exactly that
    one value can never agree; survivors get the full comparison. Returns
    the first match (None if none) and the number of graphs scanned.
    """
    increasing = increasing_maximal_pairs(grid)
    sums = {sum(a + b) for a, b in increasing}
    n = grid.p + grid.q
    one_sum = len(sums) == 1
    tested = 0
    for edges, _, total, _ in _block_leaves(grid.p, grid.q, max_w):
        tested += 1
        if not one_sum or total - n not in sums:
            continue
        g = RootedWeightedGraph(n, tuple(edges), grid.p, grid.q)
        if _matches_grid(set(enumerate_mpf(g)), grid.p, increasing):
            return g, tested
    return None, tested

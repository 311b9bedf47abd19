"""Rooted edge-weighted graphs and structural queries.

A graph here is always loopless and undirected, with vertices labeled 0..n
where 0 is the root. Parallel edges are never materialized: the multigraph
is stored as a simple graph whose positive integer edge weights count
multiplicities. An optional bipartition splits the non-root vertices into a
first block A = {1..p} and a second block B = {p+1..p+q}; the labels are
the convention, so changing the blocks means relabeling the graph.

Besides construction and validation the module answers the structural
questions the classification asks: weights into a subset, cut vertices and
the root's side of a vertex, induced subgraphs, quotients and relabelings,
recognizers for the named families, and the matcher of the invariance
cases. The matcher plans an edge pattern once (_case_plan): each case its
structure leaves open is one check, made where that structure is settled.
A check's weight condition is data, slots of named groups of edge
positions that must each carry one weight, and one routine,
_groups_plan, reads every check's slots; _read_cases calls the reads.
match_theorem61, matching_invariant_cases and recognize_family plan and
read one graph, recognize_family through the same tree and side slots;
the classification sweep plans each pattern once and reads every
weighting of it. One table of the five bands of a complete block graph
serves both case iii's matcher and its builder, graph_from_affine_u. The
searches run on per-vertex neighbour bitmasks and take edges and masks
rather than a graph, because classify's block-graph generator keeps those
masks at each leaf and asks the same questions before it builds one. For
the same reason a graph's incidence, each vertex's (neighbour, edge
position) pairs that Dhar's burn reads, names positions rather than
weights: _incidence builds it from edges alone, and the sweep builds it
once per edge pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BipartitionMissing,
    Disconnected,
    DuplicateEdge,
    InvalidParameters,
    LoopEdge,
    NonPositiveWeight,
    NotAPartition,
    RootMissing,
    ShapeMismatch,
    TooLarge,
    VertexNotInU,
    VertexOutOfRange,
)

Edge = tuple[int, int, int]

ROOT = 0

_MAX_AFFINE_EDGES = 1_000_000


def _check_ints(values: Iterable, what: str) -> None:
    """Raise ShapeMismatch at the first value that is not an int, bool too.

    build_graph refuses bool edge entries in the same way.
    """
    for x in values:
        if type(x) is not int:
            raise ShapeMismatch(f"{what} {x!r} is not an integer")


@dataclass(frozen=True)
class RootedWeightedGraph:
    """Immutable rooted graph with positive integer edge weights.

    Attributes:
        n: number of non-root vertices; the vertex set is {0, 1, .., n}.
        edges: sorted tuple of (i, j, w) with i < j and w >= 1.
        p: size of block A = {1..p}, or None when no bipartition is set.
        q: size of block B = {p+1..p+q}, or None when no bipartition is set.
    """

    n: int
    edges: tuple[Edge, ...]
    p: int | None = None
    q: int | None = None

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return _incidence(self.n, self.edges)

    @property
    def vertices(self) -> range:
        return range(self.n + 1)

    @cached_property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """v's (neighbour, weight) pairs, in edge order."""
        edges = self.edges
        return tuple((u, edges[k][2]) for u, k in self.incidence[v])

    @property
    def has_bipartition(self) -> bool:
        return self.p is not None

    @property
    def block_a(self) -> frozenset[int]:
        self.require_bipartition()
        return frozenset(range(1, self.p + 1))

    @property
    def block_b(self) -> frozenset[int]:
        self.require_bipartition()
        return frozenset(range(self.p + 1, self.n + 1))

    def require_bipartition(self) -> None:
        if not self.has_bipartition:
            raise BipartitionMissing(
                "operation needs a graph with designated blocks A and B"
            )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p or 0,
            "q": self.q or 0,
            "edges": [[i, j, w] for i, j, w in self.edges],
        }


def build_graph(
    n: int,
    edges: Iterable[Sequence[int]],
    *,
    p: int | None = None,
    q: int | None = None,
    require_connected: bool = True,
) -> RootedWeightedGraph:
    """Validate and build a rooted weighted graph.

    Args:
        n: number of non-root vertices, an int (bool excluded).
        edges: tuples or lists of three ints (i, j, w), bool excluded; order
            of endpoints does not matter.
        p, q: optional block sizes, ints; both or neither must be given.
        require_connected: reject graphs not connected to the root.

    Raises:
        VertexOutOfRange, LoopEdge, DuplicateEdge, NonPositiveWeight,
        Disconnected, ShapeMismatch.
    """
    _check_ints((n,), "vertex count")
    if n < 0:
        raise VertexOutOfRange(f"vertex count {n} is negative")
    normalized: dict[tuple[int, int], int] = {}
    for entry in edges:
        if not isinstance(entry, (tuple, list)) or list(map(type, entry)) != [int] * 3:
            raise ShapeMismatch(f"edge {entry!r} is not three integers (i, j, w)")
        i, j, w = entry
        if not (0 <= i <= n) or not (0 <= j <= n):
            raise VertexOutOfRange(f"edge ({i}, {j}) leaves the range 0..{n}")
        if i == j:
            raise LoopEdge(f"loop at vertex {i}")
        if i > j:
            i, j = j, i
        if (i, j) in normalized:
            raise DuplicateEdge(
                f"edge ({i}, {j}) listed twice; encode multiplicity in the weight"
            )
        if w <= 0:
            raise NonPositiveWeight(
                f"edge ({i}, {j}) has weight {w}; omit absent edges instead"
            )
        normalized[(i, j)] = w
    edge_tuple = tuple(sorted((i, j, w) for (i, j), w in normalized.items()))
    if (p is None) != (q is None):
        raise ShapeMismatch("block sizes p and q must be given together")
    if p is not None:
        _check_ints((p, q), "block size")
    if p is not None and (p < 0 or q < 0 or p + q != n):
        raise ShapeMismatch(
            f"blocks of sizes {p} and {q} do not cover {n} non-root vertices"
        )
    g = RootedWeightedGraph(n, edge_tuple, p, q)
    # a connected graph on n + 1 vertices has at least n edges; counting them
    # first spares is_connected's per-vertex lists on a huge empty header
    if require_connected and (len(edge_tuple) < n or not is_connected(g)):
        raise Disconnected("graph does not connect all vertices to the root")
    return g


def _masks(n: int, edges: Iterable[Sequence[int]]) -> list[int]:
    """Each vertex's neighbour bitmask, read from edges (i, j) or (i, j, w)."""
    nbrs = [0] * (n + 1)
    for edge in edges:
        i, j = edge[0], edge[1]  # indexing is cheaper than starred unpacking
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i
    return nbrs


def _incidence(
    n: int, edges: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each vertex's (neighbour, position in edges) pairs, a tuple per vertex.

    The pairs name no weight, so one incidence serves every weighting of an
    edge pattern. Sorted edges with i < j meet each vertex's smaller
    neighbours in order and then its larger ones: no row needs sorting.
    """
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for k, edge in enumerate(edges):
        i, j = edge[0], edge[1]
        rows[i].append((j, k))
        rows[j].append((i, k))
    return tuple(map(tuple, rows))


def _reach(nbrs: Sequence[int], seen: int = 1, start: int = 1) -> int:
    """Bitmask of the vertices that a search from the bitmask start reaches.

    nbrs[v] is v's neighbour bitmask. The bitmask seen, which holds start,
    counts as reached before the search starts, so the search never passes
    through its other vertices. By default the search runs from the root.
    """
    reach, frontier = seen, start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~reach
        reach |= step
    return reach


def _root_side_edges(
    edges: Sequence[Edge], v: int, nbrs: Sequence[int]
) -> list[int] | None:
    """Positions in edges of non-root v's edges into R, the root's component of g - v.

    g is the connected graph with these edges and nbrs is _masks(g.n, edges).
    None when v is no cut vertex, so that R is every other vertex. v is no
    cut vertex when each of its neighbours is the root or adjacent to it,
    and then R is not searched.
    """
    if (nbrs[v] & ~nbrs[ROOT]) > 1:
        side = _reach(nbrs, 1 | 1 << v)
        if side != (1 << len(nbrs)) - 1:
            return [
                k
                for k, (i, j, _) in enumerate(edges)
                if v in (i, j) and side >> i + j - v & 1
            ]
    return None


def is_connected(g: RootedWeightedGraph) -> bool:
    return _reach(_masks(g.n, g.edges)) == (1 << (g.n + 1)) - 1


def d_U(g: RootedWeightedGraph, U: Iterable[int], i: int) -> int:
    """Total weight of edges from i to vertices outside U.

    U must be a non-empty subset of the non-root vertices and contain i.
    """
    subset = frozenset(U)
    _check_ints((i, *subset), "vertex")
    for v in subset:
        if not (1 <= v <= g.n):
            raise VertexOutOfRange(f"subset member {v} is not a non-root vertex")
    if i not in subset:
        raise VertexNotInU(f"vertex {i} is not in the queried subset")
    return sum(w for u, w in g.neighbors(i) if u not in subset)


def cut_vertices(g: RootedWeightedGraph) -> frozenset[int]:
    """Non-root vertices whose removal disconnects the rest of the graph."""
    nbrs = _masks(g.n, g.edges)
    full = (1 << len(nbrs)) - 1
    return frozenset(v for v in range(1, g.n + 1) if _reach(nbrs, 1 | 1 << v) != full)


def _relabeled(
    g: RootedWeightedGraph, label: dict[int, int], n: int, p=None, q=None
) -> RootedWeightedGraph:
    """The image of g under the vertex map label: vertices 0..n, blocks p, q.

    An edge with an end outside label, or with both ends on one label, is
    dropped; edges landing on one pair add their weights. g is valid, so its
    image is too: build_graph's checks are not run again.
    """
    merged: dict[tuple[int, int], int] = {}
    for i, j, w in g.edges:
        a, b = label.get(i), label.get(j)
        if a is None or b is None or a == b:
            continue
        pair = (a, b) if a < b else (b, a)
        merged[pair] = merged.get(pair, 0) + w
    edges = sorted((a, b, w) for (a, b), w in merged.items())
    return RootedWeightedGraph(n, tuple(edges), p, q)


def induced_subgraph(
    g: RootedWeightedGraph, S: Iterable[int]
) -> tuple[RootedWeightedGraph, dict[int, int]]:
    """Induced subgraph on a root-containing selection, relabeled to convention.

    The selection is packed in increasing label order. A = 1..p precedes B,
    so on a bipartitioned graph the selected A-vertices become 1..m and the
    selected B-vertices m+1..m+k. Returns the subgraph and the old-to-new
    relabeling map. Connectivity is not enforced.
    """
    sel = frozenset(S)
    if ROOT not in sel:
        raise RootMissing("induced subgraph must contain the root")
    _check_ints(sel, "selection member")
    for v in sel:
        if not (0 <= v <= g.n):
            raise VertexOutOfRange(f"selection member {v} is not a vertex")
    n = len(sel) - 1
    new_p = len(sel & g.block_a) if g.has_bipartition else None
    new_q = None if new_p is None else n - new_p
    mapping = {v: idx for idx, v in enumerate(sorted(sel))}
    return _relabeled(g, mapping, n, new_p, new_q), mapping


def quotient_graph(
    g: RootedWeightedGraph, blocks: Iterable[Iterable[int]]
) -> RootedWeightedGraph:
    """Contract each block to one vertex, summing weights of parallel images.

    Blocks must partition the vertex set. The block containing the root maps
    to 0 and the remaining blocks are ordered by their smallest member.
    Edges inside a block disappear. The result carries no bipartition.
    """
    block_list = [frozenset(b) for b in blocks]
    if any(not b for b in block_list):
        raise NotAPartition("empty block")
    flat: list[int] = [v for b in block_list for v in b]
    _check_ints(flat, "block member")
    if len(flat) != len(set(flat)) or set(flat) != set(g.vertices):
        raise NotAPartition("blocks must cover every vertex exactly once")
    root_block = next(b for b in block_list if ROOT in b)
    others = sorted((b for b in block_list if b is not root_block), key=min)
    label = {v: idx for idx, b in enumerate([root_block, *others]) for v in b}
    return _relabeled(g, label, len(others))


def swap_blocks(g: RootedWeightedGraph) -> RootedWeightedGraph:
    """Exchange the two blocks, relabeling so the old B becomes 1..q.

    The split is g's own, so none of relabel_for_blocks' checks are run.
    """
    g.require_bipartition()
    order = [ROOT, *range(g.p + 1, g.n + 1), *range(1, g.p + 1)]
    return _relabeled(g, dict(zip(order, g.vertices)), g.n, g.q, g.p)


def relabel_for_blocks(
    g: RootedWeightedGraph, block_a: Iterable[int], block_b: Iterable[int]
) -> tuple[RootedWeightedGraph, dict[int, int]]:
    """Relabel an arbitrary block split onto the 1..p / p+1..p+q convention.

    Returns the relabeled graph and the old-to-new vertex map.
    """
    blocks = list(block_a), list(block_b)
    _check_ints(itertools.chain(*blocks), "block member")
    a_sorted, b_sorted = map(sorted, blocks)
    for block in (a_sorted, b_sorted):
        for v, w in zip(block, block[1:]):
            if v == w:
                raise NotAPartition(f"vertex {v} is listed twice in one block")
    if set(a_sorted) & set(b_sorted):
        raise NotAPartition("blocks overlap")
    if set(a_sorted) | set(b_sorted) != set(range(1, g.n + 1)):
        raise NotAPartition("blocks must cover the non-root vertices")
    mapping = {v: idx for idx, v in enumerate([ROOT, *a_sorted, *b_sorted])}
    return _relabeled(g, mapping, g.n, len(a_sorted), len(b_sorted)), mapping


# ---------------------------------------------------------------------------
# family recognition


@dataclass(frozen=True)
class FamilyTag:
    """Structural family of a graph.

    kind is one of "uniform_tree", "uniform_star", "uniform_path",
    "uniform_cycle", "banded_complete", "two_weight_tree", "invariant_case",
    "unclassified". For "invariant_case" the case field names one case of the
    block-invariance classification ("i.a" .. "vi"). params holds the family
    parameters; values are ints except for shape descriptors.
    """

    kind: str
    case: str | None = None
    params: tuple[tuple[str, int | str], ...] = ()
    swapped: bool = False

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case,
            "params": {k: v for k, v in self.params},
            "swapped": self.swapped,
        }


def _params(*groups: dict) -> tuple[tuple[str, int | str], ...]:
    """The items of each group in turn, keys sorted within a group, not across."""
    return tuple(kv for group in groups for kv in sorted(group.items()))


# a slot's alternatives (fixed, bands), read by _groups_plan
_Slot = list[tuple[dict, dict]]


def _uniform_at(weights: Sequence[int], at: Iterable[int]) -> int | None:
    """The one weight at the positions at, 0 when at is empty, else None."""
    values = {weights[k] for k in at}
    return None if len(values) > 1 else max(values, default=0)


def _groups_plan(*slots: _Slot) -> Callable[[Sequence[int]], list | None]:
    """The read of a weighting, by position, as one parameter group per slot
    in slot order, or None.

    A slot lists its alternatives (fixed, bands) in order of preference:
    fixed maps parameter names to values, and bands maps names to the
    positions that must share one weight, read as 0 when empty. A slot's
    group is fixed plus its bands' weights, from its first alternative
    whose bands each carry one weight; the read is None when some slot has
    no such alternative.
    """

    def read(weights: Sequence[int]) -> list | None:
        groups = []
        for alternatives in slots:
            for fixed, bands in alternatives:
                group = dict(fixed)
                for name, at in bands.items():
                    group[name] = weight = _uniform_at(weights, at)
                    if weight is None:
                        break
                else:
                    groups.append(group)
                    break
            else:
                return None
        return groups

    return read


def _tree_plan(pairs: Sequence[tuple[int, int]], nbrs: list[int], p: int) -> _Slot:
    """The slot of the bands of the tree with these pairs, neighbour masks
    nbrs and A = 1..p: {"a": a, "b": b} when its parent edges (each vertex's
    one edge to the root's component of the tree less that vertex) enter A
    with weight a and B with weight b, 0 for an empty block.
    """
    up = []
    for v in range(1, len(nbrs)):
        side = _reach(nbrs, 1 | 1 << v)
        up += [
            k for k, (i, j) in enumerate(pairs) if v in (i, j) and side >> i + j - v & 1
        ]
    return [({}, {"a": up[:p], "b": up[p:]})]


def _is_cycle_on(nbrs: list[int], verts: int) -> bool:
    """Whether the subgraph induced on the vertex bitmask verts is one cycle:
    three or more vertices, two neighbours each inside verts, and connected.
    """
    inner = [(nbrs[v] & verts).bit_count() for v in range(len(nbrs)) if verts >> v & 1]
    if len(inner) < 3 or set(inner) != {2}:
        return False
    start, full = verts & -verts, (1 << len(nbrs)) - 1
    return _reach(nbrs, full ^ verts | start, start) == full


def _band_table(p: int, q: int) -> dict[str, tuple[int, Iterator[tuple[int, int]]]]:
    """Each band of a complete graph on blocks p and q: (pair count, pairs).

    a joins the root to A, b lies inside A, c joins A to B, d lies inside B
    and e joins the root to B. The pairs are lazy iterators that make each
    pair as it is read, so the counts cost nothing on blocks of any size.
    """
    A, B = range(1, p + 1), range(p + 1, p + q + 1)
    return {
        "a": (p, ((ROOT, v) for v in A)),
        "b": (p * (p - 1) // 2, ((u, v) for u in A for v in range(u + 1, A.stop))),
        "c": (p * q, ((u, v) for u in A for v in B)),
        "d": (q * (q - 1) // 2, ((u, v) for u in B for v in range(u + 1, B.stop))),
        "e": (q, ((ROOT, v) for v in B)),
    }


def graph_from_affine_u(
    p: int,
    q: int,
    *,
    a: int,
    b: int,
    c: int,
    cprime: int,
    d: int,
    e: int,
) -> RootedWeightedGraph:
    """The graph whose parking pairs match an affine grid, when one exists.

    Symmetric cross coefficients c = cprime > 0 give a complete graph on
    five bands (root to A: a, inside A: b, across: c, inside B: d, root to
    B: e; zero bands mean absent edges; a and e must not both vanish), the
    graphs of case iii. c = cprime = 0 gives two banded complete graphs
    merged at the root, and needs a, e >= 1. Distinct cross coefficients are
    refused, although some such grids do have a graph with the same parking
    set. A graph of more than _MAX_AFFINE_EDGES edges raises TooLarge before
    any edge is built.
    """
    _check_ints((p, q), "block size")
    _check_ints((a, b, c, cprime, d, e), "affine coefficient")
    if min(p, q) < 1:
        raise InvalidParameters("both block sizes must be at least 1")
    if min(a, b, c, cprime, d, e) < 0:
        raise InvalidParameters("band weights must be non-negative")
    if c != cprime:
        raise InvalidParameters(
            f"only equal cross coefficients are built, got c={c}, cprime={cprime}"
        )
    if c == 0:
        if a < 1 or e < 1:
            raise InvalidParameters("independent sides need positive root bands")
    elif a == 0 and e == 0:
        raise InvalidParameters("the root needs at least one positive band")
    weights = {"a": a, "b": b, "c": c, "d": d, "e": e}
    bands = {name: band for name, band in _band_table(p, q).items() if weights[name]}
    size = sum(count for count, _ in bands.values())
    if size > _MAX_AFFINE_EDGES:
        raise TooLarge(
            f"affine graph on blocks ({p}, {q}) has {size} edges; "
            f"guarded at {_MAX_AFFINE_EDGES}"
        )
    edges = [(u, v, weights[name]) for name in bands for u, v in bands[name][1]]
    return build_graph(p + q, edges, p=p, q=q)


def _census(
    pairs: Sequence[tuple[int, int]], p: int
) -> tuple[dict[str, list[int]], list[list[int]]]:
    """One pass over the pairs (i, j), i < j, with A = 1..p and B the vertices above p.

    Returns the positions in pairs of each band (the names of _band_table)
    and, for each vertex of {0} | A, the positions of its edges into B.
    """
    bands: dict[str, list[int]] = {name: [] for name in "abcde"}
    into_b: list[list[int]] = [[] for _ in range(p + 1)]
    for k, (i, j) in enumerate(pairs):
        if j <= p:
            bands["b" if i else "a"].append(k)
        elif i > p:
            bands["d"].append(k)
        else:
            bands["c" if i else "e"].append(k)
            into_b[i].append(k)
    return bands, into_b


def _side_plan(
    nbrs: list[int], root: int, others: int, spokes: list, rim: list, names: tuple
) -> _Slot:
    """The slot that reads the subgraph induced on root and the vertex
    bitmask others: no alternative when it is neither a cycle nor complete.

    spokes holds the positions of root's edges into others, rim those of the
    edges inside others, and nbrs the graph's neighbour bitmasks. names =
    (shape, first, second) names the group's keys. A cycle of one weight
    reads first, as shape "cycle" with its weight as first and 0 as second;
    then a complete side (root joins every vertex of others and every pair
    inside others is an edge; a lone leaf has no inner pair), as shape
    "complete" with its spokes' one weight as first and its inner pairs'
    as second.
    """
    shape, first, second = names
    k = others.bit_count()
    alternatives = []
    # a cycle on k + 1 vertices has k + 1 edges
    if len(spokes) + len(rim) == k + 1 and _is_cycle_on(nbrs, others | 1 << root):
        alternatives.append(({shape: "cycle", second: 0}, {first: spokes + rim}))
    if len(spokes) == k and len(rim) == k * (k - 1) // 2:
        alternatives.append(({shape: "complete"}, {first: spokes, second: rim}))
    return alternatives


_A_SIDE, _B_SIDE = ("a_shape", "a", "b"), ("b_shape", "c", "d")


def _labeling_plan(
    p: int, q: int, pairs: Sequence[tuple[int, int]], swapped: bool
) -> list[tuple]:
    """The checks of the cases that one labeling's structure leaves open.

    pairs lists the edges (i, j), i < j, of a graph on A = 1..p and B =
    p+1..p+q, in any order. A check is (case, swapped, read), in case order:
    read maps a weighting, by position in pairs, to the case's parameter
    groups, or to a falsy value. The structure is settled once, where each
    read is made (connectivity, the band positions, the cycle and side
    shapes, the tree's parent edges, the attachments), and a read checks
    only weights: each is a _groups_plan over the case's slots, and i.b /
    i.c's also asks that a differ from the rest. No slot list is changed
    after its read is made, so a kept plan reads every weighting of its
    pattern. An empty block or a disconnected graph leaves no case open.
    """
    n = p + q
    full = (1 << (n + 1)) - 1
    nbrs = _masks(n, pairs)
    checks: list[tuple] = []
    if p == 0 or q == 0 or _reach(nbrs) != full:
        return checks
    b_bits = full ^ ((1 << (p + 1)) - 1)
    bands, into_b = _census(pairs, p)
    # the root's A-edges, and the edges meeting B; with p <= 2 the two lists
    # hold every edge but the chord {1, 2}
    root_a, chord, inner_b = bands["a"], bands["b"], bands["d"]
    meet_b = bands["c"] + inner_b + bands["e"]

    def check(case: str, *slots: _Slot) -> None:
        checks.append((case, swapped, _groups_plan(*slots)))

    # cases i.a / i.b / i.c: the whole graph is one cycle; in i.b (p = 1) and
    # i.c (p = 2) the root joins all of A with one weight, the rest another
    if len(pairs) == n + 1 and _is_cycle_on(nbrs, full):
        check("i.a", [({}, {"a": range(n + 1)})])
        if p <= 2 and len(root_a) == p:
            marked = _groups_plan([({}, {"a": root_a, "b": meet_b})])

            def marked_cycle(weights: Sequence[int]) -> list | None:
                groups = marked(weights)
                return groups and groups[0]["a"] != groups[0]["b"] and groups

            checks.append(("i.b" if p == 1 else "i.c", swapped, marked_cycle))

    # case ii: two first-block vertices, both joined to the root, and a full
    # cycle plus the chord {1, 2}, the one pair of band b
    if len(pairs) == n + 2 and p == 2 and len(root_a) == 2 and chord:
        chordless = [nbrs[0], nbrs[1] ^ 1 << 2, nbrs[2] ^ 1 << 1, *nbrs[3:]]
        if _is_cycle_on(chordless, full):
            check("ii", [({}, {"a": root_a, "b": chord, "c": meet_b})])

    # case iii: complete up to absent bands, constant weight per band
    table = _band_table(p, q)
    if bands["a"] and bands["c"]:
        if all(len(at) in (0, table[name][0]) for name, at in bands.items()):
            check("iii", [({}, bands)])

    # cases iv.a / iv.b: first side is a cycle or complete, second side hangs
    # off a limited attachment set: one vertex carrying a tree, cycle or
    # complete side (iv.a, a tree read first), or several carrying a uniform
    # forest (iv.b). The edges meeting B hang a tree off {0} | A exactly when
    # there are q of them, since merging {0} | A into one vertex keeps the
    # graph connected.
    side_a = _side_plan(nbrs, ROOT, full ^ b_bits ^ 1, root_a, chord, _A_SIDE)
    tree = [({"b_shape": "tree", "d": 0}, {"c": meet_b})] if len(meet_b) == q else []
    if side_a:
        attach = [v for v in range(p + 1) if into_b[v]]
        if len(attach) == 1:
            hub = attach[0]
            second = tree + _side_plan(nbrs, hub, b_bits, into_b[hub], inner_b, _B_SIDE)
            if second:
                at_hub = [({**fixed, "attachment": hub}, at) for fixed, at in second]
                check("iv.a", side_a, at_hub)
        elif tree:
            joined = ",".join(map(str, attach))
            forest = {"attachments": joined, "b_shape": "forest"}
            check("iv.b", side_a, [(forest, {"c": meet_b})])

    # case v: a cycle or complete second side on one vertex i that the root
    # reaches inside {0} | A; every other edge, at least one of them inside
    # {0} | A, hangs a uniform tree off {i} | B, so there are p of them; the
    # first such i whose weights read is the one reported
    inside = root_a + chord
    if inside:
        reached = _reach(nbrs, b_bits | 1)
        hangs = []
        for i in (i for i in range(p + 1) if reached >> i & 1):
            hanging = inside + [k for v in range(p + 1) if v != i for k in into_b[v]]
            if len(hanging) == p:
                a_side = {"a_shape": "forest", "attachment": i}
                side_b = _side_plan(nbrs, i, b_bits, into_b[i], inner_b, _B_SIDE)
                hangs += [
                    ({**a_side, **fixed}, {"a": hanging, **at}) for fixed, at in side_b
                ]
        if hangs:
            check("v", hangs)

    # case vi: a tree entering the first block with one weight, the second
    # block with another
    if len(pairs) == n:
        check("vi", _tree_plan(pairs, nbrs, p))
    return checks


def _case_plan(p: int, q: int, pairs: Sequence[tuple[int, int]]) -> list[tuple]:
    """match_theorem61's checks on blocks p and q, both non-empty, for these pairs.

    The case list is stated for a root touching the first block, but a root
    touching both blocks can realize a case in either labeling (a cycle
    whose one odd edge meets the root on the second side, for instance), so
    each labeling whose root condition holds is planned. The swapped one is
    swap_blocks' labeling, B as 1..q and A as q+1..q+p, with its pairs kept
    in the graph's edge order, so that one weighting reads both labelings.
    The case names i.a .. vi sort in case order, so the checks are sorted by
    name, then unswapped first.
    """
    ends = [j for i, j in pairs if i == ROOT]
    plan = []
    if any(j <= p for j in ends):
        plan += _labeling_plan(p, q, pairs, False)
    if any(j > p for j in ends):
        label = [ROOT, *range(q + 1, p + q + 1), *range(1, q + 1)]
        flipped = [tuple(sorted((label[i], label[j]))) for i, j in pairs]
        plan += _labeling_plan(q, p, flipped, True)
    plan.sort(key=lambda check: check[:2])
    return plan


def _read_cases(plan: list[tuple], weights: Sequence[int]) -> Iterator[FamilyTag]:
    """The tags of the plan's checks that a weighting meets, in the plan's order.

    weights[k] is the weight of the k-th pair the plan was built from. Each
    check's read returns its case's parameter groups when the weights meet
    the case. The tags are made one at a time, so a caller that wants the
    lowest case reads only up to it.
    """
    for case, swapped, read in plan:
        groups = read(weights)
        if groups:
            yield FamilyTag("invariant_case", case, _params(*groups), swapped)


def matching_invariant_cases(g: RootedWeightedGraph) -> list[FamilyTag]:
    """All cases of the invariance classification matching the graph as labeled.

    The graph must carry a bipartition; an empty block or a disconnected
    graph matches no case. Matching is purely structural, with no root
    condition and no block swap; match_theorem61 checks both, planning each
    labeling the root touches itself (_case_plan), and no library code
    calls this function. It plans g's own labeling (_labeling_plan) and
    reads g's weights against it (_read_cases). The cases are tried in case
    order, i.a to vi, which is also the order their names sort in, so the
    results come sorted by case.
    """
    g.require_bipartition()
    plan = _labeling_plan(g.p, g.q, [e[:2] for e in g.edges], False)
    return list(_read_cases(plan, [w for _, _, w in g.edges]))


def match_theorem61(g: RootedWeightedGraph) -> list[FamilyTag]:
    """All structural cases the graph matches, lowest case first.

    The structure of g's pattern is planned once for each labeling the root
    touches (_case_plan), and g's weights are read against that plan
    (_read_cases); the sweep reads each weighting of a pattern against one
    plan in the same way. Tags found under the swapped labeling describe
    the graph with the blocks exchanged, as on swap_blocks(g), and are
    marked swapped=True. The tags are sorted by case name, which is case
    order, then unswapped first.
    """
    g.require_bipartition()
    if g.p == 0 or g.q == 0:
        raise BipartitionMissing("matching needs both blocks non-empty")
    plan = _case_plan(g.p, g.q, [e[:2] for e in g.edges])
    return list(_read_cases(plan, [w for _, _, w in g.edges]))


def recognize_family(g: RootedWeightedGraph) -> FamilyTag:
    """Most specific structural family of the graph.

    Uniform trees refine to stars (every edge at the root) and paths (no
    vertex of degree above two); non-uniform trees on a
    bipartition may be two-weight trees; cycles and banded complete graphs
    come next, then the lowest case match_theorem61 finds, and
    "unclassified" as the fallback. The uniform tree test is
    _uniform_at over every edge; the tree bands and the cycle or complete
    test are the matcher's own slots, made by _tree_plan and _side_plan
    from g's structure and read on g's weights by _groups_plan.
    """
    pairs, weights = [e[:2] for e in g.edges], [w for _, _, w in g.edges]
    nbrs, full = _masks(g.n, g.edges), (1 << (g.n + 1)) - 1
    if len(g.edges) == g.n and _reach(nbrs) == full:
        a = _uniform_at(weights, range(g.n))
        if a:  # 0 only on the root alone, which is no uniform tree
            if all(i == ROOT for i, _ in pairs):
                family = "uniform_star"
            elif max(map(int.bit_count, nbrs)) <= 2:
                family = "uniform_path"
            else:
                family = "uniform_tree"
            return FamilyTag(family, params=_params({"a": a}))
        if g.has_bipartition:
            bands = _groups_plan(_tree_plan(pairs, nbrs, g.p))(weights)
            if bands:
                return FamilyTag("two_weight_tree", params=_params(*bands))
    # a uniform cycle through every vertex, else a banded complete graph
    at = _census(pairs, g.n)[0]
    slot = _side_plan(nbrs, ROOT, full - 1, at["a"], at["b"], ("shape", "a", "b"))
    side = _groups_plan(slot)(weights)
    if side and side[0]["shape"] == "cycle":
        return FamilyTag("uniform_cycle", params=_params({"a": side[0]["a"]}))
    if side and g.n >= 2:
        bands = {k: side[0][k] for k in "ab"}
        return FamilyTag("banded_complete", params=_params(bands))
    if g.has_bipartition and g.p and g.q:
        cases = match_theorem61(g)
        if cases:
            return cases[0]
    return FamilyTag("unclassified")


# ---------------------------------------------------------------------------
# text interchange format


def parse_graph_text(text: str) -> RootedWeightedGraph:
    """Parse the line format: header "n p q", then one "i j w" line per edge.

    '#' starts a comment; blank lines are skipped. p = q = 0 declares no
    bipartition.
    """
    rows: list[list[int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            row = [int(x) for x in line.split()]
        except ValueError:
            row = []
        if len(row) != 3:
            raise ShapeMismatch(f"expected three integers per line, got {raw!r}")
        rows.append(row)
    if not rows:
        raise ShapeMismatch("empty graph description")
    n, p, q = rows[0]
    if p == 0 and q == 0:
        return build_graph(n, rows[1:])
    if p + q != n:
        raise ShapeMismatch(f"blocks {p}+{q} do not cover {n} non-root vertices")
    return build_graph(n, rows[1:], p=p, q=q)


def format_graph_text(g: RootedWeightedGraph) -> str:
    """Canonical text serialization: header line, then edges in sorted order."""
    lines = [f"{g.n} {g.p or 0} {g.q or 0}"]
    lines.extend(f"{i} {j} {w}" for i, j, w in g.edges)
    return "\n".join(lines) + "\n"

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
recognizers for the named families, the matcher of the invariance cases,
and match_theorem61, the one route from a graph to its cases. One table
of the five bands of a complete block graph serves both case iii's
matcher and its builder, graph_from_affine_u. The searches
run on per-vertex neighbour bitmasks and take edges and masks rather than a
graph, because classify's block-graph generator keeps those masks at each
leaf and asks the same questions before it builds one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # edges are sorted with i < j, so each vertex meets its smaller
        # neighbours in order and then its larger ones: no list needs sorting
        nbrs: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for i, j, w in self.edges:
            nbrs[i].append((j, w))
            nbrs[j].append((i, w))
        return tuple(map(tuple, nbrs))

    @property
    def vertices(self) -> range:
        return range(self.n + 1)

    @cached_property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        return self.adjacency[v]

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


def _masks(g: RootedWeightedGraph) -> list[int]:
    """Each vertex's neighbour bitmask, read from g.edges."""
    nbrs = [0] * (g.n + 1)
    for i, j, _ in g.edges:
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i
    return nbrs


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

    g is the connected graph with these edges and nbrs is _masks(g).
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
    return _reach(_masks(g)) == (1 << (g.n + 1)) - 1


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
    nbrs = _masks(g)
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


def uniform_weight(weights: Iterable[int]) -> int | None:
    values = set(weights)
    if len(values) == 1:
        return values.pop()
    return None


def two_weight_tree_bands(g: RootedWeightedGraph) -> tuple[int, int] | None:
    """Bands (a, b) of a tree whose root-away edges enter A with weight a, B with b.

    Every non-root vertex v has one parent edge on the path toward the root,
    the only edge joining v to the root's component of g - v. The A-entering
    weights must agree, as must the B-entering weights. A block with no
    vertices reports band 0.
    """
    g.require_bipartition()
    nbrs = _masks(g)
    if len(g.edges) != g.n or _reach(nbrs) != (1 << (g.n + 1)) - 1:
        return None
    return _tree_bands(g, nbrs)


def _tree_bands(g: RootedWeightedGraph, nbrs: list[int]) -> tuple[int, int] | None:
    """two_weight_tree_bands of g, a tree with blocks and neighbour masks nbrs."""
    parent = []
    for v in range(1, g.n + 1):
        at = _root_side_edges(g.edges, v, nbrs)
        # in a tree a vertex that cuts nothing is a leaf: its one edge counts
        parent.append(sum(g.edges[k][2] for k in at) if at else g.adjacency[v][0][1])
    a = uniform_weight(parent[: g.p]) if g.p else 0
    b = uniform_weight(parent[g.p :]) if g.q else 0
    if a is None or b is None:
        return None
    return a, b


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
    g: RootedWeightedGraph, p: int
) -> tuple[dict[str, list[int]], list[list[int]]]:
    """One pass over g.edges with A = 1..p and B the vertices above p.

    Returns the weights of each band (the names of _band_table) and, for
    each vertex of {0} | A, the weights of its edges into B.
    """
    bands: dict[str, list[int]] = {name: [] for name in "abcde"}
    into_b: list[list[int]] = [[] for _ in range(p + 1)]
    for i, j, w in g.edges:
        if j <= p:
            bands["b" if i else "a"].append(w)
        elif i > p:
            bands["d"].append(w)
        else:
            bands["c" if i else "e"].append(w)
            into_b[i].append(w)
    return bands, into_b


def _full_band(weights: list[int], pairs: int) -> int | None:
    """Uniform weight of a band of this many pairs, 0 when absent, else None."""
    if not weights:
        return 0
    return uniform_weight(weights) if len(weights) == pairs else None


def _side_family(
    nbrs: list[int], root: int, others: int, spokes: list[int], rim: list[int]
) -> tuple[str, int, int] | None:
    """Family of the subgraph induced on root and the vertex bitmask others.

    spokes holds the weights of root's edges into others, rim those of the
    edges inside others, and nbrs the graph's neighbour bitmasks. Returns
    (shape, first_band, second_band) where shape is "cycle" or "complete";
    a cycle reports its uniform weight as first_band and 0 as second_band.
    """
    k = others.bit_count()
    # a cycle on k + 1 vertices has k + 1 edges
    if len(spokes) + len(rim) == k + 1 and _is_cycle_on(nbrs, others | 1 << root):
        weight = uniform_weight(spokes + rim)
        if weight is not None:
            return "cycle", weight, 0
    a = _full_band(spokes, k)
    b = _full_band(rim, k * (k - 1) // 2)
    # a lone leaf has no inner pairs; otherwise every inner pair is an edge
    if a and (b or k == 1):
        return "complete", a, b
    return None


def matching_invariant_cases(g: RootedWeightedGraph) -> list[FamilyTag]:
    """All cases of the invariance classification matching the graph as labeled.

    The graph must carry a bipartition; an empty block or a disconnected
    graph matches no case. Matching is purely structural, with no root
    condition and no block swap: callers reach it through match_theorem61,
    which adds both. The cases are tried in case order, i.a to vi, which is
    also the order their names sort in, so the results come sorted by case.
    """
    g.require_bipartition()
    tags: list[FamilyTag] = []
    nbrs = _masks(g)
    full = (1 << (g.n + 1)) - 1
    if g.p == 0 or g.q == 0 or _reach(nbrs) != full:
        return tags
    p, q, n = g.p, g.q, g.n
    b_bits = full ^ ((1 << (p + 1)) - 1)
    bands, into_b = _census(g, p)

    def side_b(i: int) -> tuple[str, int, int] | None:
        return _side_family(nbrs, i, b_bits, into_b[i], bands["d"])

    def add(case: str, *groups: dict) -> None:
        # iv.a and iv.b list the first side's keys before the second side's
        tags.append(FamilyTag("invariant_case", case, _params(*groups)))

    # the root's A-edges, and the edges meeting B; with p <= 2 the two lists
    # hold every edge but the chord {1, 2}
    root_a = bands["a"]
    a = uniform_weight(root_a)
    meet_b = bands["c"] + bands["d"] + bands["e"]
    rest = uniform_weight(meet_b)

    # cases i.a / i.b / i.c: the whole graph is one cycle; in i.b (p = 1) and
    # i.c (p = 2) the root joins all of A with one weight, the rest another
    if len(g.edges) == n + 1 and _is_cycle_on(nbrs, full):
        uniform = uniform_weight(w for _, _, w in g.edges)
        if uniform is not None:
            add("i.a", {"a": uniform})
        one_each = None not in (a, rest) and a != rest
        if p <= 2 and len(root_a) == p and one_each:
            add("i.b" if p == 1 else "i.c", {"a": a, "b": rest})

    # case ii: two first-block vertices, both joined to the root, and a full
    # cycle plus the chord {1, 2}, the one pair of band b
    chord = bands["b"]
    ii_shape = len(g.edges) == n + 2 and p == 2 and len(root_a) == 2 and chord
    if ii_shape and None not in (a, rest):
        chordless = [nbrs[0], nbrs[1] ^ 1 << 2, nbrs[2] ^ 1 << 1, *nbrs[3:]]
        if _is_cycle_on(chordless, full):
            add("ii", {"a": a, "b": chord[0], "c": rest})

    # case iii: complete up to absent bands, constant weight per band
    table = _band_table(p, q)
    banded = {name: _full_band(bands[name], table[name][0]) for name in bands}
    if None not in banded.values() and banded["a"] >= 1 and banded["c"] >= 1:
        add("iii", banded)

    # cases iv.a / iv.b: first side is a cycle or complete, second side hangs
    # off a limited attachment set: one vertex carrying a tree, cycle or
    # complete side (iv.a), or several carrying a uniform forest (iv.b). The
    # edges meeting B hang a tree off {0} | A exactly when there are q of
    # them, since merging {0} | A into one vertex keeps the graph connected.
    ga = _side_family(nbrs, ROOT, full ^ b_bits ^ 1, root_a, chord)
    if ga is not None:
        side_a = dict(zip(("a_shape", "a", "b"), ga))
        attach = [v for v in range(p + 1) if into_b[v]]
        tree = rest if len(meet_b) == q else None
        if len(attach) == 1:
            side = ("tree", tree, 0) if tree else side_b(attach[0])
            if side is not None:
                params_b = dict(zip(("b_shape", "c", "d"), side))
                add("iv.a", side_a, {"attachment": attach[0], **params_b})
        elif tree:
            joined = ",".join(map(str, attach))
            params_b = {"attachments": joined, "b_shape": "forest", "c": tree}
            add("iv.b", side_a, params_b)

    # case v: a cycle or complete second side on one vertex i that the root
    # reaches inside {0} | A; every other edge, at least one of them inside
    # {0} | A, hangs a uniform tree off {i} | B, so there are p of them
    inside = root_a + chord
    if inside:
        reached = _reach(nbrs, b_bits | 1)
        for i in (i for i in range(p + 1) if reached >> i & 1):
            hanging = inside + [w for v in range(p + 1) if v != i for w in into_b[v]]
            a_weight = uniform_weight(hanging) if len(hanging) == p else None
            side = side_b(i) if a_weight else None
            if side is not None:
                side_a = {"a_shape": "forest", "a": a_weight, "attachment": i}
                add("v", {**side_a, **dict(zip(("b_shape", "c", "d"), side))})
                break

    # case vi: a tree entering the first block with one weight, the second
    # block with another
    tree_bands = _tree_bands(g, nbrs) if len(g.edges) == n else None
    if tree_bands is not None:
        add("vi", {"a": tree_bands[0], "b": tree_bands[1]})
    return tags


def match_theorem61(g: RootedWeightedGraph) -> list[FamilyTag]:
    """All structural cases the graph matches, lowest case first.

    The case list is stated for a root touching the first block, but a root
    touching both blocks can realize a case in either labeling (a cycle
    whose one odd edge meets the root on the second side, for instance), so
    both labelings are matched whenever their root condition holds. Tags
    found under the swapped labeling, on swap_blocks(g), describe the graph
    with the blocks exchanged and are marked swapped=True as they are made.
    The case names i.a .. vi sort in case order, so the tags are sorted by
    name, then unswapped first.
    """
    g.require_bipartition()
    if g.p == 0 or g.q == 0:
        raise BipartitionMissing("matching needs both blocks non-empty")
    tags: list[FamilyTag] = []
    ends = [j for i, j, _ in g.edges if i == ROOT]
    touches_a = any(j <= g.p for j in ends)
    touches_b = any(j > g.p for j in ends)
    if touches_a:
        tags.extend(matching_invariant_cases(g))
    if touches_b:
        flipped = matching_invariant_cases(swap_blocks(g))
        tags.extend(FamilyTag(t.kind, t.case, t.params, True) for t in flipped)
    tags.sort(key=lambda t: (t.case, t.swapped))
    return tags


def recognize_family(g: RootedWeightedGraph) -> FamilyTag:
    """Most specific structural family of the graph.

    Uniform trees refine to stars (every edge at the root) and paths (no
    vertex of degree above two); non-uniform trees on a
    bipartition may be two-weight trees; cycles and banded complete graphs
    come next, then the lowest case match_theorem61 finds, and
    "unclassified" as the fallback.
    """
    nbrs = _masks(g)
    if len(g.edges) == g.n and _reach(nbrs) == (1 << (g.n + 1)) - 1:
        a = uniform_weight(w for _, _, w in g.edges)
        if a is not None:  # a uniform tree has an edge, so n >= 1
            if all(i == ROOT for i, _, _ in g.edges):
                family = "uniform_star"
            elif max(map(len, g.adjacency)) <= 2:
                family = "uniform_path"
            else:
                family = "uniform_tree"
            return FamilyTag(family, params=_params({"a": a}))
        if g.has_bipartition:
            bands = _tree_bands(g, nbrs)
            if bands is not None:
                params = _params(dict(zip("ab", bands)))
                return FamilyTag("two_weight_tree", params=params)
    # a uniform cycle through every vertex, else a banded complete graph
    bands = _census(g, g.n)[0]
    others = (1 << (g.n + 1)) - 2
    side = _side_family(nbrs, ROOT, others, bands["a"], bands["b"])
    if side is not None and side[0] == "cycle":
        return FamilyTag("uniform_cycle", params=_params({"a": side[1]}))
    if side is not None and g.n >= 2:
        return FamilyTag("banded_complete", params=_params(dict(zip("ab", side[1:]))))
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

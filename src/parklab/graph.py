"""Rooted edge-weighted graphs and structural queries.

A graph here is always loopless and undirected, with vertices labeled 0..n
where 0 is the root. Parallel edges are never materialized: the multigraph
is stored as a simple graph whose positive integer edge weights count
multiplicities. An optional bipartition splits the non-root vertices into a
first block A = {1..p} and a second block B = {p+1..p+q}; the labels are
the convention, so changing the blocks means relabeling the graph.

Besides construction and validation this module provides the structural
queries the classification needs: weighted out-degrees into a subset, cut
vertices, induced subgraphs, quotients by vertex partitions, and
recognizers for the named families (uniform trees, cycles, banded complete
graphs, two-weight trees, and each case of the invariance classification).
Each structure (tree, forest, cycle, rooted complete graph) has exactly
one recognizer, which looks at part of the graph; whole-graph checks pass
every vertex. Connectivity has one routine too: a reachability search
restricted to a vertex subset. It decides is_connected (which build_graph
and the block-graph generator call), cut_vertices, vertex_on_cycle and the
tree, cycle and forest recognizers, and gives two-weight trees their
parent edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BipartitionMissing,
    Disconnected,
    DuplicateEdge,
    LoopEdge,
    NonPositiveWeight,
    NotAPartition,
    RootMissing,
    ShapeMismatch,
    VertexNotInU,
    VertexOutOfRange,
)

Edge = tuple[int, int, int]

ROOT = 0


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
    def weight_map(self) -> dict[tuple[int, int], int]:
        return {(i, j): w for i, j, w in self.edges}

    @cached_property
    def adjacency(self) -> dict[int, tuple[tuple[int, int], ...]]:
        nbrs: dict[int, list[tuple[int, int]]] = {v: [] for v in self.vertices}
        for i, j, w in self.edges:
            nbrs[i].append((j, w))
            nbrs[j].append((i, w))
        return {v: tuple(sorted(lst)) for v, lst in nbrs.items()}

    @property
    def vertices(self) -> range:
        return range(self.n + 1)

    @cached_property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    def weight(self, i: int, j: int) -> int:
        """Weight of edge {i, j}, or 0 when the edge is absent."""
        if i > j:
            i, j = j, i
        return self.weight_map.get((i, j), 0)

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        return self.adjacency[v]

    def simple_degree(self, v: int) -> int:
        return len(self.adjacency[v])

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

    def with_bipartition(self, p: int, q: int) -> "RootedWeightedGraph":
        if p < 0 or q < 0 or p + q != self.n:
            raise ShapeMismatch(
                f"blocks of sizes {p} and {q} do not cover {self.n} non-root vertices"
            )
        return RootedWeightedGraph(self.n, self.edges, p, q)

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
        n: number of non-root vertices.
        edges: triples (i, j, w); order of endpoints does not matter.
        p, q: optional block sizes; both or neither must be given.
        require_connected: reject graphs not connected to the root.

    Raises:
        VertexOutOfRange, LoopEdge, DuplicateEdge, NonPositiveWeight,
        Disconnected, ShapeMismatch.
    """
    if n < 0:
        raise VertexOutOfRange(f"vertex count {n} is negative")
    normalized: dict[tuple[int, int], int] = {}
    for entry in edges:
        i, j, w = int(entry[0]), int(entry[1]), int(entry[2])
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
    g = RootedWeightedGraph(n, edge_tuple)
    if p is not None:
        g = g.with_bipartition(p, q)
    if require_connected and not is_connected(g):
        raise Disconnected("graph does not connect all vertices to the root")
    return g


def _reach(
    g: RootedWeightedGraph, start: int, allowed: frozenset[int] | None = None
) -> dict[int, int]:
    """Vertices reachable from start through allowed vertices (all when None).

    Each maps to the weight of the edge the search first reached it by (0 for
    start); on a tree that is the edge toward start.
    """
    seen = {start: 0}
    stack = [start]
    while stack:
        v = stack.pop()
        for u, w in g.neighbors(v):
            if u not in seen and (allowed is None or u in allowed):
                seen[u] = w
                stack.append(u)
    return seen


def is_connected(g: RootedWeightedGraph) -> bool:
    return len(_reach(g, ROOT)) == g.n + 1


def d_U(g: RootedWeightedGraph, U: Iterable[int], i: int) -> int:
    """Total weight of edges from i to vertices outside U.

    U must be a non-empty subset of the non-root vertices and contain i.
    """
    subset = frozenset(U)
    for v in subset:
        if not (1 <= v <= g.n):
            raise VertexOutOfRange(f"subset member {v} is not a non-root vertex")
    if i not in subset:
        raise VertexNotInU(f"vertex {i} is not in the queried subset")
    return sum(w for u, w in g.neighbors(i) if u not in subset)


def _connected_within(g: RootedWeightedGraph, verts: frozenset[int]) -> bool:
    """Whether the induced subgraph on verts is connected (verts non-empty)."""
    return len(_reach(g, next(iter(verts)), verts)) == len(verts)


def cut_vertices(g: RootedWeightedGraph) -> frozenset[int]:
    """Non-root vertices whose removal disconnects the rest of the graph."""
    cuts = set()
    all_verts = frozenset(g.vertices)
    for v in range(1, g.n + 1):
        rest = all_verts - {v}
        if rest and not _connected_within(g, rest):
            cuts.add(v)
    return frozenset(cuts)


def vertex_on_cycle(g: RootedWeightedGraph, v: int) -> bool:
    """Whether some cycle of the graph passes through v."""
    nbrs = [u for u, _ in g.neighbors(v)]
    rest = frozenset(g.vertices) - {v}
    # a and b connected while avoiding v closes a cycle through v
    return any(
        b in _reach(g, a, rest) for a, b in itertools.combinations(nbrs, 2)
    )


def induced_subgraph(
    g: RootedWeightedGraph, S: Iterable[int]
) -> tuple[RootedWeightedGraph, dict[int, int]]:
    """Induced subgraph on a root-containing selection, relabeled to convention.

    Block members keep their relative order: A-vertices of the selection become
    1..m, B-vertices m+1..m+k when the graph is bipartitioned, otherwise the
    non-root selection is packed in increasing label order. Returns the
    subgraph and the old-to-new relabeling map. Connectivity is not enforced.
    """
    sel = frozenset(S)
    if ROOT not in sel:
        raise RootMissing("induced subgraph must contain the root")
    for v in sel:
        if not (0 <= v <= g.n):
            raise VertexOutOfRange(f"selection member {v} is not a vertex")
    if g.has_bipartition:
        first = sorted(sel & g.block_a)
        second = sorted(sel & g.block_b)
        new_p, new_q = len(first), len(second)
    else:
        first = sorted(sel - {ROOT})
        second = []
        new_p = new_q = None
    mapping = {ROOT: ROOT}
    for idx, v in enumerate(first + second, start=1):
        mapping[v] = idx
    new_edges = [
        (mapping[i], mapping[j], w)
        for i, j, w in g.edges
        if i in sel and j in sel
    ]
    sub = build_graph(
        len(sel) - 1, new_edges, p=new_p, q=new_q, require_connected=False
    )
    return sub, mapping


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
    if len(flat) != len(set(flat)) or set(flat) != set(g.vertices):
        raise NotAPartition("blocks must cover every vertex exactly once")
    root_block = next(b for b in block_list if ROOT in b)
    others = sorted((b for b in block_list if b is not root_block), key=min)
    label: dict[int, int] = {}
    for v in root_block:
        label[v] = ROOT
    for idx, b in enumerate(others, start=1):
        for v in b:
            label[v] = idx
    merged: dict[tuple[int, int], int] = {}
    for i, j, w in g.edges:
        a, b = label[i], label[j]
        if a == b:
            continue
        if a > b:
            a, b = b, a
        merged[(a, b)] = merged.get((a, b), 0) + w
    return build_graph(
        len(others),
        [(i, j, w) for (i, j), w in merged.items()],
        require_connected=False,
    )


def swap_blocks(g: RootedWeightedGraph) -> RootedWeightedGraph:
    """Exchange the two blocks, relabeling so the old B becomes 1..q."""
    g.require_bipartition()
    p, q = g.p, g.q
    mapping = {ROOT: ROOT}
    for v in range(p + 1, p + q + 1):
        mapping[v] = v - p
    for v in range(1, p + 1):
        mapping[v] = v + q
    edges = [(mapping[i], mapping[j], w) for i, j, w in g.edges]
    return build_graph(g.n, edges, p=q, q=p, require_connected=False)


def relabel_for_blocks(
    g: RootedWeightedGraph, block_a: Iterable[int], block_b: Iterable[int]
) -> tuple[RootedWeightedGraph, dict[int, int]]:
    """Relabel an arbitrary block split onto the 1..p / p+1..p+q convention.

    Returns the relabeled graph and the old-to-new vertex map.
    """
    a_sorted = sorted(set(block_a))
    b_sorted = sorted(set(block_b))
    if set(a_sorted) & set(b_sorted):
        raise NotAPartition("blocks overlap")
    if set(a_sorted) | set(b_sorted) != set(range(1, g.n + 1)):
        raise NotAPartition("blocks must cover the non-root vertices")
    mapping = {ROOT: ROOT}
    for idx, v in enumerate(a_sorted + b_sorted, start=1):
        mapping[v] = idx
    edges = [(mapping[i], mapping[j], w) for i, j, w in g.edges]
    out = build_graph(
        g.n, edges, p=len(a_sorted), q=len(b_sorted), require_connected=False
    )
    return out, mapping


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

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case,
            "params": {k: v for k, v in self.params},
            "swapped": self.swapped,
        }


CASE_ORDER = ("i.a", "i.b", "i.c", "ii", "iii", "iv.a", "iv.b", "v", "vi")


def _params(**kwargs) -> tuple[tuple[str, int | str], ...]:
    return tuple(sorted(kwargs.items()))


def uniform_weight(weights: Iterable[int]) -> int | None:
    values = set(weights)
    if len(values) == 1:
        return values.pop()
    return None


def is_tree(g: RootedWeightedGraph) -> bool:
    return _is_tree_on(g, frozenset(g.vertices))


def is_cycle_graph(g: RootedWeightedGraph) -> bool:
    """One cycle through every vertex."""
    return _is_cycle_on(g, frozenset(g.vertices))


def is_star_graph(g: RootedWeightedGraph) -> bool:
    """Tree with the root as the internal vertex."""
    return is_tree(g) and all(i == ROOT for i, _, _ in g.edges) and g.n >= 1


def is_path_graph(g: RootedWeightedGraph) -> bool:
    if not is_tree(g) or g.n == 0:
        return False
    degs = sorted(g.simple_degree(v) for v in g.vertices)
    return degs[-1] <= 2


def two_weight_tree_bands(g: RootedWeightedGraph) -> tuple[int, int] | None:
    """Bands (a, b) of a tree whose root-away edges enter A with weight a, B with b.

    Every non-root vertex has one parent edge on the path toward the root; the
    A-entering weights must agree, as must the B-entering weights. A block with
    no vertices reports band 0.
    """
    g.require_bipartition()
    if not is_tree(g):
        return None
    parent_weight = _reach(g, ROOT)
    a = uniform_weight(parent_weight[v] for v in g.block_a) if g.p else 0
    b = uniform_weight(parent_weight[v] for v in g.block_b) if g.q else 0
    if a is None or b is None:
        return None
    return a, b


def _induced_edges(g: RootedWeightedGraph, verts: frozenset[int]):
    # verts is a vertex subset, so at full size it is every vertex
    if len(verts) == g.n + 1:
        return g.edges
    return [(i, j, w) for i, j, w in g.edges if i in verts and j in verts]


def _is_tree_on(g: RootedWeightedGraph, verts: frozenset[int]) -> bool:
    """Whether the subgraph induced on verts is a tree."""
    edges = _induced_edges(g, verts)
    return len(edges) == len(verts) - 1 and _connected_within(g, verts)


def _forest_components(
    g: RootedWeightedGraph, members: frozenset[int], edges: Sequence[Edge]
) -> list[frozenset[int]] | None:
    """Components of the forest edges form on members, or None on a cycle."""
    forest = RootedWeightedGraph(g.n, tuple(edges))
    comps: list[frozenset[int]] = []
    for v in sorted(members):
        if not any(v in comp for comp in comps):
            comps.append(frozenset(_reach(forest, v, members)))
    return comps if len(edges) == len(members) - len(comps) else None


def _is_cycle_on(g: RootedWeightedGraph, verts: frozenset[int]) -> bool:
    """Whether the subgraph induced on verts is one cycle through all of them."""
    if len(verts) < 3:
        return False
    edges = _induced_edges(g, verts)
    if len(edges) != len(verts):
        return False
    degree = dict.fromkeys(verts, 0)
    for i, j, _ in edges:
        degree[i] += 1
        degree[j] += 1
    return all(d == 2 for d in degree.values()) and _connected_within(g, verts)


def _rooted_complete_on(
    g: RootedWeightedGraph, root: int, leaves: frozenset[int]
) -> tuple[int, int] | None:
    """Bands (root_band, inner_band) of a complete graph on {root} | leaves."""
    if not leaves:
        return None
    root_weights = [g.weight(root, v) for v in leaves]
    if 0 in root_weights:
        return None
    a = uniform_weight(root_weights)
    if a is None:
        return None
    inner = [g.weight(u, v) for u, v in itertools.combinations(sorted(leaves), 2)]
    if not inner:
        return a, 0
    if 0 in inner:
        return None
    b = uniform_weight(inner)
    if b is None:
        return None
    return a, b


def _band_weights(g, left: Iterable[int], right: Iterable[int]) -> list[int]:
    return [g.weight(u, v) for u in left for v in right]


def _uniform_band(values: list[int]) -> int | None:
    """Uniform positive band weight, 0 for an entirely absent band, else None."""
    if not values:
        return 0
    if all(v == 0 for v in values):
        return 0
    if 0 in values:
        return None
    return uniform_weight(values)


def _side_family(
    g: RootedWeightedGraph, root: int, others: frozenset[int], allow_tree: bool
) -> tuple[str, int, int] | None:
    """Family of the induced subgraph on {root} | others.

    Returns (shape, first_band, second_band) where shape is "tree", "cycle",
    or "complete"; trees and cycles report their uniform weight as first_band
    and 0 as second_band.
    """
    verts = others | {root}
    tree = allow_tree and _is_tree_on(g, verts)
    if tree or _is_cycle_on(g, verts):
        weight = uniform_weight(w for _, _, w in _induced_edges(g, verts))
        if weight is not None:
            return ("tree" if tree else "cycle"), weight, 0
    bands = _rooted_complete_on(g, root, others)
    if bands is not None:
        return "complete", bands[0], bands[1]
    return None


def matching_invariant_cases(g: RootedWeightedGraph) -> list[FamilyTag]:
    """All cases of the invariance classification matching the graph as labeled.

    The graph must carry a bipartition with both blocks non-empty. Matching is
    purely structural; the caller is responsible for block swapping when the
    root touches only the second block. Results are ordered by case.
    """
    g.require_bipartition()
    tags: list[FamilyTag] = []
    if g.p == 0 or g.q == 0:
        return tags
    A, B = g.block_a, g.block_b

    # cases i.a / i.b / i.c: the whole graph is one cycle
    if is_cycle_graph(g):
        uniform = uniform_weight(w for _, _, w in g.edges)
        if uniform is not None:
            tags.append(
                FamilyTag("invariant_case", "i.a", _params(a=uniform))
            )
        if g.p == 1 and g.weight(ROOT, 1):
            a = g.weight(ROOT, 1)
            rest = uniform_weight(
                w for i, j, w in g.edges if (i, j) != (ROOT, 1)
            )
            if rest is not None and rest != a:
                tags.append(
                    FamilyTag("invariant_case", "i.b", _params(a=a, b=rest))
                )
        if g.p == 2 and g.weight(ROOT, 1) and g.weight(ROOT, 2):
            a = uniform_weight([g.weight(ROOT, 1), g.weight(ROOT, 2)])
            rest = uniform_weight(
                w for i, j, w in g.edges if i != ROOT
            )
            if a is not None and rest is not None and rest != a:
                tags.append(
                    FamilyTag("invariant_case", "i.c", _params(a=a, b=rest))
                )

    # case ii: two first-block vertices, a full cycle plus the chord {1, 2}
    if g.p == 2 and g.weight(1, 2):
        chordless = [(i, j, w) for i, j, w in g.edges if (i, j) != (1, 2)]
        base = RootedWeightedGraph(g.n, tuple(chordless))
        if is_cycle_graph(base):
            root_a = [w for i, j, w in g.edges if i == ROOT and j in A]
            a = uniform_weight(root_a) if root_a else None
            b = g.weight(1, 2)
            others = [
                w
                for i, j, w in g.edges
                if not (i == ROOT and j in A) and (i, j) != (1, 2)
            ]
            c = uniform_weight(others) if others else None
            if a is not None and c is not None:
                tags.append(
                    FamilyTag("invariant_case", "ii", _params(a=a, b=b, c=c))
                )

    # case iii: complete up to absent bands, constant weight per band
    a_band = _uniform_band(_band_weights(g, [ROOT], A))
    b_band = _uniform_band(
        [g.weight(u, v) for u, v in itertools.combinations(sorted(A), 2)]
    )
    c_band = _uniform_band(_band_weights(g, A, B))
    d_band = _uniform_band(
        [g.weight(u, v) for u, v in itertools.combinations(sorted(B), 2)]
    )
    e_band = _uniform_band(_band_weights(g, [ROOT], B))
    bands = (a_band, b_band, c_band, d_band, e_band)
    if None not in bands and a_band >= 1 and c_band >= 1:
        tags.append(
            FamilyTag(
                "invariant_case",
                "iii",
                _params(a=a_band, b=b_band, c=c_band, d=d_band, e=e_band),
            )
        )

    # cases iv.a / iv.b: first side is a cycle or complete, second side hangs
    # off a limited attachment set
    ga = _side_family(g, ROOT, A, allow_tree=False)
    if ga is not None:
        attach = sorted(
            v
            for v in itertools.chain([ROOT], sorted(A))
            if any(u in B for u, _ in g.neighbors(v))
        )
        shape_a, band1, band2 = ga
        base = _params(
            a_shape=shape_a, a=band1, b=band2
        )
        if len(attach) == 1:
            i = attach[0]
            side = _side_family(g, i, B, allow_tree=True)
            if side is not None:
                shape_b, c, d = side
                tags.append(
                    FamilyTag(
                        "invariant_case",
                        "iv.a",
                        base
                        + _params(attachment=i, b_shape=shape_b, c=c, d=d),
                    )
                )
        elif len(attach) > 1:
            cross = [
                (i, j, w) for i, j, w in g.edges if i in B or j in B
            ]
            comps = _forest_components(g, B | set(attach), cross)
            # forest of trees hanging each from a single attachment vertex:
            # a second attachment in one component would put a second-block
            # vertex on a cycle of the whole graph
            if comps is not None and all(
                len(comp.intersection(attach)) == 1 for comp in comps
            ):
                c = uniform_weight(w for _, _, w in cross)
                if c is not None:
                    tags.append(
                        FamilyTag(
                            "invariant_case",
                            "iv.b",
                            base
                            + _params(
                                attachments=",".join(map(str, attach)),
                                b_shape="forest",
                                c=c,
                            ),
                        )
                    )

    # case v: first side a uniform forest, one vertex of the root's component
    # carrying a cycle or complete second side, no cycle elsewhere
    ga_verts = A | {ROOT}
    forest_edges = _induced_edges(g, ga_verts)
    comps = _forest_components(g, ga_verts, forest_edges)
    a_weight = uniform_weight(w for _, _, w in forest_edges)
    if comps is not None and a_weight is not None:
        zero_comp = next(c for c in comps if ROOT in c)
        for i in sorted(zero_comp):
            side = _side_family(g, i, B, allow_tree=False)
            if side is None:
                continue
            if any(vertex_on_cycle(g, v) for v in sorted(ga_verts - {i})):
                continue
            shape_b, c, d = side
            tags.append(
                FamilyTag(
                    "invariant_case",
                    "v",
                    _params(
                        a_shape="forest",
                        a=a_weight,
                        attachment=i,
                        b_shape=shape_b,
                        c=c,
                        d=d,
                    ),
                )
            )
            break

    # case vi: a tree entering the first block with one weight, the second
    # block with another
    bands = two_weight_tree_bands(g)
    if bands is not None:
        tags.append(
            FamilyTag("invariant_case", "vi", _params(a=bands[0], b=bands[1]))
        )

    tags.sort(key=lambda t: CASE_ORDER.index(t.case))
    return tags


def recognize_family(g: RootedWeightedGraph) -> FamilyTag:
    """Most specific structural family of the graph.

    Uniform trees refine to stars and paths; non-uniform trees on a
    bipartition may be two-weight trees; cycles and banded complete graphs
    come next, then the lowest matching case of the invariance
    classification, and "unclassified" as the fallback.
    """
    if is_tree(g):
        a = uniform_weight(w for _, _, w in g.edges)
        if a is not None:
            if is_star_graph(g):
                return FamilyTag("uniform_star", params=_params(a=a))
            if is_path_graph(g):
                return FamilyTag("uniform_path", params=_params(a=a))
            return FamilyTag("uniform_tree", params=_params(a=a))
        if g.has_bipartition:
            bands = two_weight_tree_bands(g)
            if bands is not None:
                return FamilyTag(
                    "two_weight_tree", params=_params(a=bands[0], b=bands[1])
                )
    if is_cycle_graph(g):
        a = uniform_weight(w for _, _, w in g.edges)
        if a is not None:
            return FamilyTag("uniform_cycle", params=_params(a=a))
    bands = _rooted_complete_on(g, ROOT, frozenset(range(1, g.n + 1)))
    if bands is not None and g.n >= 2:
        return FamilyTag("banded_complete", params=_params(a=bands[0], b=bands[1]))
    if g.has_bipartition and g.p and g.q:
        cases = matching_invariant_cases(g)
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

"""Graph construction, structural queries, quotients, and recognizers."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from parklab import (
    build_graph,
    connected_block_graphs,
    cut_vertices,
    d_U,
    format_graph_text,
    graph_from_affine_u,
    induced_subgraph,
    is_g_pf_by_subsets,
    parse_graph_text,
    quotient_graph,
    recognize_family,
    relabel_for_blocks,
    swap_blocks,
)
from parklab.errors import (
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
from conftest import random_connected_graph


class TestBuildGraph:
    def test_single_edge_tree(self):
        g = build_graph(1, [(0, 1, 1)])
        assert g.n == 1
        assert g.edges == ((0, 1, 1),)

    def test_diamond_edge_count(self, diamond):
        assert diamond.n == 3
        assert len(diamond.edges) == 5

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            build_graph(2, [(0, 1, 1), (1, 1, 1), (1, 2, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph(2, [(0, 1, 1), (1, 0, 2), (1, 2, 1)])

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            build_graph(2, [(0, 1, 1), (1, 2, 0)])

    def test_isolated_vertex_rejected(self):
        with pytest.raises(Disconnected):
            build_graph(2, [(0, 1, 1)])

    def test_disconnected_allowed_when_flagged(self):
        g = build_graph(2, [(0, 1, 1)], require_connected=False)
        assert g.n == 2

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(2, [(0, 1, 1), (1, 3, 1)])

    def test_blocks_must_cover(self):
        with pytest.raises(ShapeMismatch):
            build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], p=1, q=1)

    def test_negative_vertex_count(self):
        with pytest.raises(VertexOutOfRange, match="vertex count -1 is negative"):
            build_graph(-1, [])

    def test_blocks_come_together(self):
        with pytest.raises(ShapeMismatch, match="must be given together"):
            build_graph(2, [(0, 1, 1), (1, 2, 1)], p=1)

    # a float weight was truncated, a bool read as 1, a pair raised IndexError
    @pytest.mark.parametrize("entry", [(0, 1, 1.5), (0, 1, True), (0, 1)])
    def test_entry_must_be_three_ints(self, entry):
        with pytest.raises(ShapeMismatch, match="not three integers"):
            build_graph(1, [entry])

    # fewer edges than non-root vertices cannot connect them: the header's
    # vertex count must not size any per-vertex list before that is seen
    @pytest.mark.parametrize(
        "edges, blocks",
        [([], {}), ([(0, 1, 1)], {}), ([], {"p": 1, "q": 10**12 - 1})],
    )
    def test_huge_header_with_few_edges_is_disconnected(self, edges, blocks):
        start = time.perf_counter()
        with pytest.raises(Disconnected, match="does not connect all vertices"):
            build_graph(10**12, edges, **blocks)
        assert time.perf_counter() - start < 1.0

    def test_few_edges_precede_no_other_error(self):
        with pytest.raises(VertexOutOfRange):
            build_graph(10**12, [(0, 10**12 + 1, 1)])
        with pytest.raises(ShapeMismatch, match="do not cover"):
            build_graph(10**12, [], p=1, q=1)


# the triangle's bands, which graph_from_affine_u builds on blocks (1, 1)
BANDS = {"a": 1, "b": 0, "c": 1, "cprime": 1, "d": 0, "e": 1}


class TestIntegerLabels:
    """Sizes and vertex labels are Python ints; ShapeMismatch names the first other."""

    TRIANGLE = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)], p=1, q=1)
    EDGES = [(0, 1, 1), (0, 2, 1)]

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda g, e: build_graph(2.0, e), "vertex count 2.0"),
            (lambda g, e: build_graph(2, e, p=True, q=1), "block size True"),
            (lambda g, e: build_graph(2, e, p=1.0, q=1.0), "block size 1.0"),
            (lambda g, e: d_U(g, [1.0], 1), "vertex 1.0"),
            (lambda g, e: d_U(g, [1], 1.0), "vertex 1.0"),
            (lambda g, e: induced_subgraph(g, [0, "1"]), "selection member '1'"),
            (lambda g, e: quotient_graph(g, [[0], [1.0], [2]]), "block member 1.0"),
            (lambda g, e: relabel_for_blocks(g, [1.0], [2]), "block member 1.0"),
            (lambda g, e: relabel_for_blocks(g, ["1"], [2]), "block member '1'"),
            (lambda g, e: graph_from_affine_u(2.0, 1, **BANDS), "block size 2.0"),
            (lambda g, e: graph_from_affine_u(1, False, **BANDS), "block size False"),
            (
                lambda g, e: graph_from_affine_u(1, 1, **{**BANDS, "a": 1.5}),
                "affine coefficient 1.5",
            ),
            (
                lambda g, e: graph_from_affine_u(1, 1, **{**BANDS, "cprime": "1"}),
                "affine coefficient '1'",
            ),
        ],
    )
    def test_a_non_int_is_a_shape_mismatch(self, call, named):
        with pytest.raises(ShapeMismatch) as caught:
            call(self.TRIANGLE, self.EDGES)
        assert str(caught.value) == f"{named} is not an integer"


class TestDU:
    def test_diamond_top_block(self, diamond):
        assert d_U(diamond, {1, 2, 3}, 1) == 2

    def test_diamond_far_vertex(self, diamond):
        assert d_U(diamond, {3}, 3) == 6

    def test_star_leaf(self):
        g = build_graph(3, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        for i in (1, 2, 3):
            assert d_U(g, {1, 2, 3}, i) == 1

    def test_vertex_must_lie_in_subset(self, diamond):
        with pytest.raises(VertexNotInU):
            d_U(diamond, {1, 2}, 3)

    def test_root_is_not_a_subset_member(self, diamond):
        with pytest.raises(VertexOutOfRange, match="member 0 is not a non-root"):
            d_U(diamond, {0}, 0)

    def test_singleton_gives_weighted_degree(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_graph(rng, 6, 4)
            for i in range(1, g.n + 1):
                expected = sum(w for u, w in g.neighbors(i))
                assert d_U(g, {i}, i) == expected


def edge_neighbors(g, v: int) -> list[tuple[int, int]]:
    """v's (neighbour, weight) pairs read straight off g.edges, in edge order."""
    return [(i + j - v, w) for i, j, w in g.edges if v in (i, j)]


class TestNeighbors:
    """neighbors and its readers agree with the edge list itself."""

    @staticmethod
    def graphs() -> list:
        rng = random.Random(44)
        return [random_connected_graph(rng, 6, 3) for _ in range(40)]

    def test_pairs_are_the_edges_in_edge_order(self):
        for g in self.graphs():
            for v in g.vertices:
                assert g.neighbors(v) == tuple(edge_neighbors(g, v)), g

    def test_d_u_and_the_subset_scan_read_the_edges(self):
        rng = random.Random(45)
        verdicts = set()
        for g in self.graphs():
            out = {}  # (U, i) -> weight from i to outside U, read off the edges
            for size in range(1, g.n + 1):
                for U in itertools.combinations(range(1, g.n + 1), size):
                    for i in U:
                        pairs = edge_neighbors(g, i)
                        out[U, i] = sum(w for u, w in pairs if u not in U)
                        assert d_U(g, U, i) == out[U, i], (g, U, i)
            for _ in range(10):
                b = tuple(rng.randint(0, 3) for _ in range(g.n))
                parks = all(
                    any(b[i - 1] < out[U, i] for i in U) for U, _ in out
                )
                assert is_g_pf_by_subsets(g, b) == parks, (g, b)
                verdicts.add(parks)
        assert verdicts == {False, True}


class TestCutVertices:
    def test_path_middle(self):
        g = build_graph(2, [(0, 1, 1), (1, 2, 1)])
        assert cut_vertices(g) == {1}

    def test_triangle_two_connected(self):
        g = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert cut_vertices(g) == set()

    def test_attachment_vertices(self, tree_with_clique):
        assert cut_vertices(tree_with_clique) == {1, 3}

    def test_disconnected_graph(self):
        # without 1 the root and 2 are apart; without 2 the root and 1 are
        # joined, although 1's neighbours are all the root
        g = build_graph(2, [(0, 1, 1)], require_connected=False)
        assert cut_vertices(g) == {1}


class TestInducedSubgraph:
    def test_identity(self, diamond):
        h, mapping = induced_subgraph(diamond, {0, 1, 2, 3})
        assert h.edges == diamond.edges
        assert mapping == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_clique_block(self, clique_fan):
        h, _ = induced_subgraph(clique_fan, {0, 1, 2, 3})
        assert h.n == 3
        assert len(h.edges) == 6
        assert {w for _, _, w in h.edges} == {1}

    def test_root_only(self, diamond):
        h, _ = induced_subgraph(diamond, {0})
        assert h.n == 0
        assert h.edges == ()

    def test_root_required(self, diamond):
        with pytest.raises(RootMissing):
            induced_subgraph(diamond, {1, 2})

    def test_selection_must_be_vertices(self, diamond):
        with pytest.raises(VertexOutOfRange, match="member 5 is not a vertex"):
            induced_subgraph(diamond, {0, 5})


class TestQuotientGraph:
    def test_clique_fan_collapse(self, clique_fan):
        blocks = [{0, 1, 2, 3}, {4}, {5}, {6}, {7}]
        quot = quotient_graph(clique_fan, blocks)
        assert quot.n == 4
        assert quot.edges == (
            (0, 1, 1), (0, 2, 3), (0, 3, 2), (1, 4, 1), (2, 3, 1), (3, 4, 1),
        )

    def test_singleton_blocks_identity(self, diamond):
        blocks = [{0}, {1}, {2}, {3}]
        quot = quotient_graph(diamond, blocks)
        assert quot.edges == diamond.edges

    def test_triangle_two_blocks(self):
        g = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        quot = quotient_graph(g, [{0, 1}, {2}])
        assert quot.edges == ((0, 1, 2),)

    def test_partition_must_cover(self, diamond):
        with pytest.raises(NotAPartition):
            quotient_graph(diamond, [{0, 1}, {2}])

    def test_empty_block_rejected(self, diamond):
        with pytest.raises(NotAPartition, match="empty block"):
            quotient_graph(diamond, [{0, 1}, {2, 3}, set()])

    def test_weight_conservation(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_connected_graph(rng, 6, 4)
            verts = list(range(g.n + 1))
            rng.shuffle(verts)
            cut = rng.randint(1, len(verts))
            blocks = [set(verts[:cut]), set(verts[cut:])]
            blocks = [b for b in blocks if b]
            quot = quotient_graph(g, blocks)
            intra = sum(
                w
                for i, j, w in g.edges
                if any(i in b and j in b for b in blocks)
            )
            total = sum(w for _, _, w in g.edges)
            assert sum(w for _, _, w in quot.edges) == total - intra


class TestRecognizeFamily:
    def test_uniform_star(self):
        g = build_graph(3, [(0, 1, 2), (0, 2, 2), (0, 3, 2)])
        tag = recognize_family(g)
        assert (tag.kind, dict(tag.params)["a"]) == ("uniform_star", 2)

    def test_uniform_path(self):
        g = build_graph(2, [(0, 1, 3), (1, 2, 3)])
        assert recognize_family(g).kind == "uniform_path"

    def test_uniform_tree(self):
        g = build_graph(
            4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1)]
        )
        assert recognize_family(g).kind == "uniform_tree"

    def test_uniform_cycle(self):
        g = build_graph(3, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 3, 2)])
        tag = recognize_family(g)
        assert (tag.kind, dict(tag.params)["a"]) == ("uniform_cycle", 2)

    def test_banded_complete(self):
        g = build_graph(
            3,
            [(0, 1, 2), (0, 2, 2), (0, 3, 2), (1, 2, 1), (1, 3, 1), (2, 3, 1)],
        )
        tag = recognize_family(g)
        assert tag.kind == "banded_complete"
        assert (dict(tag.params)["a"], dict(tag.params)["b"]) == (2, 1)

    def test_uniform_complete_is_banded(self):
        g = build_graph(
            3,
            [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)],
        )
        tag = recognize_family(g)
        assert tag.kind == "banded_complete"
        assert (dict(tag.params)["a"], dict(tag.params)["b"]) == (1, 1)

    def test_two_weight_tree(self):
        g = build_graph(
            3, [(0, 1, 2), (1, 2, 2), (1, 3, 1)], p=2, q=1
        )
        tag = recognize_family(g)
        assert tag.kind == "two_weight_tree"
        assert (dict(tag.params)["a"], dict(tag.params)["b"]) == (2, 1)

    def test_unclassified(self):
        g = build_graph(
            2, [(0, 1, 1), (0, 2, 2), (1, 2, 3)]
        )
        assert recognize_family(g).kind == "unclassified"

    def test_round_trip_uniform_trees(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 7)
            a = rng.randint(1, 4)
            edges = [
                (rng.randrange(v), v, a) for v in range(1, n + 1)
            ]
            tag = recognize_family(build_graph(n, edges))
            assert tag.kind in {"uniform_tree", "uniform_star", "uniform_path"}
            assert dict(tag.params)["a"] == a


class TestBlockRelabeling:
    def test_relabel_for_blocks(self, diamond):
        g, mapping = relabel_for_blocks(diamond, [1, 3], [2])
        assert (g.p, g.q) == (2, 1)
        assert mapping == {0: 0, 1: 1, 3: 2, 2: 3}

    def test_relabel_rejects_overlap(self, diamond):
        with pytest.raises(NotAPartition):
            relabel_for_blocks(diamond, [1, 2], [2, 3])

    def test_relabel_rejects_a_label_listed_twice(self, diamond):
        with pytest.raises(NotAPartition, match="vertex 2 is listed twice"):
            relabel_for_blocks(diamond, [1, 3], [2, 2])

    def test_relabel_blocks_must_cover(self, diamond):
        with pytest.raises(NotAPartition, match="must cover"):
            relabel_for_blocks(diamond, [1], [2])

    def test_swap_blocks_round_trip(self, diamond_split):
        twice = swap_blocks(swap_blocks(diamond_split))
        assert twice.edges == diamond_split.edges
        assert (twice.p, twice.q) == (diamond_split.p, diamond_split.q)


def set_partitions(items: list[int]):
    """Every partition of items into non-empty blocks, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first], *partition]
        for k in range(len(partition)):
            yield [*partition[:k], [first, *partition[k]], *partition[k + 1 :]]


def reference_induced_subgraph(g, S):
    """Remap the edges inside S by hand and revalidate through build_graph."""
    sel = frozenset(S)
    if g.has_bipartition:
        first, second = sorted(sel & g.block_a), sorted(sel & g.block_b)
        new_p, new_q = len(first), len(second)
    else:
        first, second, new_p, new_q = sorted(sel - {0}), [], None, None
    mapping = {0: 0}
    for idx, v in enumerate(first + second, start=1):
        mapping[v] = idx
    edges = [(mapping[i], mapping[j], w) for i, j, w in g.edges if {i, j} <= sel]
    sub = build_graph(len(sel) - 1, edges, p=new_p, q=new_q, require_connected=False)
    return sub, mapping


def reference_quotient_graph(g, blocks):
    """Merge parallel images by hand and revalidate through build_graph."""
    block_list = [frozenset(b) for b in blocks]
    root_block = next(b for b in block_list if 0 in b)
    others = sorted((b for b in block_list if b is not root_block), key=min)
    label = {v: 0 for v in root_block}
    for idx, b in enumerate(others, start=1):
        for v in b:
            label[v] = idx
    merged = {}
    for i, j, w in g.edges:
        a, b = sorted((label[i], label[j]))
        if a != b:
            merged[(a, b)] = merged.get((a, b), 0) + w
    edges = [(i, j, w) for (i, j), w in merged.items()]
    return build_graph(len(others), edges, require_connected=False)


def reference_relabel_for_blocks(g, block_a, block_b):
    """Rename every vertex by hand and revalidate through build_graph."""
    a_sorted, b_sorted = sorted(block_a), sorted(block_b)
    mapping = {0: 0}
    for idx, v in enumerate(a_sorted + b_sorted, start=1):
        mapping[v] = idx
    edges = [(mapping[i], mapping[j], w) for i, j, w in g.edges]
    out = build_graph(
        g.n, edges, p=len(a_sorted), q=len(b_sorted), require_connected=False
    )
    return out, mapping


def subsets(items):
    return itertools.chain.from_iterable(
        itertools.combinations(items, k) for k in range(len(items) + 1)
    )


@pytest.fixture(scope="module")
def small_graphs():
    """Every block graph with n <= 3 and weights <= 2, then each without blocks."""
    block_graphs = [
        g
        for n in range(4)
        for p in range(n + 1)
        for g in connected_block_graphs(p, n - p, 2)
    ]
    assert len(block_graphs) == 1007  # 1,006 with n >= 1, and the root alone
    return block_graphs + [build_graph(g.n, g.edges) for g in block_graphs]


class TestVertexMapsAgainstReference:
    """The four vertex maps against hand remapping revalidated by build_graph."""

    def test_induced_subgraph(self, small_graphs):
        for g in small_graphs:
            for chosen in subsets(range(1, g.n + 1)):
                sel = {0, *chosen}
                assert induced_subgraph(g, sel) == reference_induced_subgraph(g, sel)

    def test_quotient_graph(self, small_graphs):
        for g in small_graphs:
            for blocks in set_partitions(list(g.vertices)):
                assert quotient_graph(g, blocks) == reference_quotient_graph(g, blocks)

    def test_relabel_for_blocks(self, small_graphs):
        for g in small_graphs:
            for chosen in subsets(range(1, g.n + 1)):
                # lists in decreasing order, so the maps must sort them
                first = sorted(chosen, reverse=True)
                second = sorted(set(range(1, g.n + 1)) - set(chosen), reverse=True)
                got = relabel_for_blocks(g, first, second)
                assert got == reference_relabel_for_blocks(g, first, second)

    def test_swap_blocks(self, small_graphs):
        for g in small_graphs:
            if g.has_bipartition:
                want = reference_relabel_for_blocks(g, g.block_b, g.block_a)[0]
                assert swap_blocks(g) == want

    def test_swap_blocks_needs_blocks(self, diamond):
        with pytest.raises(BipartitionMissing):
            swap_blocks(diamond)


class TestTextFormat:
    def test_round_trip(self, diamond_split):
        text = format_graph_text(diamond_split)
        again = parse_graph_text(text)
        assert again.edges == diamond_split.edges
        assert (again.p, again.q) == (2, 1)

    def test_comments_and_blanks(self):
        text = "# header\n3 0 0\n\n0 1 2  # root edge\n1 2 1\n1 3 3\n2 3 3\n0 2 2\n"
        g = parse_graph_text(text)
        assert len(g.edges) == 5
        assert not g.has_bipartition

    def test_non_integer_token_is_a_shape_error(self):
        with pytest.raises(ShapeMismatch):
            parse_graph_text("1 0 0\n0 1 x\n")

    def test_header_block_mismatch(self):
        with pytest.raises(ShapeMismatch):
            parse_graph_text("2 2 1\n0 1 1\n1 2 1\n")

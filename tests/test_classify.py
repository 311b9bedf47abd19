"""Tests for invariance testing, case matching, and the classification sweep."""

import hashlib
import json
from collections import Counter

import pytest

from parklab import (
    build_graph,
    check_lemma61,
    connected_block_graphs,
    construct_u_for_graph,
    cut_vertices,
    d_U,
    enumerate_mpf,
    graph_from_affine_u,
    grid_from_affine,
    grid_from_vectors,
    induced_subgraph,
    is_invariant,
    match_theorem61,
    quotient_graph,
    recognize_family,
    relabel_for_blocks,
    search_graph_matching_grid,
    sweep_classification,
    verify_equality,
    wedge,
)
from parklab.errors import (
    BipartitionMissing,
    InvalidParameters,
    NotClassified,
    ShapeMismatch,
)
from parklab import classify
from parklab.classify import _cycle_case_grid
from parklab.graph import is_connected

FOUR_CYCLE = build_graph(3, ((0, 2, 1), (1, 2, 1), (1, 3, 1), (0, 3, 2)), p=2, q=1)


def case_list(g) -> list[tuple[str, bool]]:
    return [(t.case, t.swapped) for t in match_theorem61(g)]


class TestIsInvariant:
    def test_diamond_with_twin_blocks(self, diamond_split) -> None:
        report = is_invariant(diamond_split)
        assert report.invariant and report.witness is None
        assert [t.case for t in report.family_matches] == ["ii", "iii"]

    def test_diamond_with_split_twins(self, diamond) -> None:
        skew, _ = relabel_for_blocks(diamond, [1, 3], [2])
        report = is_invariant(skew)
        assert not report.invariant
        element, missing = report.witness
        maximal = set(enumerate_mpf(skew))
        assert element in maximal and missing not in maximal
        assert sorted(element[:2]) == sorted(missing[:2])
        assert element[2:] == missing[2:]
        assert report.family_matches == ()

    def test_two_weight_tree(self) -> None:
        g = build_graph(4, ((0, 1, 2), (1, 2, 2), (0, 3, 1), (2, 4, 1)), p=2, q=2)
        report = is_invariant(g)
        assert report.invariant
        assert ("vi", False) in case_list(g)

    def test_one_sided_blocks(self) -> None:
        lopsided = build_graph(2, ((0, 1, 1), (1, 2, 2)), p=2, q=0)
        report = is_invariant(lopsided)
        assert not report.invariant and report.family_matches == ()

    def test_needs_designated_blocks(self, diamond) -> None:
        with pytest.raises(BipartitionMissing):
            is_invariant(diamond)

    def test_report_serialization(self, diamond_split) -> None:
        data = is_invariant(diamond_split).to_json()
        assert data["invariant"] is True and data["witness"] is None
        assert all("case" in t for t in data["family_matches"])
        json.dumps(data)


class TestMaximalSetSuffices:
    @pytest.mark.parametrize(
        "edges,p,q",
        [
            (((0, 1, 2), (0, 2, 2), (1, 2, 1), (1, 3, 3), (2, 3, 3)), 2, 1),
            (((0, 1, 1), (1, 2, 2)), 1, 1),
            (((0, 2, 1), (1, 2, 1), (1, 3, 1), (0, 3, 2)), 2, 1),
            (((0, 1, 2), (0, 2, 2), (0, 3, 2), (0, 4, 2)), 2, 2),
        ],
    )
    def test_full_set_agrees_with_maximal_set(self, edges, p, q) -> None:
        assert check_lemma61(build_graph(max(j for _, j, _ in edges), edges, p=p, q=q))

    def test_agreement_on_non_invariant_graph(self, diamond) -> None:
        skew, _ = relabel_for_blocks(diamond, [1, 3], [2])
        assert check_lemma61(skew)


class TestCaseMatching:
    def test_chorded_cycle(self, chorded_cycle) -> None:
        tags = match_theorem61(chorded_cycle)
        assert [(t.case, t.swapped) for t in tags] == [("ii", False)]
        assert dict(tags[0].params) == {"a": 2, "b": 1, "c": 3}

    def test_plain_cycle(self) -> None:
        g = build_graph(
            5,
            ((0, 1, 2), (0, 2, 2), (1, 3, 3), (3, 4, 3), (4, 5, 3), (2, 5, 3)),
            p=2,
            q=3,
        )
        tags = match_theorem61(g)
        assert [(t.case, t.swapped) for t in tags] == [("i.c", False)]
        assert dict(tags[0].params) == {"a": 2, "b": 3}

    def test_uniform_star_matches_both_labelings(self) -> None:
        star = build_graph(4, ((0, 1, 2), (0, 2, 2), (0, 3, 2), (0, 4, 2)), p=2, q=2)
        assert case_list(star) == [("vi", False), ("vi", True)]

    def test_four_cycle_matches_only_when_swapped(self) -> None:
        tags = match_theorem61(FOUR_CYCLE)
        assert [(t.case, t.swapped) for t in tags] == [("i.b", True)]
        assert dict(tags[0].params) == {"a": 2, "b": 1}

    def test_matches_sorted_by_case_order(self) -> None:
        e = build_graph(1, ((0, 1, 3),))
        both = wedge(e, e)
        cases = [t.case for t in match_theorem61(both)]
        assert cases == sorted(
            cases, key=("i.a", "i.b", "i.c", "ii", "iii", "iv.a", "iv.b", "v", "vi").index
        )

    def test_matching_needs_two_blocks(self) -> None:
        lopsided = build_graph(2, ((0, 1, 1), (1, 2, 1)), p=2, q=0)
        with pytest.raises(BipartitionMissing):
            match_theorem61(lopsided)


class TestWedge:
    def test_two_edges_make_a_star(self) -> None:
        e = build_graph(1, ((0, 1, 3),))
        both = wedge(e, e)
        assert both.edges == ((0, 1, 3), (0, 2, 3))
        assert (both.p, both.q) == (1, 1)

    def test_triangle_pair_matches_vector_grid(self) -> None:
        tri = build_graph(2, ((0, 1, 2), (0, 2, 2), (1, 2, 2)))
        both = wedge(tri, tri)
        assert verify_equality(both, grid_from_vectors((2, 4), (2, 4)))

    def test_tree_and_cycle_sides_are_invariant(self) -> None:
        tree = build_graph(3, ((0, 1, 1), (1, 2, 1), (1, 3, 1)))
        cycle = build_graph(3, ((0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 3, 2)))
        merged = wedge(tree, cycle)
        report = is_invariant(merged)
        assert report.invariant
        assert verify_equality(merged, construct_u_for_graph(merged).grid)


class TestGraphFromAffine:
    def test_triangle(self) -> None:
        tri = graph_from_affine_u(1, 1, a=2, b=0, c=1, cprime=1, d=0, e=3)
        assert tri.edges == ((0, 1, 2), (0, 2, 3), (1, 2, 1))

    def test_full_bands(self, tripartite) -> None:
        again = graph_from_affine_u(3, 2, a=1, b=0, c=1, cprime=1, d=0, e=1)
        assert again.edges == tripartite.edges

    def test_zero_coupling_merges_independent_sides(self) -> None:
        g = graph_from_affine_u(2, 2, a=1, b=2, c=0, cprime=0, d=3, e=1)
        assert g.edges == (
            (0, 1, 1),
            (0, 2, 1),
            (0, 3, 1),
            (0, 4, 1),
            (1, 2, 2),
            (3, 4, 3),
        )
        assert verify_equality(g, grid_from_affine(2, 2, a=1, b=2, c=0, cprime=0, d=3, e=1))

    def test_asymmetric_coupling_rejected(self) -> None:
        with pytest.raises(InvalidParameters):
            graph_from_affine_u(2, 2, a=1, b=0, c=1, cprime=2, d=0, e=1)

    def test_zero_coupling_needs_both_root_bands(self) -> None:
        with pytest.raises(InvalidParameters):
            graph_from_affine_u(2, 2, a=0, b=1, c=0, cprime=0, d=1, e=1)

    def test_root_needs_some_band(self) -> None:
        with pytest.raises(InvalidParameters):
            graph_from_affine_u(2, 2, a=0, b=1, c=1, cprime=1, d=1, e=0)

    def test_reconstruction_matches_grid(self) -> None:
        grid = grid_from_affine(2, 3, a=1, b=1, c=2, cprime=2, d=1, e=2)
        g = graph_from_affine_u(2, 3, a=1, b=1, c=2, cprime=2, d=1, e=2)
        assert verify_equality(g, grid)


class TestConstruction:
    def test_two_weight_tree_grid_is_constant_per_block(self) -> None:
        g = build_graph(4, ((0, 1, 2), (1, 2, 2), (0, 3, 1), (2, 4, 1)), p=2, q=2)
        built = construct_u_for_graph(g)
        assert built.case.case == "vi"
        assert all(x == 2 for row in built.grid.u[:2] for x in row)
        assert all(row[j] == 1 for row in built.grid.v for j in range(2))
        assert verify_equality(g, built.grid)

    def test_full_bands_use_affine_grid(self, tripartite, tripartite_grid) -> None:
        built = construct_u_for_graph(tripartite)
        assert built.case.case == "iii"
        assert verify_equality(tripartite, built.grid)
        assert built.grid.u == tripartite_grid.u and built.grid.v == tripartite_grid.v

    def test_swapped_match_transposes_back(self) -> None:
        built = construct_u_for_graph(FOUR_CYCLE)
        assert built.case.case == "i.b" and built.swapped
        assert (built.grid.p, built.grid.q) == (FOUR_CYCLE.p, FOUR_CYCLE.q)
        assert verify_equality(FOUR_CYCLE, built.grid)

    @pytest.mark.parametrize(
        "fixture",
        ["chorded_cycle", "tree_with_clique", "cycle_with_tufts", "forest_with_clique"],
    )
    def test_composite_graphs_verify(self, fixture, request) -> None:
        g = request.getfixturevalue(fixture)
        built = construct_u_for_graph(g)
        assert verify_equality(g, built.grid)

    def test_unmatched_graph_raises(self, diamond) -> None:
        skew, _ = relabel_for_blocks(diamond, [1, 3], [2])
        with pytest.raises(NotClassified):
            construct_u_for_graph(skew)

    def test_construction_serialization(self, chorded_cycle) -> None:
        data = construct_u_for_graph(chorded_cycle).to_json()
        assert data["case_used"]["case"] == "ii" and data["swapped"] is False
        json.dumps(data)


class TestVerifyEquality:
    def test_perturbed_grid_fails(self, chorded_cycle) -> None:
        good = construct_u_for_graph(chorded_cycle).grid
        u = [[x + 1 for x in row] for row in good.u]
        from parklab import load_grid

        bad = load_grid(
            {"p": good.p, "q": good.q, "u": u, "v": [list(r) for r in good.v]}
        )
        assert verify_equality(chorded_cycle, good)
        assert not verify_equality(chorded_cycle, bad)

    def test_shape_mismatch(self, diamond_split) -> None:
        with pytest.raises(ShapeMismatch):
            verify_equality(diamond_split, grid_from_vectors((1,), (1,)))


class TestSweep:
    def test_two_vertex_budget(self) -> None:
        report = sweep_classification(2, 2)
        assert report.graphs_tested == 20
        assert report.invariant_count == 20
        assert report.counterexamples == []
        assert report.per_family_counts == {"i.a": 2, "i.b": 4, "iii": 10, "iv.a": 4}

    def test_three_vertex_budget_finds_no_counterexamples(self) -> None:
        report = sweep_classification(3, 2)
        assert report.counterexamples == []
        assert report.invariant_count < report.graphs_tested
        assert sum(report.per_family_counts.values()) >= report.invariant_count
        assert (report.graphs_tested, report.invariant_count) == (704, 220)
        assert report.per_family_counts == {
            "i.a": 10, "i.b": 8, "i.c": 4, "ii": 16, "iii": 82,
            "iv.a": 60, "iv.b": 8, "v": 32,
        }
        assert sweep_classification(3, 2, jobs=2) == report

    def test_unmatched_invariant_graphs_are_reported(self, monkeypatch) -> None:
        monkeypatch.setattr(classify, "match_theorem61", lambda g: [])
        report = sweep_classification(2, 2)
        bad = report.counterexamples
        assert [d["reason"] for d in bad] == ["no-case-matches"] * 20
        keys = [sorted(d["graph"]["edges"]) for d in bad]
        assert keys == sorted(keys)
        assert report.per_family_counts == {}

    def test_mismatched_grids_are_reported(self, monkeypatch) -> None:
        monkeypatch.setattr(
            classify,
            "_grid_for_case",
            lambda p, q, tag: grid_from_vectors((100,) * p, (100,) * q),
        )
        bad = sweep_classification(2, 2).counterexamples
        assert [d["reason"] for d in bad] == ["grid-mismatch"] * 20
        cases = Counter(d["case"] for d in bad)
        assert cases == {"i.a": 2, "i.b": 4, "iii": 10, "iv.a": 4}

    def test_report_serialization(self) -> None:
        data = sweep_classification(2, 1).to_json()
        assert data["budget"] == {"max_n": 2, "max_w": 1}
        assert set(data) == {
            "budget",
            "graphs_tested",
            "invariant_count",
            "per_family_counts",
            "counterexamples",
        }
        json.dumps(data)


class TestSearchGraph:
    def test_symmetric_grid_has_a_graph(self) -> None:
        grid = grid_from_affine(1, 1, a=1, b=0, c=1, cprime=1, d=0, e=1)
        found, tested = search_graph_matching_grid(grid, 2)
        assert found is not None and tested >= 1
        assert verify_equality(found, grid)

    def test_asymmetric_grid_has_none(self) -> None:
        grid = grid_from_affine(1, 1, a=1, b=0, c=1, cprime=2, d=0, e=1)
        found, tested = search_graph_matching_grid(grid, 2)
        assert found is None and tested == 20


class TestDegreeEquality:
    @pytest.mark.parametrize(
        "fixture", ["chorded_cycle", "tree_with_clique", "diamond_split"]
    )
    def test_non_cut_vertices_share_degrees_within_blocks(
        self, fixture, request
    ) -> None:
        # invariance forces equal weighted degree across each block once
        # cut vertices are excluded
        g = request.getfixturevalue(fixture)
        assert is_invariant(g).invariant
        cuts = cut_vertices(g)
        for block in (g.block_a, g.block_b):
            degrees = {d_U(g, [v], v) for v in block if v not in cuts}
            assert len(degrees) <= 1


class TestHeredity:
    @pytest.mark.parametrize("fixture", ["chorded_cycle", "diamond_split"])
    def test_connected_subgraphs_inherit_invariance(self, fixture, request) -> None:
        g = request.getfixturevalue(fixture)
        assert is_invariant(g).invariant
        from itertools import combinations

        vertices = range(1, g.n + 1)
        for size in range(1, g.n + 1):
            for chosen in combinations(vertices, size):
                sub, _ = induced_subgraph(g, (0, *chosen))
                if not is_connected(sub):
                    continue
                assert is_invariant(sub).invariant, chosen


class TestQuotientRecognition:
    def test_collapsed_first_block_leaves_known_family(self, chorded_cycle) -> None:
        # with the first block connected and the graph invariant, collapsing
        # the first block with the root must leave a recognizable shape
        parts = [[0, 1, 2]] + [[v] for v in range(3, 6)]
        collapsed = quotient_graph(chorded_cycle, parts)
        tag = recognize_family(collapsed)
        assert tag.kind == "uniform_cycle" and tag.param("a") == 3

    def test_collapsed_block_of_full_bands(self, tripartite) -> None:
        parts = [[0, 1, 2, 3], [4], [5]]
        collapsed = quotient_graph(tripartite, parts)
        tag = recognize_family(collapsed)
        assert tag.kind in (
            "uniform_star",
            "uniform_path",
            "uniform_tree",
            "uniform_cycle",
            "banded_complete",
        )


class TestCycleCaseGrid:
    def test_long_cycle_with_two_bands_is_rejected(self) -> None:
        with pytest.raises(InvalidParameters):
            _cycle_case_grid(3, 1, 1, 2)


class TestRecognizerCounts:
    """Families and case lists of every block graph with n <= 3, weights <= 2."""

    WITH_BLOCKS = {
        "banded_complete": 10, "i.b": 4, "i.c": 2, "ii": 8, "iii": 50,
        "iv.a": 24, "two_weight_tree": 42, "unclassified": 500,
        "uniform_cycle": 10, "uniform_path": 28, "uniform_star": 6,
        "uniform_tree": 8, "v": 12,
    }
    WITHOUT_BLOCKS = {
        "banded_complete": 10, "unclassified": 642, "uniform_cycle": 10,
        "uniform_path": 28, "uniform_star": 6, "uniform_tree": 8,
    }
    # sha256 of repr() of every graph's [(case, swapped), ...] match list
    MATCH_DIGEST = "56ccf1decef21fd91b91530c222a68d8089e38b6e12105f178bec22e9a4bc6a1"

    def test_counts_and_case_lists_are_pinned(self) -> None:
        graphs = [
            g
            for n in (2, 3)
            for p in range(1, n)
            for g in connected_block_graphs(p, n - p, 2)
        ]
        assert len(graphs) == 704

        def family(g) -> str:
            tag = recognize_family(g)
            return tag.case or tag.kind

        assert Counter(map(family, graphs)) == self.WITH_BLOCKS
        unblocked = [build_graph(g.n, g.edges) for g in graphs]
        assert Counter(map(family, unblocked)) == self.WITHOUT_BLOCKS
        rows = [case_list(g) for g in graphs]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.MATCH_DIGEST

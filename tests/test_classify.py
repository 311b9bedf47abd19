"""Tests for invariance testing, case matching, and the classification sweep."""

import concurrent.futures
import hashlib
import itertools
import json
import os
import time
import tracemalloc
from collections import Counter
from math import comb

import pytest

from parklab import (
    build_graph,
    check_lemma61,
    connected_block_graphs,
    construct_u_for_graph,
    cut_vertices,
    d_U,
    enumerate_mpf,
    enumerate_mupf,
    enumerate_pf,
    graph_from_affine_u,
    grid_from_affine,
    grid_from_vectors,
    induced_subgraph,
    is_invariant,
    is_vector_pf,
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
    DomainError,
    InvalidParameters,
    NotClassified,
    ShapeMismatch,
    TooLarge,
)
from parklab import classify, graph
from parklab.graph import (
    FamilyTag,
    RootedWeightedGraph,
    is_connected,
    matching_invariant_cases,
)
from parklab.lattice import (
    WeightGrid,
    block_sorted,
    grid_transpose,
    increasing_maximal_pairs,
)
from parklab.parking import _mpf_walk

FOUR_CYCLE = build_graph(3, ((0, 2, 1), (1, 2, 1), (1, 3, 1), (0, 3, 2)), p=2, q=1)


def case_list(g) -> list[tuple[str, bool]]:
    return [(t.case, t.swapped) for t in match_theorem61(g)]


def small_block_graphs():
    """Every block graph with n <= 3 and w <= 2, and with n = 4 and w = 1."""
    for n, max_w in [(2, 2), (3, 2), (4, 1)]:
        for p in range(1, n):
            yield from connected_block_graphs(p, n - p, max_w)


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


def orbit_closed_by_expansion(vectors, p):
    """Reference orbit check: expand every orbit, report the first hole.

    It shares no code with the library's adjacent-swap check, so the tests
    read their verdicts from it.
    """
    checked = set()
    for vec in sorted(vectors):
        key = (tuple(sorted(vec[:p])), tuple(sorted(vec[p:])))
        if key in checked:
            continue
        checked.add(key)
        for a in set(itertools.permutations(vec[:p])):
            for b in set(itertools.permutations(vec[p:])):
                if a + b not in vectors:
                    return vec, a + b
    return None


def first_swap_hole(vectors, p):
    """The least vector with an adjacent in-block swap outside the set.

    Returns (vector, swapped) for its leftmost such swap, or None; reads
    set membership only, so nothing is burned.
    """
    members = set(vectors)
    for vec in sorted(members):
        for i in range(len(vec) - 1):
            swapped = vec[:i] + (vec[i + 1], vec[i]) + vec[i + 2 :]
            if i != p - 1 and swapped not in members:
                return vec, swapped
    return None


class TestOrbitCount:
    def test_witnesses_match_the_expansion_on_maximal_sets(self) -> None:
        holes = 0
        for g in small_block_graphs():
            maximal = enumerate_mpf(g)
            want = orbit_closed_by_expansion(set(maximal), g.p)
            witness = is_invariant(g).witness
            assert (witness is None) == (want is None), g
            assert witness == first_swap_hole(maximal, g.p), g
            holes += want is not None
        assert 0 < holes < 704 + 554

    def test_holes_match_the_expansion_on_full_sets(self) -> None:
        holes = graphs = 0
        for n in range(1, 4):
            for p in range(n + 1):
                for g in connected_block_graphs(p, n - p, 2):
                    full = enumerate_pf(g)
                    want = orbit_closed_by_expansion(set(full), g.p)
                    hole = classify._first_hole(g.p, g.incidence, g.edges, full)[0]
                    assert (hole is None) == (want is None), g
                    assert hole == first_swap_hole(full, g.p), g
                    holes += want is not None
                    graphs += 1
        assert graphs == 1006 and 0 < holes < graphs


class TestLongBlocks:
    # twelve first-block vertices in a row: one orbit of 12! arrangements
    # if it were expanded, but the maximal set is the single zero vector
    PATH = build_graph(13, [(i, i + 1, 1) for i in range(13)], p=12, q=1)

    def test_invariance_is_decided_without_expanding(self) -> None:
        start = time.perf_counter()
        report = is_invariant(self.PATH)
        assert time.perf_counter() - start < 1.0
        assert report.invariant and report.witness is None

    def test_lemma61_holds(self) -> None:
        assert check_lemma61(self.PATH)

    def test_a_long_distinct_block_names_its_hole_at_once(self) -> None:
        # edges 1-2 .. 9-10 weigh 1..9, so the least maximal vector's first
        # block reads 0, 0, 1, .., 8: an orbit of 10!/2 arrangements
        p = 10
        edges = [(0, 1, 1), *((i, i + 1, i) for i in range(1, p)), (0, p + 1, 1)]
        g = build_graph(p + 1, edges, p=p, q=1)
        start = time.perf_counter()
        report = is_invariant(g)
        assert time.perf_counter() - start < 0.1
        assert not report.invariant
        assert report.witness == (
            (0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0),
            (0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 0),
        )


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

    def test_the_full_set_is_guarded(self, diamond_split, monkeypatch) -> None:
        # PARKLAB_MAX_SET is the guard's one override on this path
        size = len(enumerate_pf(diamond_split))
        monkeypatch.setenv("PARKLAB_MAX_SET", str(size - 1))
        with pytest.raises(TooLarge, match=f"guard of {size - 1}"):
            check_lemma61(diamond_split)
        monkeypatch.setenv("PARKLAB_MAX_SET", str(size))
        assert check_lemma61(diamond_split)


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

    @pytest.mark.parametrize(
        "edges, p, q, cases",
        [
            # case v needs the A-B edge away from the carrying vertex 2 to
            # weigh the forest weight
            (((0, 2, 1), (1, 3, 2), (2, 3, 1)), 2, 1, []),
            (((0, 2, 1), (1, 3, 1), (2, 3, 1)), 2, 1, [("v", False), ("vi", False)]),
            # case ii needs the root on both chord endpoints; here it meets 2
            (
                ((0, 2, 1), (0, 4, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1), (2, 3, 1)),
                2,
                2,
                [],
            ),
        ],
    )
    def test_matched_exactly_when_invariant(self, edges, p, q, cases) -> None:
        g = build_graph(p + q, edges, p=p, q=q)
        assert case_list(g) == cases
        assert is_invariant(g).invariant == bool(cases)

    def test_disconnected_graph_matches_nothing(self) -> None:
        # vertex 4 is isolated; the rest would read as iv.b by edge counts
        g = build_graph(
            4,
            ((0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)),
            p=2,
            q=2,
            require_connected=False,
        )
        assert matching_invariant_cases(g) == []
        assert match_theorem61(g) == []

    def test_small_graphs_match_exactly_when_invariant(self) -> None:
        tested = 0
        for g in small_block_graphs():
            tested += 1
            closed = orbit_closed_by_expansion(set(enumerate_mpf(g)), g.p)
            assert bool(match_theorem61(g)) == (closed is None), g
        assert tested == 704 + 554


class TestLazyInvariance:
    def test_lazy_verdict_matches_the_orbit_oracle(self) -> None:
        # every graph is also compared with the case grid of the previous
        # invariant graph of its shape, so the grid comparison meets grids
        # that differ and maximal sets that are not closed under block swaps
        tested = 0
        outcomes = Counter()
        previous = {}
        for g in small_block_graphs():
            tested += 1
            full = set(enumerate_mpf(g))
            hole, lazy = classify._first_hole(g.p, g.incidence, g.edges, _mpf_walk(g))
            closed = orbit_closed_by_expansion(full, g.p) is None
            assert (hole is None) == closed, g
            grids = [previous[g.p, g.q]] if (g.p, g.q) in previous else []
            if hole is None:
                assert lazy == full, g
                grids.append(construct_u_for_graph(g).grid)
                previous[g.p, g.q] = grids[-1]
            for grid in grids:
                increasing = increasing_maximal_pairs(grid)
                agrees = classify._matches_grid(full, g.p, increasing)
                oracle = {a + b for a, b in enumerate_mupf(grid)}
                assert agrees == (full == oracle), g
                ranked = {block_sorted((v[: g.p], v[g.p :])) for v in full}
                outcomes[agrees, ranked == set(increasing)] += 1
        assert tested == 704 + 554
        # the 13 (False, True) comparisons are decided by the count alone
        assert outcomes == {(True, True): 448, (False, True): 13, (False, False): 1167}

    def test_equal_block_sorted_sets_of_different_sizes_differ(self) -> None:
        # both sets block-sort to {(0, 0, 1)}; only their sizes differ
        g = build_graph(3, ((0, 3, 1), (1, 3, 1), (2, 3, 2)), p=1, q=2)
        grid = grid_from_vectors((1,), (1, 2))
        assert set(enumerate_mpf(g)) == {(0, 1, 0)}
        assert {a + b for a, b in enumerate_mupf(grid)} == {(0, 0, 1), (0, 1, 0)}
        assert not verify_equality(g, grid)

    def test_swap_burn_gates_the_verdict(self, monkeypatch) -> None:
        # with the solver's level check off, every weighting of each pattern
        # is built, and a burn that accepts every swap lets every graph
        # through; the non-invariant ones then match no case (n = 2 has no
        # in-block swap)
        monkeypatch.setattr(
            classify, "_level_plans", lambda p, edges, nbrs, max_w: []
        )
        monkeypatch.setattr(
            classify, "_level_steps", lambda p, edges, ats, max_w: [[] for _ in edges]
        )
        monkeypatch.setattr(classify, "_burn_order", lambda incidence, edges, b: [0])
        report = sweep_classification(3, 2)
        assert report.invariant_count == report.graphs_tested == 704
        bad = report.counterexamples
        assert [d["reason"] for d in bad] == ["no-case-matches"] * (704 - 220)
        assert report.per_family_counts == {
            "i.a": 10, "i.b": 8, "i.c": 4, "ii": 16, "iii": 82,
            "iv.a": 60, "iv.b": 8, "v": 32,
        }


class TestPatternReplay:
    """The sweep reads each edge pattern's burning orders once: every
    weighting replays the orders already drawn and draws new ones past them,
    so a weighting that stops at a hole leaves the rest for later ones."""

    SPLITS = [
        (p, n - p, w) for n in range(2, 5) for p in range(1, n) for w in (1, 2)
    ] + [(2, 2, 3)]

    def test_each_weighting_reads_its_own_walk(self, monkeypatch) -> None:
        first_hole, burning_orders = classify._first_hole, classify._burning_orders
        calls, draws = [], []

        def hole_spy(p, incidence, edges, vectors):
            read = []  # the vectors drawn, in order
            logged = (read.append(v) or v for v in vectors)
            found = first_hole(p, incidence, edges, logged)
            calls.append((edges, read, found))
            return found

        def orders_spy(nbr):
            draws.append(0)
            for pos in burning_orders(nbr):
                draws[-1] += 1
                yield pos

        monkeypatch.setattr(classify, "_first_hole", hole_spy)
        monkeypatch.setattr(classify, "_burning_orders", orders_spy)
        replays = resumed = 0
        for p, q, max_w in self.SPLITS:
            calls.clear()
            draws.clear()
            _, invariant, _, bad = classify._sweep_block((p, q, max_w))
            assert bad == []
            solved = [
                edges
                for _, graphs in classify._level_solutions(p, q, max_w)
                for edges in graphs
            ]
            assert [edges for edges, _, _ in calls] == solved
            deepest = {}  # each pattern's most orders read, in pattern order
            for edges, read, found in calls:
                g = RootedWeightedGraph(p + q, edges, p, q)
                walk = list(_mpf_walk(g))
                assert read == walk[: len(read)], edges
                assert found == first_hole(p, g.incidence, g.edges, iter(walk)), edges
                if found[0] is None:
                    assert read == walk, edges
                else:  # it stops at its hole
                    assert read[-1] == found[0][0], edges
                pattern = tuple(e[:2] for e in edges)
                if pattern in deepest:
                    replays += 1
                    resumed += len(read) > deepest[pattern]
                deepest[pattern] = max(deepest.get(pattern, 0), len(read))
            assert invariant == sum(found[0] is None for _, _, found in calls)
            # one source per pattern, drawn once per order that was read
            assert draws == list(deepest.values())
        # later weightings replay an earlier one's orders, and some of them
        # draw past an earlier hole
        assert (replays, resumed) == (10_022, 35)

    def test_an_abandoned_replay_leaves_every_item_for_the_next(self) -> None:
        drawn = []

        def source():
            for item in "abcdef":
                drawn.append(item)
                yield item

        seen, items = [], source()
        first = classify._replay(seen, items)
        assert [next(first) for _ in range(3)] == list("abc")
        # abandoned while replaying, then while drawing past the replay
        assert list(itertools.islice(classify._replay(seen, items), 2)) == list("ab")
        assert list(itertools.islice(classify._replay(seen, items), 4)) == list("abcd")
        assert list(classify._replay(seen, items)) == list("abcdef")
        assert list(classify._replay(seen, items)) == list("abcdef")
        assert drawn == seen == list("abcdef")


def block_graphs(max_n: int, max_w: int):
    """Every block graph with both blocks non-empty and n <= max_n."""
    for n in range(2, max_n + 1):
        for p in range(1, n):
            yield from connected_block_graphs(p, n - p, max_w)


def largest_entries(g) -> list[int]:
    """w(v, R) - 1 for each non-root v, R the root's component of g - v.

    R is what the dict search reaches from the root without passing through
    v, so the library's bitmask search is not consulted.
    """
    tops = []
    for v in g.vertices[1:]:
        side = search_tree(g, avoid=v)
        into = [w for i, j, w in g.edges if v in (i, j) and i + j - v in side]
        tops.append(sum(into) - 1)
    return tops


def weighted_degrees(g) -> list[int]:
    """Each vertex's weighted degree, summed over g.edges."""
    degree = [0] * (g.n + 1)
    for i, j, w in g.edges:
        degree[i] += w
        degree[j] += w
    return degree


def blocks_level(p: int, edges: tuple, nbrs: list[int]) -> bool:
    """Whether the vertices of each block share their largest parking entry.

    By Dhar's burning, v's largest entry is w(v, R) - 1, for R the root's
    component of g - v: the vertices outside R have edges out only at v, and
    with v at w(v, R) - 1 and zeros elsewhere, R burns, then v, then the
    rest. A block permutation moves a largest entry to any vertex of its
    block, so every invariant graph passes; many others pass too, so this
    only spares _first_hole graphs it would reject. It reads a leaf of
    _block_leaves whose first block is 1..p, and stops at the first vertex
    whose entry differs from its block's first.

    w(v, R) is the weight sum of v's edges when v is no cut vertex, and
    otherwise that of the edges at _root_side_edges' positions. The sweep
    solves these equalities per edge pattern in _level_solutions; this
    reads one graph, and with the walk it is that solver's oracle.
    """
    for first, last in ((1, p), (p + 1, len(nbrs) - 1)):
        if first < last:
            top = None
            for v in range(first, last + 1):
                at = graph._root_side_edges(edges, v, nbrs)
                if at is None:
                    at = [k for k, (i, j, _) in enumerate(edges) if v in (i, j)]
                level = sum(edges[k][2] for k in at)
                if top is None:
                    top = level
                elif level != top:
                    return False
    return True


class TestLargestEntryFilter:
    def test_formula_is_each_vertex_largest_parking_entry(self) -> None:
        tested = 0
        for g in block_graphs(4, 2):
            tested += 1
            tops = [max(column) for column in zip(*enumerate_mpf(g))]
            assert largest_entries(g) == tops, g
        assert tested == 35_933

    def test_filter_passes_every_invariant_graph(self) -> None:
        # the filter reads each leaf as the sweep does, on the walk's live masks
        passed = invariant = 0
        for n in range(2, 5):
            for p in range(1, n):
                for edges, nbrs, _, _ in classify._block_leaves(p, n - p, 2):
                    level = blocks_level(p, edges, nbrs)
                    g = RootedWeightedGraph(n, edges, p, n - p)
                    walk = _mpf_walk(g)
                    hole = classify._first_hole(g.p, g.incidence, g.edges, walk)[0]
                    closed = hole is None
                    assert level or not closed, g
                    passed += level
                    invariant += closed
        assert (passed, invariant) == (2_878, 1_120)

    def test_a_cut_vertex_takes_less_than_its_degree(self) -> None:
        # vertex 3 carries the root edge of both others: its weighted degree
        # is 3 against its block twin's 1, yet both take at most 0, so a
        # filter on the plain degree would reject this invariant graph
        g = build_graph(3, ((0, 3, 1), (1, 3, 1), (2, 3, 1)), p=1, q=2)
        degree = weighted_degrees(g)
        assert degree[2:] == [1, 3]
        assert largest_entries(g) == [0, 0, 0]
        assert blocks_level(g.p, g.edges, graph._masks(g.n, g.edges))
        found = classify._first_hole(g.p, g.incidence, g.edges, _mpf_walk(g))
        assert found == (None, {(0, 0, 0)})
        assert match_theorem61(g)[0].case == "v"

    def test_the_filter_gives_the_direct_verdict(self) -> None:
        # the direct verdict compares the root-side weights of each block's
        # vertices
        shapes = [
            (p, n - p, w) for n in range(2, 5) for p in range(1, n) for w in (1, 2)
        ]
        passed = 0
        for p, q, max_w in shapes + [(2, 2, 3)]:
            for edges, nbrs, _, _ in classify._block_leaves(p, q, max_w):
                degree = weighted_degrees(RootedWeightedGraph(p + q, edges, p, q))
                levels = []
                for v in range(1, p + q + 1):
                    at = graph._root_side_edges(edges, v, nbrs)
                    level = degree[v] if at is None else sum(edges[k][2] for k in at)
                    levels.append(level)
                direct = len(set(levels[:p])) == 1 == len(set(levels[p:]))
                alone = blocks_level(p, edges, nbrs)
                assert direct == alone, edges
                passed += alone
        # the sweep's 225 and 2,878 survivors at w <= 1 and 2, and the a09 shape's
        assert passed == 225 + 2_878 + 7_856

    def test_plans_are_built_once_per_edge_pattern(self, monkeypatch) -> None:
        built, read = [], []
        root_side_edges, level_plans = classify._root_side_edges, classify._level_plans

        def count_plans(edges, v, nbrs):
            built.append((tuple(nbrs), v))
            return root_side_edges(edges, v, nbrs)

        def spy(p, edges, nbrs, max_w):
            read.append(tuple(nbrs))
            return level_plans(p, edges, nbrs, max_w)

        monkeypatch.setattr(classify, "_root_side_edges", count_plans)
        monkeypatch.setattr(classify, "_level_plans", spy)
        tested, invariant, _, _ = classify._sweep_block((2, 2, 2))
        assert (tested, invariant) == (14_901, 528)
        # one read per canonical pattern, not one per each of the walk's 346
        # supports, and each vertex planned at most once: 894 of the 230
        # patterns' 920 vertices, since a read stops at the first block
        # whose level intervals share no value
        assert len(read) == len(set(read)) == 230
        assert len(built) == len(set(built)) == 894
        assert {nbrs for nbrs, _ in built} == set(read)
        # with weights up to 1 each pattern is one graph
        read.clear()
        tested, _, _, _ = classify._sweep_block((2, 2, 1))
        assert len(read) == len(set(read)) == tested == 230

    def test_rejected_graphs_count_as_tested(self, monkeypatch) -> None:
        # the burn accepts every swap, so only the prefilter rejects: 278 of
        # the 704 graphs pass it, and the 58 non-invariant ones match no case
        monkeypatch.setattr(classify, "_burn_order", lambda incidence, edges, b: [0])
        report = sweep_classification(3, 2)
        assert (report.graphs_tested, report.invariant_count) == (704, 278)
        bad = report.counterexamples
        assert [d["reason"] for d in bad] == ["no-case-matches"] * (278 - 220)


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

    def test_edge_guard_is_exact(self, monkeypatch) -> None:
        # every band subset the construction accepts, on blocks up to 3 x 3
        for p, q in itertools.product(range(1, 4), repeat=2):
            for a, b, c, d, e in itertools.product((0, 1), repeat=5):
                bands = dict(a=a, b=b, c=c, cprime=c, d=d, e=e)
                try:
                    size = len(graph_from_affine_u(p, q, **bands).edges)
                except InvalidParameters:
                    continue
                monkeypatch.setattr(graph, "_MAX_AFFINE_EDGES", size)
                graph_from_affine_u(p, q, **bands)
                monkeypatch.setattr(graph, "_MAX_AFFINE_EDGES", size - 1)
                with pytest.raises(TooLarge, match=f" has {size} edges; "):
                    graph_from_affine_u(p, q, **bands)
                monkeypatch.undo()

    def test_huge_graph_is_refused_before_it_is_built(self) -> None:
        with pytest.raises(
            TooLarge,
            match=r"^affine graph on blocks \(1000, 1000\) has 2001000 edges; "
            "guarded at 1000000$",
        ):
            graph_from_affine_u(1000, 1000, a=1, b=1, c=1, cprime=1, d=1, e=1)

    # sha256 over every block size 0..3 and band weight -1..2: the graph's
    # JSON, family and case list, or the error type and message
    BAND_DIGEST = "414c82627cbb8eaf3c6f51e968ee65f0f76cd1681ab1be8e58e3828c5cc914e5"

    def test_band_graphs_are_pinned(self) -> None:
        digest = hashlib.sha256()
        built = case_iii = 0
        for p, q in itertools.product(range(4), repeat=2):
            for a, b, c, cprime, d, e in itertools.product(range(-1, 3), repeat=6):
                try:
                    g = graph_from_affine_u(
                        p, q, a=a, b=b, c=c, cprime=cprime, d=d, e=e
                    )
                except DomainError as exc:
                    record = [type(exc).__name__, str(exc)]
                else:
                    tags = match_theorem61(g)
                    built += 1
                    case_iii += any(t.case == "iii" for t in tags)
                    record = [
                        g.to_json(),
                        recognize_family(g).to_json(),
                        [t.to_json() for t in tags],
                    ]
                digest.update(json.dumps(record).encode() + b"\n")
        assert (built, case_iii) == (1620, 1296)
        assert digest.hexdigest() == self.BAND_DIGEST


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


def block_relabelings(p: int, q: int):
    """Every relabeling inside the two blocks, the identity first, as vertex maps."""
    for a in itertools.permutations(range(1, p + 1)):
        for b in itertools.permutations(range(p + 1, p + q + 1)):
            yield (0, *a, *b)


def search_tree(g, avoid: int | None = None) -> dict[int, int]:
    """A depth-first search from the root over a dict of edge lists.

    The library's searches run on neighbour bitmasks; this one reads only
    g.edges and is their independent oracle. Each vertex the search reaches,
    never passing through avoid, maps to the weight of the edge it was first
    reached by (0 for the root); on a tree that is its parent edge.
    """
    adjacent: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for i, j, w in g.edges:
        adjacent[i].append((j, w))
        adjacent[j].append((i, w))
    seen = {0: 0}
    stack = [0]
    while stack:
        for u, w in adjacent[stack.pop()]:
            if u not in seen and u != avoid:
                seen[u] = w
                stack.append(u)
    return seen


def reference_block_graphs(p: int, q: int, max_w: int):
    """The product-and-filter generator that the orderly walk replaced.

    Every weight tuple over the slots is tried; it is kept when no block
    relabeling reads it lexicographically smaller, then built and tested.
    """
    n = p + q
    slots = list(itertools.combinations(range(n + 1), 2))
    index = {pair: k for k, pair in enumerate(slots)}
    perms = [
        tuple(index[tuple(sorted((v[i], v[j])))] for i, j in slots)
        for v in block_relabelings(p, q)
    ]
    for weights in itertools.product(range(max_w + 1), repeat=len(slots)):
        if any(tuple(weights[k] for k in perm) < weights for perm in perms):
            continue
        edges = [(i, j, w) for (i, j), w in zip(slots, weights) if w]
        g = build_graph(n, edges, p=p, q=q, require_connected=False)
        if len(search_tree(g)) == n + 1:
            yield g


def count_block_graphs(p: int, q: int, max_w: int) -> int:
    """Orbits of connected weight assignments under block relabeling.

    Burnside's lemma: the mean over all relabelings of the connected
    assignments each one fixes. The identity fixes every connected labelled
    graph, counted by the rooted-subset recurrence (all graphs on k vertices
    minus those whose root component has j < k of them). Any other
    relabeling fixes the assignments constant on its slot cycles.
    """
    n = p + q
    values = max_w + 1
    labelled = [0, 1]
    for k in range(2, n + 2):
        labelled.append(
            values ** comb(k, 2)
            - sum(
                comb(k - 1, j - 1) * labelled[j] * values ** comb(k - j, 2)
                for j in range(1, k)
            )
        )
    slots = list(itertools.combinations(range(n + 1), 2))
    relabelings = list(block_relabelings(p, q))
    fixed = labelled[n + 1]
    for v in relabelings[1:]:
        image = {(i, j): tuple(sorted((v[i], v[j]))) for i, j in slots}
        cycles, seen = [], set()
        for slot in slots:
            cycle = []
            while slot not in seen:
                seen.add(slot)
                cycle.append(slot)
                slot = image[slot]
            if cycle:
                cycles.append(cycle)
        for ws in itertools.product(range(values), repeat=len(cycles)):
            edges = [(i, j, w) for cycle, w in zip(cycles, ws) if w for i, j in cycle]
            g = build_graph(n, edges, require_connected=False)
            fixed += len(search_tree(g)) == n + 1
    count, rest = divmod(fixed, len(relabelings))
    assert rest == 0
    return count


SMALL_SHAPES = [
    (p, n - p, w) for n in range(5) for p in range(n + 1) for w in range(3)
] + [(1, 2, 3), (2, 1, 3)]


class TestBlockGraphGeneration:
    """The orderly walk against the product-and-filter and Burnside oracles."""

    # sha256 over repr(g.edges) of every graph reference_block_graphs(2, 2, 3)
    # yields, in order
    A09_DIGEST = "cc0818822176f40e9d1bc550513a2c251c14fe214c8da785309f8f93f063015e"

    @staticmethod
    def stream(graphs) -> list:
        return [(g.p, g.q, g.edges) for g in graphs]

    @pytest.mark.parametrize("p, q, max_w", SMALL_SHAPES)
    def test_same_graphs_in_the_same_order(self, p, q, max_w) -> None:
        assert self.stream(connected_block_graphs(p, q, max_w)) == self.stream(
            reference_block_graphs(p, q, max_w)
        )

    @pytest.mark.parametrize("p, q, max_w", SMALL_SHAPES)
    def test_length_is_the_burnside_count(self, p, q, max_w) -> None:
        generated = sum(1 for _ in connected_block_graphs(p, q, max_w))
        assert generated == count_block_graphs(p, q, max_w)

    @pytest.mark.parametrize("p, q, max_w", SMALL_SHAPES)  # (2, 2, 2) included
    def test_leaf_records_match_the_built_graph(self, p, q, max_w) -> None:
        # checked at yield time: nbrs and states are the walk's live lists
        slots = list(itertools.combinations(range(p + q + 1), 2))
        index = {pair: k for k, pair in enumerate(slots)}
        relabelings = [  # the non-identity vertex maps, each with its slot map
            (v, tuple(index[tuple(sorted((v[i], v[j])))] for i, j in slots))
            for v in itertools.islice(block_relabelings(p, q), 1, None)
        ]
        streamed = []
        for edges, nbrs, total, states in classify._block_leaves(p, q, max_w):
            edges = tuple(edges)  # the live list changes when the walk resumes
            g = RootedWeightedGraph(p + q, edges, p, q)
            assert nbrs == graph._masks(g.n, g.edges), g
            assert total == g.total_weight, g
            # the states are the leaf's stabilizer less the identity, each once
            stabilizer = [
                perm
                for v, perm in relabelings
                if {(*sorted((v[i], v[j])), w) for i, j, w in edges} == set(edges)
            ]
            assert sorted(perm for perm, _, _ in states) == sorted(stabilizer), g
            streamed.append((p, q, edges))
        assert streamed == self.stream(connected_block_graphs(p, q, max_w))

    def test_a09_stream_is_unchanged(self) -> None:
        digest = hashlib.sha256()
        count = 0
        for g in connected_block_graphs(2, 2, 3):
            digest.update(repr(g.edges).encode())
            count += 1
        assert count == count_block_graphs(2, 2, 3) == 265_374
        assert digest.hexdigest() == self.A09_DIGEST

    def test_the_walk_searches_once_per_connected_prefix(self, monkeypatch) -> None:
        # a search per leaf would make 271,360 searches for these 265,374
        # leaves; a connected prefix makes every leaf below it connected
        searches = 0
        reach = classify._reach

        def counted(*args):
            nonlocal searches
            searches += 1
            return reach(*args)

        monkeypatch.setattr(classify, "_reach", counted)
        assert sum(1 for _ in classify._block_leaves(2, 2, 3)) == 265_374
        assert searches < 12_000

    @pytest.mark.parametrize(
        "p, q, max_w", [s for s in SMALL_SHAPES if s[0] + s[1] <= 3]
    )
    def test_yielded_graphs_are_valid_builds(self, p, q, max_w) -> None:
        for g in connected_block_graphs(p, q, max_w):
            assert g == build_graph(g.n, g.edges, p=g.p, q=g.q)

    def test_negative_weight_bound_is_rejected(self) -> None:
        with pytest.raises(InvalidParameters, match="-1"):
            next(connected_block_graphs(2, 1, -1))

    def test_negative_block_size_is_rejected(self) -> None:
        with pytest.raises(ShapeMismatch):
            next(connected_block_graphs(-1, 3, 1))

    @pytest.mark.parametrize("max_w", [1.5, 2.0, True, "2"])
    def test_weight_bound_must_be_an_int(self, max_w) -> None:
        with pytest.raises(InvalidParameters, match="max_w must be an integer"):
            next(connected_block_graphs(2, 1, max_w))

    @pytest.mark.parametrize("p, q", [(1.0, 1), (1, True), ("1", 1)])
    def test_block_sizes_must_be_ints(self, p, q) -> None:
        with pytest.raises(ShapeMismatch, match="must be integers"):
            next(connected_block_graphs(p, q, 1))


class TestSearchOracle:
    def test_structure_queries_agree_with_the_dict_search(self) -> None:
        tested = bridges = cuts = trees = 0
        for g in block_graphs(4, 2):
            tested += 1
            for k in range(len(g.edges)):
                rest = RootedWeightedGraph(g.n, g.edges[:k] + g.edges[k + 1 :])
                connected = len(search_tree(rest)) == g.n + 1
                assert is_connected(rest) == connected, (g, k)
                bridges += not connected
            expected = {
                v for v in range(1, g.n + 1) if len(search_tree(g, avoid=v)) < g.n
            }
            assert cut_vertices(g) == expected, g
            cuts += len(expected)
            bands = None
            if len(g.edges) == g.n:
                trees += 1
                parent = search_tree(g)
                a = {parent[v] for v in range(1, g.p + 1)}
                b = {parent[v] for v in range(g.p + 1, g.n + 1)}
                if len(a) == len(b) == 1:
                    bands = (a.pop(), b.pop())
            # the tree bands recognize_family reads: (a, a) for a uniform
            # tree, (a, b) for a two-weight tree, none for any other kind
            family, found = recognize_family(g), None
            params = dict(family.params)
            if family.kind in ("uniform_tree", "uniform_star", "uniform_path"):
                found = params["a"], params["a"]
            elif family.kind == "two_weight_tree":
                found = params["a"], params["b"]
            assert found == bands, g
        assert (tested, bridges, cuts, trees) == (35_933, 19_732, 13_732, 1_433)


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

    def test_five_vertex_unit_budget(self) -> None:
        report = sweep_classification(5, 1)
        assert (report.graphs_tested, report.invariant_count) == (9_326, 802)
        assert report.per_family_counts == {
            "i.a": 31, "ii": 6, "iii": 70, "iv.a": 144, "iv.b": 64,
            "v": 182, "vi": 305,
        }
        assert report.counterexamples == []
        assert sweep_classification(5, 1, jobs=2) == report

    def test_six_vertex_unit_budget(self) -> None:
        report = sweep_classification(6, 1, jobs=2)
        assert (report.graphs_tested, report.invariant_count) == (210_698, 3_288)
        assert report.per_family_counts == {
            "i.a": 65, "ii": 8, "iii": 118, "iv.a": 362, "iv.b": 244,
            "v": 652, "vi": 1_839,
        }
        assert report.counterexamples == []

    def test_mirrored_splits_agree(self) -> None:
        # exchanging the blocks maps the graphs of split (p, q) onto those of
        # (q, p), invariant ones onto invariant ones of the same lowest case
        splits = {
            (p, n - p): classify._sweep_block((p, n - p, 2))
            for n in range(2, 5)
            for p in range(1, n)
        }
        for (p, q), (tested, invariant, counts, bad) in splits.items():
            assert (tested, invariant, counts) == splits[q, p][:3], (p, q)
            assert bad == []

    def test_jobs_beyond_the_cpu_count_share_the_cpus(self, monkeypatch) -> None:
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                mapped.append(tasks)
                return map(fn, tasks)

        mapped = []
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", InProcessPool
        )
        report = sweep_classification(3, 1, jobs=64)
        assert len(asked) == 1 and asked[0] <= (os.cpu_count() or 1)
        # one task per block split, each generated once
        assert mapped == [[(1, 1, 1), (1, 2, 1), (2, 1, 1)]]
        assert len(set(mapped[0])) == len(mapped[0])
        assert report == sweep_classification(3, 1)

    def test_unmatched_invariant_graphs_are_reported(self, monkeypatch) -> None:
        monkeypatch.setattr(classify, "_read_cases", lambda plan, weights: iter(()))
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

    def test_negative_vertex_budget_is_rejected(self) -> None:
        with pytest.raises(InvalidParameters, match="-2"):
            sweep_classification(-2, 2)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_fewer_than_one_job_is_rejected(self, monkeypatch, jobs) -> None:
        ran = []
        monkeypatch.setattr(classify, "_sweep_block", ran.append)
        with pytest.raises(InvalidParameters, match=f"jobs must be >= 1, got {jobs}"):
            sweep_classification(2, 2, jobs=jobs)
        assert ran == []

    @pytest.mark.parametrize(
        "args, kwargs, name",
        [
            ((3, 1.5), {}, "max_w"),
            ((3.0, 1), {}, "max_n"),
            ((True, 1), {}, "max_n"),
            ((3, 1), {"jobs": 1.5}, "jobs"),
            ((3, 1), {"jobs": True}, "jobs"),
        ],
    )
    def test_budgets_must_be_ints(self, monkeypatch, args, kwargs, name) -> None:
        ran = []
        monkeypatch.setattr(classify, "_sweep_block", ran.append)
        with pytest.raises(InvalidParameters, match=f"{name} must be an integer"):
            sweep_classification(*args, **kwargs)
        assert ran == []

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


def cycles(pi: list[int]) -> set[frozenset]:
    """The cycles of a permutation of range(len(pi)), each as a set."""
    found = set()
    for t in range(len(pi)):
        cycle = {t}
        while pi[t] not in cycle:
            t = pi[t]
            cycle.add(t)
        found.add(frozenset(cycle))
    return found


def walk_canonical(g) -> tuple:
    """g's least slot weight tuple over the block relabelings, the walk's form.

    Two graphs are equal up to relabeling inside the blocks exactly when
    their forms are equal, whatever labeling each was built in.
    """
    slots = list(itertools.combinations(range(g.n + 1), 2))
    weight = {(i, j): w for i, j, w in g.edges}
    return min(
        tuple(weight.get(tuple(sorted((v[i], v[j]))), 0) for i, j in slots)
        for v in block_relabelings(g.p, g.q)
    )


class TestSweepDigests:
    """Each split's invariant graphs, pinned up to relabeling inside the blocks.

    A spy on the sweep's tag read, classify._read_cases, which the sweep
    calls once for each graph that reaches the case stage, collects those
    graphs, rebuilt from the pairs of their plan (a spy on classify._case_plan)
    and the weights read; each digest is the sha256 of repr() of the sorted
    list of (walk_canonical(g), lowest case, swapped) over one split at w = 2.
    """

    DIGESTS = {
        (1, 1): "f3f06c9b81725ce87f3cd006d6aa047989cc3c43e7b1d13eefced971065ccd42",
        (1, 2): "27522dcbd7eaa714e524894c0ab74f5be715345964ff254182ff19e1a3339fd0",
        (2, 1): "f3b2a17f9cd6722bb9c18a8debdd0f31536d3d56c820e2669e74a62019881475",
        (1, 3): "76846730ee36197246787926910dcae9e2fdcfbfcd738206379680ac4ef05cff",
        (2, 2): "b8a5929ab49eaa6fe4f10f9b6a65f430d972a1fa96b3015194a4f121952216a5",
        (3, 1): "20da5f1c0d9347f414b7d575e1247afcbdf8ceab37d35896f96da5ff475f6751",
    }
    # (graphs tested, invariant graphs) per split
    COUNTS = {
        (1, 1): (20, 20), (1, 2): (342, 100), (2, 1): (342, 100),
        (1, 3): (10_164, 186), (2, 2): (14_901, 528), (3, 1): (10_164, 186),
    }

    @pytest.mark.parametrize(
        "p, q", [(p, n - p) for n in range(2, 5) for p in range(1, n)]
    )
    def test_split_digest_is_pinned(self, p, q, monkeypatch) -> None:
        rows, planned = [], {}
        case_plan, read_cases = classify._case_plan, classify._read_cases

        def plan_spy(p, q, pairs):
            plan = case_plan(p, q, pairs)
            planned[id(plan)] = plan, pairs  # the plan is kept, so its id is too
            return plan

        def read_spy(plan, weights):
            pairs = planned[id(plan)][1]
            edges = tuple((i, j, w) for (i, j), w in zip(pairs, weights))
            g = RootedWeightedGraph(p + q, edges, p, q)
            tags = list(read_cases(plan, weights))
            rows.append((walk_canonical(g), tags[0].case, tags[0].swapped))
            return iter(tags)

        monkeypatch.setattr(classify, "_case_plan", plan_spy)
        monkeypatch.setattr(classify, "_read_cases", read_spy)
        tested, invariant, _, bad = classify._sweep_block((p, q, 2))
        assert (tested, invariant) == self.COUNTS[p, q]
        assert bad == [] and len(rows) == invariant
        assert len({row[0] for row in rows}) == invariant
        digest = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
        assert digest == self.DIGESTS.get((p, q)), (p, q, digest)


class TestCaseStage:
    """The sweep plans each edge pattern's cases once, reads each invariant
    weighting against that plan, and prices each lowest tag's grid once."""

    @pytest.mark.parametrize(
        "split, patterns, grids, invariant",
        [((2, 2, 2), 78, 320, 528), ((1, 3, 2), 39, 110, 186)],
    )
    def test_plans_and_grids_are_made_once(
        self, split, patterns, grids, invariant, monkeypatch
    ) -> None:
        planned, labelings, priced, holding = [], [], [], set()
        case_plan, labeling_plan = classify._case_plan, graph._labeling_plan
        grid_for_case, first_hole = classify._grid_for_case, classify._first_hole

        def plan_spy(p, q, pairs):
            planned.append(tuple(pairs))
            return case_plan(p, q, pairs)

        def labeling_spy(p, q, pairs, swapped):
            labelings.append((tuple(pairs), swapped))
            return labeling_plan(p, q, pairs, swapped)

        def grid_spy(p, q, tag):
            priced.append(tag)
            return grid_for_case(p, q, tag)

        def hole_spy(p, incidence, edges, vectors):
            found = first_hole(p, incidence, edges, vectors)
            if found[0] is None:
                holding.add(tuple(e[:2] for e in edges))
            return found

        monkeypatch.setattr(classify, "_case_plan", plan_spy)
        monkeypatch.setattr(graph, "_labeling_plan", labeling_spy)
        monkeypatch.setattr(classify, "_grid_for_case", grid_spy)
        monkeypatch.setattr(classify, "_first_hole", hole_spy)
        _, found, _, bad = classify._sweep_block(split)
        assert (found, bad) == (invariant, [])
        # one plan per pattern that holds an invariant graph, each labeling
        # the root touches planned once
        assert len(planned) == len(set(planned)) == patterns
        assert set(planned) == holding
        assert len(labelings) == len(set(labelings)) <= 2 * patterns
        assert len(priced) == len(set(priced)) == grids

    # every case's read is graph._groups_plan over slots of (fixed, bands);
    # by position, these weights put 2 at 0 and 1 and 3 at 2
    WEIGHTS = [2, 2, 3]

    def test_a_slots_first_alternative_that_reads_wins(self) -> None:
        read = graph._groups_plan(
            [
                ({"shape": "mixed"}, {"a": [0, 2]}),
                ({"shape": "first"}, {"a": [0, 1]}),
                ({"shape": "later"}, {"a": [2]}),
            ]
        )
        assert read(self.WEIGHTS) == [{"shape": "first", "a": 2}]

    def test_an_empty_band_reads_zero(self) -> None:
        read = graph._groups_plan([({}, {"a": [2], "b": []})])
        assert read(self.WEIGHTS) == [{"a": 3, "b": 0}]

    def test_a_slot_with_no_alternative_that_reads_gives_none(self) -> None:
        reads = [({}, {"a": [0]})]
        assert graph._groups_plan(reads, [({}, {"b": [1, 2]})])(self.WEIGHTS) is None
        assert graph._groups_plan(reads, [])(self.WEIGHTS) is None

    def test_one_group_per_slot_in_slot_order(self) -> None:
        read = graph._groups_plan(
            [({"x": "tree"}, {"c": [2]})], [({}, {"a": [0]})], [({"y": 1}, {})]
        )
        assert read(self.WEIGHTS) == [{"x": "tree", "c": 3}, {"a": 2}, {"y": 1}]

    def test_a_kept_plan_reads_as_a_fresh_one(self) -> None:
        # every plan is made before any graph is read, from the first graph
        # of its pattern, and then reads each graph of the pattern, invariant
        # or not; a read that saw state changed after its plan was made, by
        # a later plan say, would differ from match_theorem61's fresh plan
        graphs = list(connected_block_graphs(2, 2, 2))
        plans = {}
        for g in graphs:
            pairs = tuple(e[:2] for e in g.edges)
            if pairs not in plans:
                plans[pairs] = graph._case_plan(2, 2, pairs)
        counts = Counter()
        for g in graphs:
            plan = plans[tuple(e[:2] for e in g.edges)]
            tags = list(graph._read_cases(plan, [w for _, _, w in g.edges]))
            assert tags == match_theorem61(g), g
            counts[min(len(tags), 2)] += 1
        # graphs with no tag, one tag and several tags are all read
        assert len(graphs) == 14_901 and sorted(counts) == [0, 1, 2], counts

    def test_the_case_stage_searches_only_in_the_plan(self, monkeypatch) -> None:
        # the solver's items are listed first, so every structural search
        # in the sweep below belongs to the case stage
        split = (2, 2, 2)
        solved = [(n, list(gs)) for n, gs in classify._level_solutions(*split)]
        monkeypatch.setattr(classify, "_level_solutions", lambda p, q, w: solved)
        planning, inside, outside = [], [], []
        labeling_plan = graph._labeling_plan

        def labeling_spy(*args):
            planning.append(True)
            try:
                return labeling_plan(*args)
            finally:
                planning.pop()

        def watched(name, f):
            def spy(*args):
                (inside if planning else outside).append(name)
                return f(*args)

            return spy

        monkeypatch.setattr(graph, "_labeling_plan", labeling_spy)
        for name in (
            "_masks", "_reach", "_is_cycle_on", "_root_side_edges", "swap_blocks"
        ):
            monkeypatch.setattr(graph, name, watched(name, getattr(graph, name)))
        assert classify._sweep_block(split)[1] == 528
        assert outside == [] and {"_reach", "_is_cycle_on"} <= set(inside)

    def test_a_patterns_graphs_are_streamed(self) -> None:
        # the one pattern of three edges at (1, 1) has 40 ** 3 weightings,
        # every one level; listed, they take 17 MB
        tested = graphs = 0
        tracemalloc.start()
        try:
            for count, solved in classify._level_solutions(1, 1, 40):
                tested += count
                graphs += sum(1 for _ in solved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tested == graphs == 3 * 40**2 + 40**3
        assert peak < 1_000_000


def pattern_stabilizer(relabelings: tuple, pattern) -> list[list[int]]:
    """Stab(P), the identity first, as permutations of P's positions.

    relabelings is _block_relabelings' result for P's split, and pattern
    lists P's edges in slot order. Each block relabeling is tested against
    P in turn and kept when it maps P's slots onto themselves: the oracle
    of the stabilizer that _level_solutions reads off the walk.
    """
    _, index, perms = relabelings
    at = [index[i, j] for i, j, _ in pattern]
    position = {k: t for t, k in enumerate(at)}
    return [
        [position[perm[k]] for k in at]
        for perm in perms
        if {perm[k] for k in at} == position.keys()
    ]


class TestLevelSolver:
    """The sweep's per-pattern solver against the walk plus blocks_level."""

    @pytest.mark.parametrize(
        "p, q, max_w",
        [(p, n - p, w) for n in range(5) for p in range(n + 1) for w in (1, 2)]
        + [(2, 2, 3)],
    )
    def test_solutions_are_the_walks_survivors(self, p, q, max_w) -> None:
        tested, solved = 0, []
        for count, graphs in classify._level_solutions(p, q, max_w):
            tested += count
            solved += [RootedWeightedGraph(p + q, edges, p, q) for edges in graphs]
        leaves, survivors = 0, []
        for edges, nbrs, _, _ in classify._block_leaves(p, q, max_w):
            leaves += 1
            if blocks_level(p, edges, nbrs):
                survivors.append(RootedWeightedGraph(p + q, tuple(edges), p, q))
        # one graph per orbit, each under its own labeling, and no other
        assert sorted(map(walk_canonical, solved)) == sorted(
            map(walk_canonical, survivors)
        )
        assert tested == leaves == count_block_graphs(p, q, max_w)

    def test_each_solution_is_least_under_its_patterns_stabilizer(self) -> None:
        # exchanging 1 and 2 fixes this 4-cycle at (2, 1); its weightings
        # level both first-block vertices when w01 + w13 = w02 + w23, and of
        # the orbit {1221, 2112} only the lex-least is kept
        cycle = [(0, 1), (0, 2), (1, 3), (2, 3)]
        kept = [
            tuple(w for _, _, w in edges)
            for _, graphs in classify._level_solutions(2, 1, 2)
            for edges in graphs
            if [e[:2] for e in edges] == cycle
        ]
        assert kept == [
            (1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1), (2, 2, 2, 2)
        ]

    @pytest.mark.parametrize(
        "p, q, max_w, patterns",
        [(2, 2, 2, 230), (2, 2, 3, 230), (3, 1, 2, 162), (3, 1, 3, 162)],
    )
    def test_free_weightings_are_the_orbit_minima(self, p, q, max_w, patterns) -> None:
        # with no equality to meet, the solver's walk prunes by the shared
        # relabeling step alone, over Stab(P) built here from the slot maps
        relabelings = classify._block_relabelings(p, q)
        read = 0
        for g in connected_block_graphs(p, q, 1):
            read += 1
            stab = pattern_stabilizer(relabelings, g.edges)  # the identity first
            steps = [[] for _ in g.edges]
            walked = [
                tuple(w) for w in classify._level_weightings(steps, stab[1:], max_w)
            ]
            least = {
                min(tuple(x[t] for t in pi) for pi in stab)
                for x in itertools.product(range(1, max_w + 1), repeat=len(g.edges))
            }
            assert walked == sorted(least), g
            burnside = sum(max_w ** len(cycles(pi)) for pi in stab)
            assert len(walked) * len(stab) == burnside, g
        assert read == patterns

    @pytest.mark.parametrize(
        "p, q, max_w",
        [(p, n - p, w) for n in range(5) for p in range(n + 1) for w in (1, 2)]
        + [(2, 2, 3)],
    )
    def test_the_group_is_the_patterns_stabilizer(
        self, p, q, max_w, monkeypatch
    ) -> None:
        # the solver hands _level_weightings the group it read off the walk,
        # right after planning the pattern; at w = 1 it prunes nothing, so
        # it stays empty
        level_plans = classify._level_plans
        level_weightings = classify._level_weightings
        pattern, groups = None, []

        def plans_spy(p, edges, nbrs, max_w):
            nonlocal pattern
            pattern = tuple(edges)
            return level_plans(p, edges, nbrs, max_w)

        def weightings_spy(steps, group, max_w):
            groups.append((pattern, group))
            return level_weightings(steps, group, max_w)

        monkeypatch.setattr(classify, "_level_plans", plans_spy)
        monkeypatch.setattr(classify, "_level_weightings", weightings_spy)
        for _ in classify._level_solutions(p, q, max_w):
            pass
        relabelings = classify._block_relabelings(p, q)
        larger = 0  # the patterns whose stabilizer is not the identity alone
        for pattern, group in groups:
            stab = pattern_stabilizer(relabelings, pattern)
            expected = sorted(map(tuple, stab[1:])) if max_w > 1 else []
            assert sorted(map(tuple, group)) == expected, pattern
            larger += len(stab) > 1
        assert groups
        assert larger > 0 or max(p, q) < 2


class TestOneBlockBaseCase:
    """With q = 0 the sweep's walk, prefilter and swap-burn check count the
    graphs whose parking functions are invariant under every permutation,
    the base case of Gaydarov and Hopkins' classification."""

    @staticmethod
    def invariant_graphs(n: int, max_w: int):
        for edges, nbrs, _, _ in classify._block_leaves(n, 0, max_w):
            if blocks_level(n, edges, nbrs):
                g = RootedWeightedGraph(n, tuple(edges), n, 0)
                walk = _mpf_walk(g)
                hole, maximal = classify._first_hole(g.p, g.incidence, g.edges, walk)
                if hole is None:
                    yield g, maximal

    @pytest.mark.parametrize(
        "max_w, counts",
        [(1, [1, 3, 6, 11, 22]), (2, [2, 8, 14, 24]), (3, [3, 15, 24])],
    )
    def test_invariant_graphs_park_on_one_threshold_vector(
        self, max_w, counts
    ) -> None:
        found = []
        for n in range(1, len(counts) + 1):
            graphs = list(self.invariant_graphs(n, max_w))
            found.append(len(graphs))
            for g, maximal in graphs:
                (r,) = {tuple(sorted(vec)) for vec in maximal}
                assert set(maximal) == set(itertools.permutations(r))
                u = [x + 1 for x in r]
                box = itertools.product(range(r[-1] + 1), repeat=n)
                assert set(enumerate_pf(g)) == {a for a in box if is_vector_pf(a, u)}
        assert found == counts


class TestVectorCaseGrids:
    """The grids of cases iv.a, iv.b, v and vi are vector grids: a pair parks
    on one exactly when each half parks on its threshold vector. Checked on
    the graph's own parking set, with no grid walk or maximal pairs."""

    def test_parking_set_is_the_product_of_one_block_sets(self) -> None:
        graphs = points = 0
        for g in itertools.chain(
            *(connected_block_graphs(p, n - p, 2) for n in (2, 3) for p in range(1, n))
        ):
            if not is_invariant(g).invariant:
                continue
            built = construct_u_for_graph(g)
            if built.case.case not in ("iv.a", "iv.b", "v", "vi"):
                continue
            grid = built.grid
            u = [grid.u[i][0] for i in range(g.p)]
            v = [grid.v[0][j] for j in range(g.q)]
            parking = set(enumerate_pf(g))
            graphs += 1
            for pair in itertools.product(range(max(u + v) + 1), repeat=g.n):
                points += 1
                a, b = pair[: g.p], pair[g.p :]
                assert (pair in parking) == (
                    is_vector_pf(a, u) and is_vector_pf(b, v)
                ), (g, pair)
        assert (graphs, points) == (100, 3695)


class TestSearchGraph:
    def test_symmetric_grid_has_a_graph(self) -> None:
        grid = grid_from_affine(1, 1, a=1, b=0, c=1, cprime=1, d=0, e=1)
        found, tested = search_graph_matching_grid(grid, 2)
        assert found is not None and tested >= 1
        assert verify_equality(found, grid)

    def test_weight_bound_must_be_an_int(self) -> None:
        grid = grid_from_affine(1, 1, a=1, b=0, c=1, cprime=1, d=0, e=1)
        with pytest.raises(InvalidParameters, match="max_w must be an integer"):
            search_graph_matching_grid(grid, 2.5)

    def test_asymmetric_grid_has_none(self) -> None:
        grid = grid_from_affine(1, 1, a=1, b=0, c=1, cprime=2, d=0, e=1)
        found, tested = search_graph_matching_grid(grid, 2)
        assert found is None and tested == 20


class TestKeptLeavesAreCopies:
    """_block_leaves yields its live edge list; whoever keeps a leaf copies it.
    A consumer that kept the list would hand out graphs whose edges are a
    list the walk goes on changing: they would not hash or compare equal."""

    def test_connected_block_graphs_yield_tuples(self) -> None:
        graphs = list(connected_block_graphs(2, 2, 2))
        assert all(type(g.edges) is tuple for g in graphs)
        assert len(set(graphs)) == len(graphs) == count_block_graphs(2, 2, 2)

    def test_a_search_hit_is_the_built_graph(self) -> None:
        bands = {"a": 1, "b": 0, "c": 1, "cprime": 1, "d": 0, "e": 1}
        found, tested = search_graph_matching_grid(grid_from_affine(2, 2, **bands), 1)
        assert found == graph_from_affine_u(2, 2, **bands)
        assert tested == 215


def sweep_invariant_graphs():
    """The 1,120 invariant graphs of sweep_classification(4, 2), by its route."""
    for n in range(2, 5):
        for p in range(1, n):
            for edges, nbrs, _, _ in classify._block_leaves(p, n - p, 2):
                if blocks_level(p, edges, nbrs):
                    g = RootedWeightedGraph(n, tuple(edges), p, n - p)
                    walk = _mpf_walk(g)
                    if classify._first_hole(g.p, g.incidence, g.edges, walk)[0] is None:
                        yield g


class TestOneGridPerConstruction:
    """A swapped case's grid is built in the graph's own orientation, in one
    validated construction, with grid_transpose as the oracle."""

    @pytest.fixture(scope="class")
    def graphs(self) -> list:
        return list(sweep_invariant_graphs())

    def test_swapped_grids_are_the_transposed_tag_grids(self, graphs) -> None:
        cases: Counter[str] = Counter()
        for g in graphs:
            for tag in match_theorem61(g):
                if tag.swapped:
                    own = FamilyTag(tag.kind, tag.case, tag.params)
                    want = grid_transpose(classify._grid_for_case(g.q, g.p, own))
                    assert classify._grid_for_case(g.p, g.q, tag) == want, (g, tag)
                    cases[tag.case] += 1
        assert len(graphs) == 1_120
        assert sorted(cases.items()) == [
            ("i.a", 20), ("i.b", 6), ("i.c", 4), ("ii", 16), ("iii", 264),
            ("iv.a", 204), ("iv.b", 36), ("v", 220), ("vi", 292),
        ]

    def test_each_construction_validates_one_grid(self, graphs, monkeypatch) -> None:
        validated = 0
        post_init = WeightGrid.__post_init__

        def counted(grid) -> None:
            nonlocal validated
            validated += 1
            post_init(grid)

        monkeypatch.setattr(WeightGrid, "__post_init__", counted)
        swapped = 0
        for g in graphs:
            before = validated
            swapped += construct_u_for_graph(g).swapped
            assert validated == before + 1, g
        assert swapped == 412

    def test_the_matcher_swaps_without_relabel_for_blocks(self, monkeypatch) -> None:
        # FOUR_CYCLE's root touches vertex 2 in A and vertex 3 in B, and its
        # one case lies under the swapped labeling
        def refuse(*args):
            raise AssertionError("relabel_for_blocks re-checked the graph's own split")

        monkeypatch.setattr(graph, "relabel_for_blocks", refuse)
        assert case_list(FOUR_CYCLE) == [("i.b", True)]


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
        assert tag.kind == "uniform_cycle" and dict(tag.params)["a"] == 3

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


class TestRecognizerCounts:
    """Families and case lists of every block graph with n <= 3, weights <= 2."""

    WITH_BLOCKS = {
        "banded_complete": 10, "i.b": 8, "i.c": 4, "ii": 16, "iii": 56,
        "iv.a": 32, "two_weight_tree": 42, "unclassified": 484,
        "uniform_cycle": 10, "uniform_path": 28, "uniform_star": 6,
        "uniform_tree": 8,
    }
    WITHOUT_BLOCKS = {
        "banded_complete": 10, "unclassified": 642, "uniform_cycle": 10,
        "uniform_path": 28, "uniform_star": 6, "uniform_tree": 8,
    }
    # sha256 of repr() of every graph's [(case, swapped), ...] match list
    MATCH_DIGEST = "f6cf70b47cf32b8b8351bf45d32c6c27e72bccc216c86710e7776da48f9fde2f"

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

    def test_family_is_the_lowest_case_match(self) -> None:
        # where no structural family applies, the family is match_theorem61's
        # first tag, swapped labelings included, and "unclassified" only when
        # no case matches
        graphs = 0
        for n in (2, 3):
            for p in range(1, n):
                for g in connected_block_graphs(p, n - p, 2):
                    graphs += 1
                    tag = recognize_family(g)
                    if tag.kind not in ("invariant_case", "unclassified"):
                        continue
                    tags = match_theorem61(g)
                    assert (tag.kind == "unclassified") == (not tags), g
                    if tags:
                        assert tag == tags[0], g
        assert graphs == 704

    # sha256 of repr() of every graph's full case tags, matches and grid (or
    # the error type and message), empty blocks included
    TAG_DIGEST = "534ecaf6525b98f2541c7b09c7fcfbb6897a8285db02b093227c429c3ceec571"

    def test_full_tags_and_grids_are_pinned(self) -> None:
        def outcome(f, g):
            try:
                return f(g)
            except DomainError as exc:
                return type(exc).__name__, str(exc)

        digest = hashlib.sha256()
        graphs = 0
        for n in range(1, 4):
            for p in range(n + 1):
                for g in connected_block_graphs(p, n - p, 2):
                    graphs += 1
                    record = [
                        outcome(f, g)
                        for f in (
                            matching_invariant_cases,
                            match_theorem61,
                            construct_u_for_graph,
                        )
                    ]
                    digest.update(repr(record).encode() + b"\n")
        assert graphs == 1006
        assert digest.hexdigest() == self.TAG_DIGEST

    # sha256 over repr([t.to_json() for t in match_theorem61(g)]) of every
    # graph below, in generation order
    MATCHER_DIGEST = "76f649bf6297b5b56d9063ba3c8a69f584e266dca1ed3ce89b0424d358eeac75"

    def test_matcher_tags_are_pinned(self) -> None:
        shapes = [(p, n - p, 1) for n in range(2, 5) for p in range(1, n)]
        digest = hashlib.sha256()
        graphs = 0
        for p, q, max_w in shapes + [(2, 2, 2), (3, 1, 2)]:
            for g in connected_block_graphs(p, q, max_w):
                graphs += 1
                tags = [t.to_json() for t in match_theorem61(g)]
                digest.update(repr(tags).encode())
        assert graphs == 25_669
        assert digest.hexdigest() == self.MATCHER_DIGEST

    # sha256 over repr([t.to_json() for t in f(g)]) for f = matching_invariant_cases
    # and then match_theorem61, of every graph of the split that
    # MATCHER_DIGEST leaves out at w = 2, in generation order
    SPLIT_13_DIGEST = "e14aca29c08c10ae71aa416fb98324907c4dc52f84365be0edb9e41af531523b"

    def test_matcher_tags_on_split_one_three_are_pinned(self) -> None:
        digest = hashlib.sha256()
        graphs = 0
        for g in connected_block_graphs(1, 3, 2):
            graphs += 1
            for f in (matching_invariant_cases, match_theorem61):
                digest.update(repr([t.to_json() for t in f(g)]).encode())
        assert graphs == 10_164
        assert digest.hexdigest() == self.SPLIT_13_DIGEST

    # sha256 over repr(recognize_family(h).to_json()) of every graph below,
    # with its blocks and then without, in generation order
    FAMILY_DIGEST = "aa2aa65bc1e50380a8b24d9a5fad4a7758d2d88714e9f543e462128383321abb"

    def test_families_are_pinned(self) -> None:
        digest = hashlib.sha256()
        graphs = 0
        for n in range(1, 5):
            for p in range(n + 1):
                for g in connected_block_graphs(p, n - p, 2):
                    graphs += 1
                    for h in (g, build_graph(g.n, g.edges)):
                        tag = recognize_family(h).to_json()
                        digest.update(repr(tag).encode() + b"\n")
        assert graphs == 41_977
        assert digest.hexdigest() == self.FAMILY_DIGEST

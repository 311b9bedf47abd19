"""Acyclic unique-source orientations and their parking bijection."""

from __future__ import annotations

import random
import time

import pytest

from parklab import (
    Orientation,
    build_graph,
    enumerate_A,
    enumerate_mpf,
    indegree,
    mpf_to_orientation,
    orientation_to_mpf,
)
from parklab.classify import connected_block_graphs
from parklab.orientations import (
    enumerate_A_bruteforce,
    has_unique_source,
    in_A,
    indegree_vector,
    is_acyclic,
)
from parklab.errors import (
    InconsistentIndegrees,
    LengthMismatch,
    NotInA,
    NotMaximal,
    ShapeMismatch,
    TooLarge,
)
from conftest import DIAMOND_MPF, random_connected_graph_capped


def _walk_graphs():
    """The 704 block graphs with n <= 3, a 12-star, a 12-path, a chorded star."""
    graphs = [
        g
        for n in (2, 3)
        for p in range(1, n)
        for g in connected_block_graphs(p, n - p, 2)
    ]
    assert len(graphs) == 704
    graphs.append(build_graph(12, [(0, v, 1) for v in range(1, 13)]))
    graphs.append(build_graph(12, [(v - 1, v, 1) for v in range(1, 13)]))
    chords = [(1, 2, 1), (5, 9, 2)]
    graphs.append(build_graph(10, [(0, v, 1) for v in range(1, 11)] + chords))
    assert len(enumerate_A(graphs[-1])) == 4
    return graphs


class TestIndegree:
    def test_root_never_receives(self, diamond):
        for o in enumerate_A(diamond):
            assert indegree(o, 0) == 0

    def test_sink_receives_weighted_degree(self):
        g = build_graph(2, [(0, 1, 2), (0, 2, 3), (1, 2, 4)])
        for o in enumerate_A(g):
            counts = indegree_vector(o)
            sinks = [
                v
                for v in range(1, 3)
                if all(t != v for t, _, _ in o.directed_edges())
            ]
            for v in sinks:
                expected = sum(w for _, w in g.neighbors(v))
                assert counts[v] == expected

    def test_heavy_sink_realization(self, diamond):
        realized = {
            orientation_to_mpf(o): o for o in enumerate_A(diamond)
        }
        heavy = realized[(5, 1, 2)]
        assert indegree(heavy, 1) == 6


class TestEnumerateA:
    def test_tree_unique(self):
        g = build_graph(3, [(0, 1, 1), (1, 2, 2), (1, 3, 1)])
        assert len(enumerate_A(g)) == 1

    def test_diamond_count_matches_maximal_set(self, diamond):
        assert len(enumerate_A(diamond)) == len(DIAMOND_MPF)

    def test_triangle_two(self):
        g = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert len(enumerate_A(g)) == 2

    def test_agrees_with_bruteforce(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_connected_graph_capped(rng, 5, 12)
            if len(g.edges) > 10:
                continue
            fast = {o.heads for o in enumerate_A(g)}
            slow = {o.heads for o in enumerate_A_bruteforce(g)}
            assert fast == slow

    def test_each_orientation_is_built_once(self):
        for g in _walk_graphs():
            vectors = enumerate_mpf(g)
            assert len(vectors) == len(set(vectors))
            assert set(vectors) == {
                orientation_to_mpf(o) for o in enumerate_A_bruteforce(g)
            }

    def test_orientations_come_sorted_by_heads(self):
        for g in _walk_graphs():
            assert [o.heads for o in enumerate_A(g)] == sorted(
                o.heads for o in enumerate_A_bruteforce(g)
            )

    def test_star_walks_one_order(self):
        star = build_graph(20, [(0, v, 1) for v in range(1, 21)])
        start = time.perf_counter()
        assert enumerate_mpf(star) == [(0,) * 20]
        assert len(enumerate_A(star)) == 1
        assert time.perf_counter() - start < 1.0

    def test_bruteforce_keeps_its_guard(self):
        path = build_graph(13, [(v - 1, v, 1) for v in range(1, 14)])
        with pytest.raises(TooLarge, match="brute force guarded at 12 edges; got 13"):
            enumerate_A_bruteforce(path)

    def test_members_pass_predicates(self, diamond):
        for o in enumerate_A(diamond):
            assert is_acyclic(o)
            assert has_unique_source(o)

    def test_cycle_among_non_root_vertices_is_not_acyclic(self):
        # 0 -> 1 -> 2 -> 3 -> 1: every non-root vertex has an in-edge, so
        # only the cycle keeps the orientation out of A(G)
        g = build_graph(3, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)])
        cyclic = Orientation(g, (1, 2, 1, 3))
        assert has_unique_source(cyclic)
        assert not is_acyclic(cyclic)
        assert not in_A(cyclic)
        # reversing 3 -> 1 to 1 -> 3 breaks the cycle
        acyclic = Orientation(g, (1, 2, 3, 3))
        assert is_acyclic(acyclic)
        assert in_A(acyclic)


class TestBijection:
    def test_diamond_images(self, diamond):
        images = {orientation_to_mpf(o) for o in enumerate_A(diamond)}
        assert images == DIAMOND_MPF

    def test_tree_image_is_parent_weights(self):
        g = build_graph(3, [(0, 1, 2), (1, 2, 3), (1, 3, 4)])
        (o,) = enumerate_A(g)
        assert orientation_to_mpf(o) == (1, 2, 3)

    def test_rejects_cyclic(self):
        g = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        cyclic = Orientation(g, (1, 0, 2))
        with pytest.raises(NotInA):
            orientation_to_mpf(cyclic)

    @pytest.mark.parametrize(
        "heads, message",
        [((1, 2), "one head per edge"), ((1, 2, 0), "head 0 not an endpoint")],
    )
    def test_heads_must_fit_the_edges(self, heads, message):
        g = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        with pytest.raises(LengthMismatch, match=message):
            Orientation(g, heads)

    @pytest.mark.parametrize("head", [True, 1.0])
    def test_a_non_int_head_is_a_shape_mismatch(self, head):
        # True == 1 passes the endpoint test, so the type is checked first
        g = build_graph(2, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(ShapeMismatch) as caught:
            Orientation(g, (head, 2))
        assert str(caught.value) == f"head {head!r} is not an integer"

    def test_round_trip_identity(self):
        rng = random.Random(43)
        for _ in range(30):
            g = random_connected_graph_capped(rng, 5, 12)
            for o in enumerate_A(g):
                b = orientation_to_mpf(o)
                assert mpf_to_orientation(g, b).heads == o.heads

    def test_non_maximal_rejected(self, diamond):
        with pytest.raises(NotMaximal):
            mpf_to_orientation(diamond, (0, 0, 0))

    def test_right_sum_that_does_not_park_is_rejected(self, diamond):
        with pytest.raises(InconsistentIndegrees):
            mpf_to_orientation(diamond, (0, 0, 8))

    def test_image_sum_is_total_weight_minus_n(self):
        rng = random.Random(47)
        for _ in range(30):
            g = random_connected_graph_capped(rng, 5, 12)
            total = sum(w for _, _, w in g.edges)
            for o in enumerate_A(g):
                counts = indegree_vector(o)
                assert sum(counts) == total
                assert sum(orientation_to_mpf(o)) == total - g.n

    def test_size_matches_maximal_enumeration(self):
        rng = random.Random(53)
        for _ in range(25):
            g = random_connected_graph_capped(rng, 5, 12)
            orientations = enumerate_A(g)
            maximal = enumerate_mpf(g)
            assert len(orientations) == len(maximal)
            assert {orientation_to_mpf(o) for o in orientations} == set(
                maximal
            )


class TestSerialization:
    def test_tokens_follow_edge_order(self):
        g = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        o = Orientation(g, (1, 2, 2))
        assert o.tokens() == ("0->1", "0->2", "1->2")

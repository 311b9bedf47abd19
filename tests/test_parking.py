"""Membership, enumeration, and maximality for the parking families."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parklab import (
    RootedWeightedGraph,
    build_graph,
    enumerate_mpf,
    enumerate_pf,
    is_classical_pf,
    is_g_pf,
    is_g_pf_by_subsets,
    is_maximal,
    is_vector_pf,
    order_statistics,
)
from parklab.errors import (
    InvalidParameters,
    LengthMismatch,
    NotAParkingFunction,
    ShapeMismatch,
    TooLarge,
    UNotMonotone,
)
from parklab import parking
from parklab.orientations import (
    enumerate_A_bruteforce,
    mpf_to_orientation,
    orientation_to_mpf,
)
from parklab.parking import _burn_order, _down_set
from conftest import DIAMOND_MPF, random_connected_graph, random_connected_graph_capped


def classical_pf_oracle(v: tuple[int, ...]) -> bool:
    ordered = sorted(v)
    return all(ordered[i] < i + 1 for i in range(len(v)))


def predecessor_down_set(tops, limit: int) -> list[tuple[int, ...]]:
    """Reference closure: lower one entry at a time, probing a seen set."""
    seen = set(tops)
    if len(seen) > limit:
        raise TooLarge(f"parking set exceeds the guard of {limit}")
    stack = list(seen)
    while stack:
        vec = stack.pop()
        for idx, entry in enumerate(vec):
            if entry:
                smaller = vec[:idx] + (entry - 1,) + vec[idx + 1 :]
                if smaller not in seen:
                    seen.add(smaller)
                    if len(seen) > limit:
                        raise TooLarge(f"parking set exceeds the guard of {limit}")
                    stack.append(smaller)
    return sorted(seen)


def matrix_tree_count(g: RootedWeightedGraph) -> int:
    """|PF(g)|: the determinant of the reduced weighted Laplacian (Bareiss)."""
    n = g.n
    lap = [[0] * n for _ in range(n)]
    for i, j, w in g.edges:
        for v in (i, j):
            if v != 0:
                lap[v - 1][v - 1] += w
        if i and j:
            lap[i - 1][j - 1] -= w
            lap[j - 1][i - 1] -= w
    sign, prev = 1, 1
    for k in range(n - 1):
        if lap[k][k] == 0:
            rows = [r for r in range(k + 1, n) if lap[r][k]]
            if not rows:
                return 0
            lap[k], lap[rows[0]] = lap[rows[0]], lap[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                lap[i][j] = (lap[i][j] * lap[k][k] - lap[i][k] * lap[k][j]) // prev
        prev = lap[k][k]
    return sign * lap[n - 1][n - 1] if n else 1


class TestOrderStatistics:
    def test_mixed(self):
        assert order_statistics((1, 1, 3, 0, 1)) == (0, 1, 1, 1, 3)

    def test_empty(self):
        assert order_statistics(()) == ()

    def test_rejected_sequence(self):
        assert order_statistics((2, 3, 2, 4, 3)) == (2, 2, 3, 3, 4)


class TestClassicalMembership:
    def test_accepted_examples(self):
        for v in ((0, 1, 3, 2, 4), (0, 0, 2, 2, 4), (1, 1, 3, 0, 1)):
            assert is_classical_pf(v)

    def test_rejected_example(self):
        assert not is_classical_pf((2, 3, 2, 4, 3))

    def test_all_zero(self):
        assert is_classical_pf((0,) * 6)

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=6))
    def test_matches_sorted_definition(self, values):
        assert is_classical_pf(values) == classical_pf_oracle(tuple(values))


class TestVectorMembership:
    def test_classical_bound_vector(self):
        assert is_vector_pf((0, 1, 2), (1, 2, 3))

    def test_tie_rejected(self):
        assert not is_vector_pf((1, 1), (1, 3))

    def test_loose_bound(self):
        assert is_vector_pf((0, 4), (2, 5))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            is_vector_pf((0, 1), (1, 2, 3))

    def test_bound_must_be_monotone(self):
        with pytest.raises(UNotMonotone):
            is_vector_pf((0, 1), (2, 1))

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=6))
    def test_consistent_with_classical(self, values):
        u = tuple(range(1, len(values) + 1))
        assert is_vector_pf(values, u) == is_classical_pf(values)


class TestNegativeEntries:
    """A negative entry never parks, by any of the membership tests."""

    @pytest.mark.parametrize("n", range(4))
    def test_classical_vector_and_complete_graph_agree(self, n):
        complete = build_graph(
            n, [(i, j, 1) for i, j in itertools.combinations(range(n + 1), 2)]
        )
        u = tuple(range(1, n + 1))
        for b in itertools.product(range(-1, n + 1), repeat=n):
            assert is_classical_pf(b) == is_g_pf(complete, b)
            assert is_vector_pf(b, u) == is_classical_pf(b)

    def test_threshold_errors_come_first(self):
        with pytest.raises(LengthMismatch):
            is_vector_pf((-1, 0), (1, 2, 3))
        with pytest.raises(UNotMonotone):
            is_vector_pf((-1, 0), (2, 1))


class TestIntegerEntries:
    """Membership tests take Python ints only; ShapeMismatch names the first other."""

    TRIANGLE = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda g: is_g_pf(g, (0.5, 0)), "vector entry 0.5"),
            (lambda g: is_g_pf(g, ("0", 0)), "vector entry '0'"),
            (lambda g: is_maximal(g, (True, False)), "vector entry True"),
            (lambda g: is_g_pf_by_subsets(g, (0, 1.0)), "vector entry 1.0"),
            (lambda g: mpf_to_orientation(g, (1.0, 0)), "vector entry 1.0"),
            (lambda g: is_classical_pf((0.5,)), "vector entry 0.5"),
            (lambda g: is_classical_pf((0, False)), "vector entry False"),
            (lambda g: is_vector_pf((0.0,), (1,)), "vector entry 0.0"),
            (lambda g: is_vector_pf((0,), (1.5,)), "threshold 1.5"),
            (lambda g: is_vector_pf((0,), (True,)), "threshold True"),
        ],
    )
    def test_a_non_int_entry_is_a_shape_mismatch(self, call, named):
        with pytest.raises(ShapeMismatch) as caught:
            call(self.TRIANGLE)
        assert str(caught.value) == f"{named} is not an integer"

    def test_length_is_checked_first(self):
        with pytest.raises(LengthMismatch):
            is_g_pf(self.TRIANGLE, (0.5,))
        with pytest.raises(LengthMismatch):
            is_vector_pf((0.5,), (1, 2))

    def test_classical_parking_needs_a_sequence(self):
        # an iterator has no length, as in is_vector_pf and is_g_pf
        with pytest.raises(TypeError):
            is_classical_pf(iter([5]))
        assert not is_classical_pf([5])

    @pytest.mark.parametrize("guard", [1.5, True])
    def test_the_guard_must_be_an_int(self, guard):
        with pytest.raises(InvalidParameters) as caught:
            enumerate_pf(self.TRIANGLE, max_set=guard)
        assert str(caught.value) == f"max_set must be an integer, got {guard!r}"


class TestGraphMembership:
    def test_diamond_member(self, diamond):
        assert is_g_pf(diamond, (5, 1, 2))

    def test_diamond_dominating_vector_rejected(self, diamond):
        assert not is_g_pf(diamond, (6, 1, 2))

    def test_zero_vector_always_member(self, diamond):
        assert is_g_pf(diamond, (0, 0, 0))

    def test_length_checked(self, diamond):
        with pytest.raises(LengthMismatch):
            is_g_pf(diamond, (0, 0))

    def test_negative_entry_never_parks(self, diamond):
        assert not is_g_pf(diamond, (0, -1, 0))
        assert not is_g_pf_by_subsets(diamond, (0, -1, 0))

    def test_burning_agrees_with_subset_scan(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_connected_graph_capped(rng, 5, 12)
            bound = max(w for _, _, w in g.edges) + 1
            for _ in range(10):
                b = tuple(rng.randrange(-1, bound + 1) for _ in range(g.n))
                assert is_g_pf(g, b) == is_g_pf_by_subsets(g, b)

    def test_burn_order_is_the_smallest_first_scan(self):
        def scan(g, b):
            alive = set(range(1, g.n + 1))
            out = {
                v: sum(w for u, w in g.neighbors(v) if u not in alive)
                for v in alive
            }
            order = [0]
            while alive:
                ready = [v for v in sorted(alive) if b[v - 1] < out[v]]
                if not ready:
                    return None
                order.append(ready[0])
                alive.remove(ready[0])
                for u, w in g.neighbors(ready[0]):
                    if u in alive:
                        out[u] += w
            return order

        rng = random.Random(67)
        stalls = 0
        for _ in range(1500):
            g = random_connected_graph(rng, 9, 3)
            b = tuple(
                rng.randint(0, sum(w for _, w in g.neighbors(v)))
                for v in range(1, g.n + 1)
            )
            expected = scan(g, b)
            stalls += expected is None
            assert _burn_order(g, b) == expected
        assert 0 < stalls < 1500

    def test_burning_has_no_size_guard(self):
        path = build_graph(30, [(v - 1, v, 1) for v in range(1, 31)])
        assert is_g_pf(path, (0,) * 30)
        assert is_maximal(path, (0,) * 30)

    def test_subset_scan_keeps_its_guard(self):
        path = build_graph(25, [(v - 1, v, 1) for v in range(1, 26)])
        with pytest.raises(TooLarge, match="subset scan guarded at 24 vertices; got 25"):
            is_g_pf_by_subsets(path, (0,) * 25)


class TestEnumerate:
    def test_single_edge(self):
        g = build_graph(1, [(0, 1, 1)])
        assert enumerate_pf(g) == [(0,)]

    def test_triangle_classical(self):
        g = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert set(enumerate_pf(g)) == {(0, 0), (0, 1), (1, 0)}

    def test_diamond_downset_of_maximals(self, diamond):
        full = set(enumerate_pf(diamond))
        assert DIAMOND_MPF <= full
        for b in full:
            assert any(
                all(x <= y for x, y in zip(b, m)) for m in DIAMOND_MPF
            )

    def test_diamond_maximals(self, diamond):
        assert set(enumerate_mpf(diamond)) == DIAMOND_MPF

    def test_tree_single_maximal(self):
        g = build_graph(3, [(0, 1, 2), (1, 2, 3), (1, 3, 4)])
        assert enumerate_mpf(g) == [(1, 2, 3)]

    def test_long_path_walks_without_recursion(self):
        # deeper than the interpreter's recursion limit
        g = build_graph(1200, [(v - 1, v, 1) for v in range(1, 1201)])
        assert enumerate_mpf(g) == [(0,) * 1200]
        assert enumerate_pf(g) == [(0,) * 1200]

    def test_triangle_maximals(self):
        g = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert set(enumerate_mpf(g)) == {(0, 1), (1, 0)}

    def test_root_alone_has_the_empty_vector(self):
        assert enumerate_mpf(RootedWeightedGraph(0, (), 0, 0)) == [()]

    def test_root_without_edges_has_no_maximal_vector(self):
        g = build_graph(2, [(1, 2, 1)], require_connected=False)
        assert enumerate_mpf(g) == []
        assert enumerate_pf(g) == []

    def test_guard_respected(self, diamond):
        with pytest.raises(TooLarge):
            enumerate_pf(diamond, max_set=3)

    def test_guard_counts_the_set_exactly(self, diamond):
        size = len(enumerate_pf(diamond))
        assert len(enumerate_pf(diamond, max_set=size)) == size
        with pytest.raises(TooLarge):
            enumerate_pf(diamond, max_set=size - 1)

    def test_guard_trips_before_the_walk_ends(self, monkeypatch):
        walk = parking._mpf_walk
        yielded = 0

        def counted(g):
            nonlocal yielded
            for vec in walk(g):
                yielded += 1
                yield vec

        monkeypatch.setattr(parking, "_mpf_walk", counted)
        # K_9 has 8! = 40,320 maximal vectors
        k9 = build_graph(8, [(i, j, 1) for i in range(9) for j in range(i + 1, 9)])
        with pytest.raises(TooLarge, match="guard of 10"):
            enumerate_pf(k9, max_set=10)
        assert 0 < yielded <= 11

    def test_size_is_the_matrix_tree_count(self):
        rng = random.Random(4003)
        for _ in range(50):
            g = random_connected_graph(rng, 6, 3)
            assert len(enumerate_pf(g)) == matrix_tree_count(g)

    def test_dense_graphs_at_real_sizes_have_the_matrix_tree_count(self):
        # n = 7 with 14 edges of weight 1-2 and 16k-20k parking functions
        rng = random.Random(2907)
        checked = 0
        while checked < 3:
            edges = {(rng.randrange(v), v): rng.randint(1, 2) for v in range(1, 8)}
            pool = [(i, j) for i in range(7) for j in range(i + 1, 8)]
            rng.shuffle(pool)
            for pair in pool:
                if len(edges) == 14:
                    break
                edges.setdefault(pair, rng.randint(1, 2))
            g = build_graph(7, [(i, j, w) for (i, j), w in edges.items()])
            count = matrix_tree_count(g)
            if not 16_000 <= count <= 20_000:
                continue
            pfs = enumerate_pf(g)
            assert len(pfs) == count
            assert all(a < b for a, b in zip(pfs, pfs[1:]))
            checked += 1

    def test_negative_guard_is_rejected(self, diamond, monkeypatch):
        with pytest.raises(InvalidParameters, match="max_set must be >= 0, got -1"):
            enumerate_pf(diamond, max_set=-1)
        monkeypatch.setenv("PARKLAB_MAX_SET", "-3")
        with pytest.raises(
            InvalidParameters, match="PARKLAB_MAX_SET must be >= 0, got -3"
        ):
            enumerate_pf(diamond)

    def test_zero_guard_is_a_guard(self, diamond, monkeypatch):
        with pytest.raises(TooLarge, match="guard of 0"):
            enumerate_pf(diamond, max_set=0)
        monkeypatch.setenv("PARKLAB_MAX_SET", "0")
        with pytest.raises(TooLarge, match="guard of 0"):
            enumerate_pf(diamond)

    def test_maximals_match_brute_force_orientations(self):
        rng = random.Random(2305)
        checked = 0
        while checked < 50:
            g = random_connected_graph(rng, 5, 3)
            if len(g.edges) > 10:
                continue
            brute = {orientation_to_mpf(o) for o in enumerate_A_bruteforce(g)}
            assert enumerate_mpf(g) == sorted(brute)
            checked += 1

    def test_classical_specialization_small(self):
        for n in (2, 3):
            edges = [
                (i, j, 1) for i in range(n) for j in range(i + 1, n + 1)
            ]
            g = build_graph(n, edges)
            got = set(enumerate_pf(g))
            oracle = {
                v
                for v in itertools.product(range(n), repeat=n)
                if classical_pf_oracle(v)
            }
            assert got == oracle
            assert len(got) == (n + 1) ** (n - 1)


class TestDownSet:
    @staticmethod
    def outcome(closure, tops, limit):
        try:
            return closure(tops, limit)
        except TooLarge as exc:
            return str(exc)

    def test_matches_the_predecessor_search(self):
        rng = random.Random(1511)
        families = [[], [()], [(), ()]]
        for _ in range(1500):
            n = rng.randint(0, 5)
            tops = [
                tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(0, 6))
            ]
            if tops and rng.random() < 0.5:
                tops.append(rng.choice(tops))
            if tops and rng.random() < 0.5:
                above = rng.choice(tops)
                tops.append(tuple(rng.randint(0, x) for x in above))
            rng.shuffle(tops)
            families.append(tops)
        for tops in families:
            want = predecessor_down_set(tops, len(tops) * 4**5)
            assert _down_set(iter(tops), len(want)) == want
            for limit in {0, max(len(want) - 1, 0), len(want)}:
                assert self.outcome(_down_set, iter(tops), limit) == self.outcome(
                    predecessor_down_set, tops, limit
                )

    def test_blocks_reused_from_the_memo_match_the_predecessor_search(self):
        # tops share a small pool of three-entry suffixes, so prefixes share
        # their last three coordinates' blocks
        rng = random.Random(2929)
        reused = 0
        for _ in range(300):
            n = rng.randint(4, 7)
            k = n - 3
            pool = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(3)]
            tops = [
                tuple(rng.randint(0, 2) for _ in range(k)) + rng.choice(pool)
                for _ in range(rng.randint(1, 6))
            ]
            want = predecessor_down_set(tops, 3**k * 4**3)
            limits = {0, 1, len(want) // 2, len(want) - 1, len(want)}
            # a limit inside the first block emitted again under a later
            # prefix: the block covering a prefix is keyed by its suffixes
            keys = set()
            start = 0
            for prefix, group in itertools.groupby(want, key=lambda v: v[:k]):
                size = len(list(group))
                key = frozenset(
                    t[k:] for t in tops if all(map(int.__ge__, t, prefix))
                )
                if key in keys:
                    limits.add(start + size // 2)
                    reused += 1
                    break
                keys.add(key)
                start += size
            assert _down_set(iter(tops), len(want)) == want
            for limit in limits:
                assert self.outcome(_down_set, iter(tops), limit) == self.outcome(
                    predecessor_down_set, tops, limit
                )
        assert reused >= 250

    def test_entry_past_the_guard_is_refused_before_it_is_built(self):
        for tops in (
            [(10**12,)],
            [(1, 10**12)],
            [(10**12, 0, 0)],
            [(0, 10**12, 0)],
            [(0, 0, 10**12)],
            [(1, 1, 1, 10**12)],
        ):
            with pytest.raises(TooLarge, match="guard of 100"):
                _down_set(tops, 100)


class TestMaximality:
    def test_diamond_maximal_member(self, diamond):
        assert is_maximal(diamond, (5, 1, 2))

    def test_zero_not_maximal(self, diamond):
        assert not is_maximal(diamond, (0, 0, 0))

    def test_dominated_not_maximal(self, diamond):
        assert not is_maximal(diamond, (4, 1, 2))

    def test_requires_membership(self, diamond):
        with pytest.raises(NotAParkingFunction):
            is_maximal(diamond, (6, 1, 2))

    def test_agrees_with_the_definition(self):
        rng = random.Random(59)
        for _ in range(30):
            g = random_connected_graph_capped(rng, 5, 12)
            members = set(enumerate_pf(g))
            accepted = []
            for b in members:
                grows = any(
                    b[:k] + (b[k] + 1,) + b[k + 1 :] in members
                    for k in range(g.n)
                )
                assert is_maximal(g, b) == (not grows)
                if not grows:
                    accepted.append(b)
            assert sorted(accepted) == enumerate_mpf(g)


class TestParkingProperties:
    def test_downset_closure(self):
        rng = random.Random(29)
        for _ in range(20):
            g = random_connected_graph_capped(rng, 4, 9)
            members = set(enumerate_pf(g))
            sample = rng.sample(sorted(members), min(8, len(members)))
            for b in sample:
                for i in range(g.n):
                    if b[i] == 0:
                        continue
                    below = b[:i] + (b[i] - 1,) + b[i + 1 :]
                    assert below in members

    def test_constant_maximal_sum(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_connected_graph_capped(rng, 5, 11)
            total = sum(w for _, _, w in g.edges)
            for m in enumerate_mpf(g):
                assert sum(m) == total - g.n

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_membership_oracles_agree(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**20))
        rng = random.Random(seed)
        g = random_connected_graph_capped(rng, 4, 8)
        bound = max(w for _, _, w in g.edges)
        b = tuple(
            data.draw(st.integers(min_value=0, max_value=bound))
            for _ in range(g.n)
        )
        assert is_g_pf(g, b) == is_g_pf_by_subsets(g, b)

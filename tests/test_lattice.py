"""Tests for weight grids, lattice paths, and two-dimensional parking pairs."""

import hashlib
import json
import random
from collections import Counter
from functools import partial
from itertools import combinations_with_replacement, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parklab import (
    build_graph,
    enumerate_A,
    enumerate_mupf,
    enumerate_pf,
    enumerate_upf,
    graph_from_affine_u,
    grid_from_affine,
    grid_from_vectors,
    grid_transpose,
    is_bounded_by,
    is_upf,
    is_vector_pf,
    load_grid,
    orientation_from_path,
    orientation_to_mpf,
    path_from_orientation,
    verify_equality,
    witness_path,
)
from parklab.classify import _cycle_case_grid
from parklab.errors import (
    DomainError,
    InvalidParameters,
    NegativeEntry,
    NotInA,
    NotMonotone,
    PathDoesNotBound,
    ShapeMismatch,
    TooLarge,
    UNotMonotone,
)
from parklab import lattice
from parklab.lattice import (
    WeightGrid,
    _arrangements,
    _orbit_size,
    block_sorted,
    increasing_maximal_pairs,
    maximal_upf_sum_witness,
    paths,
    step_weights,
    validate_path,
)
from parklab.orientations import Orientation
from conftest import random_bipartitioned_graph

LADDER_PAIR = ((2, 0, 1), (1, 3, 0))


def small_vectors(max_len: int = 3, max_entry: int = 3) -> st.SearchStrategy:
    entry = st.integers(min_value=1, max_value=max_entry)
    return st.lists(entry, min_size=1, max_size=max_len).map(
        lambda xs: tuple(sorted(xs))
    )


def grids_agree_on_steps(g1, g2) -> bool:
    """Equality on every entry a path can consume."""
    if (g1.p, g1.q) != (g2.p, g2.q):
        return False
    for i in range(g1.p):
        for j in range(g1.q + 1):
            if g1.u[i][j] != g2.u[i][j]:
                return False
    for i in range(g1.p + 1):
        for j in range(g1.q):
            if g1.v[i][j] != g2.v[i][j]:
                return False
    return True


class TestGridConstruction:
    def test_vectors_fill_consumed_entries(self, ladder_grid) -> None:
        # east steps out of column i consume u_i, north steps out of row j
        # consume v_j, independent of the other coordinate
        for i, j in product(range(3), range(4)):
            assert ladder_grid.u[i][j] == (1, 2, 3)[i]
        for i, j in product(range(4), range(3)):
            assert ladder_grid.v[i][j] == (1, 3, 5)[j]

    def test_vectors_must_be_sorted(self) -> None:
        with pytest.raises(UNotMonotone):
            grid_from_vectors((2, 1), (1, 1))

    def test_affine_matches_vector_grid_on_steps(self, ladder_grid) -> None:
        affine = grid_from_affine(3, 3, a=1, b=1, c=0, cprime=0, d=2, e=1)
        assert grids_agree_on_steps(affine, ladder_grid)

    def test_affine_rejects_negative_entries(self) -> None:
        with pytest.raises(NegativeEntry):
            grid_from_affine(2, 2, a=-1, b=1, c=1, cprime=1, d=1, e=1)

    def test_constant_grid(self) -> None:
        grid = grid_from_affine(2, 2, a=2, b=0, c=0, cprime=0, d=0, e=2)
        assert all(x == 2 for row in grid.u[:2] for x in row)
        assert all(row[j] == 2 for row in grid.v for j in range(2))

    def test_transpose_involution(self, ladder_grid) -> None:
        double = grid_transpose(grid_transpose(ladder_grid))
        assert double.u == ladder_grid.u and double.v == ladder_grid.v

    def test_transpose_swaps_blocks(self, ladder_grid) -> None:
        t = grid_transpose(ladder_grid)
        assert (t.p, t.q) == (ladder_grid.q, ladder_grid.p)
        assert is_upf((LADDER_PAIR[1], LADDER_PAIR[0]), t)

    def test_load_grid_vectors(self, ladder_grid) -> None:
        loaded = load_grid({"vectors": {"u": [1, 2, 3], "v": [1, 3, 5]}})
        assert grids_agree_on_steps(loaded, ladder_grid)

    def test_load_grid_affine(self) -> None:
        payload = {
            "p": 2,
            "q": 2,
            "affine": {"a": 1, "b": 0, "c": 1, "cprime": 1, "d": 0, "e": 1},
        }
        direct = grid_from_affine(2, 2, a=1, b=0, c=1, cprime=1, d=0, e=1)
        assert grids_agree_on_steps(load_grid(payload), direct)

    def test_load_grid_explicit(self, ladder_grid) -> None:
        payload = {
            "p": 3,
            "q": 3,
            "u": [list(row) for row in ladder_grid.u],
            "v": [list(row) for row in ladder_grid.v],
        }
        loaded = load_grid(payload)
        assert loaded.u == ladder_grid.u and loaded.v == ladder_grid.v

    def test_load_grid_rejects_unknown_shape(self) -> None:
        with pytest.raises(ShapeMismatch):
            load_grid({"p": 2, "q": 2})


class TestIntegerEntries:
    """Grid builders take Python ints only; ShapeMismatch names the first other."""

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda: grid_from_vectors((1.5,), (1,)), "u entry 1.5"),
            (lambda: grid_from_vectors((1,), (True,)), "v entry True"),
            (
                lambda: grid_from_affine(1, 1, a=0.5, b=0, c=1, cprime=1, d=0, e=1),
                "affine coefficient 0.5",
            ),
            (
                lambda: grid_from_affine(1, 1.0, a=1, b=0, c=1, cprime=1, d=0, e=1),
                "grid dimension 1.0",
            ),
            (lambda: WeightGrid(0, 0, ((1.5,),), ((1,),)), "u entry 1.5"),
            (lambda: WeightGrid(0, 0, (("1",),), ((1,),)), "u entry '1'"),
            (lambda: WeightGrid(0, False, ((1,),), ((1,),)), "grid dimension False"),
        ],
    )
    def test_a_non_int_is_a_shape_mismatch(self, call, named) -> None:
        with pytest.raises(ShapeMismatch) as caught:
            call()
        assert str(caught.value) == f"{named} is not an integer"


class TestGridGuards:
    def test_decreasing_entries_are_not_monotone(self) -> None:
        with pytest.raises(NotMonotone, match=r"^u\[0\]\[0\] > u\[1\]\[0\]$"):
            WeightGrid(1, 0, ((2,), (1,)), ((0,), (0,)))
        with pytest.raises(NotMonotone, match=r"^v\[0\]\[0\] > v\[0\]\[1\]$"):
            WeightGrid(0, 1, ((1, 1),), ((3, 2),))

    @pytest.mark.parametrize(
        "build",
        [
            lambda p, q: grid_from_affine(p, q, a=1, b=0, c=0, cprime=0, d=0, e=1),
            lambda p, q: grid_from_vectors((1,) * p, (1,) * q),
            lambda p, q: _cycle_case_grid(p, q, 1, 1, 0),
        ],
    )
    def test_node_guard_is_exact(self, monkeypatch, build) -> None:
        monkeypatch.setattr(lattice, "_MAX_GRID_NODES", 12)
        assert (build(2, 3).p, build(3, 2).p, build(1, 5).p) == (2, 3, 1)
        with pytest.raises(TooLarge, match="^1 x 6 grid has 14 nodes; guarded at 12$"):
            build(1, 6)
        monkeypatch.setattr(lattice, "_MAX_GRID_NODES", 11)
        with pytest.raises(TooLarge, match="^2 x 3 grid has 12 nodes; guarded at 11$"):
            build(2, 3)

    def test_affine_guard_comes_before_the_node_scan(self, monkeypatch) -> None:
        monkeypatch.setattr(lattice, "_MAX_GRID_NODES", 12)
        with pytest.raises(TooLarge):
            grid_from_affine(3, 3, a=-1, b=0, c=0, cprime=0, d=0, e=1)
        with pytest.raises(NegativeEntry):
            grid_from_affine(2, 3, a=-1, b=0, c=0, cprime=0, d=0, e=1)

    def test_negative_sizes_stay_shape_mismatches(self, monkeypatch) -> None:
        monkeypatch.setattr(lattice, "_MAX_GRID_NODES", 12)
        with pytest.raises(ShapeMismatch, match="non-negative"):
            grid_from_affine(-5, -5, a=1, b=0, c=0, cprime=0, d=0, e=1)

    def test_huge_affine_grid_is_refused(self) -> None:
        with pytest.raises(
            TooLarge,
            match="^100000 x 100000 grid has 10000200001 nodes; guarded at 1000000$",
        ):
            grid_from_affine(10**5, 10**5, a=1, b=1, c=1, cprime=1, d=1, e=1)


def _pinned_constructions():
    """Every grid construction the whole-grid digest covers, in a fixed order."""
    for p, q in product(range(4), repeat=2):
        for a, b, c, cp, d, e in product((-1, 0, 2), repeat=6):
            yield partial(
                grid_from_affine, p, q, a=a, b=b, c=c, cprime=cp, d=d, e=e
            )
    vectors = [x for n in range(4) for x in product(range(3), repeat=n)]
    for u, v in product(vectors, repeat=2):
        yield partial(grid_from_vectors, u, v)
    for p, q in product(range(1, 5), repeat=2):
        for a, b in product(range(4), repeat=2):
            yield partial(_cycle_case_grid, p, q, a, b, 0)
        for a, b, c in product(range(4), repeat=3):
            yield partial(_cycle_case_grid, p, q, a, c, b)


def test_whole_grids_are_pinned() -> None:
    # Paths read only part of each node array, but the grid and construct-u
    # commands print all of it: pin every entry, the transpose and the sum
    # witness, or the error a construction raises.
    digest = hashlib.sha256()
    count = 0
    for build in _pinned_constructions():
        try:
            grid = build()
        except DomainError as exc:
            record = [type(exc).__name__, str(exc)]
        else:
            record = [
                grid.to_json(),
                grid_transpose(grid).to_json(),
                maximal_upf_sum_witness(grid),
            ]
        digest.update(json.dumps(record).encode() + b"\n")
        count += 1
    assert count == 14_544
    assert digest.hexdigest() == (
        "8ad968afec2c526a0d41acf2f5f469dbfc0e9f780cdc18d31ca91d952368f0fc"
    )


class TestBoundedBy:
    def test_ladder_pair_bounded_by_mixed_path(self, ladder_grid) -> None:
        assert is_bounded_by(LADDER_PAIR, "EENNEN", ladder_grid)

    def test_ladder_pair_bounded_by_north_first_path(self, ladder_grid) -> None:
        assert is_bounded_by(LADDER_PAIR, "NNNEEE", ladder_grid)

    def test_zero_pair_bounded_by_every_path(self, ladder_grid) -> None:
        zero = ((0, 0, 0), (0, 0, 0))
        assert all(is_bounded_by(zero, w, ladder_grid) for w in paths(3, 3))

    def test_blocks_are_compared_sorted(self, ladder_grid) -> None:
        shuffled = ((1, 2, 0), (0, 1, 3))
        assert is_bounded_by(shuffled, "EEENNN", ladder_grid) == is_bounded_by(
            LADDER_PAIR, "EEENNN", ladder_grid
        )

    def test_large_entry_never_bounded(self, ladder_grid) -> None:
        pair = ((3, 0, 0), (0, 0, 0))
        assert not any(is_bounded_by(pair, w, ladder_grid) for w in paths(3, 3))

    def test_rejects_wrong_pair_shape(self, ladder_grid) -> None:
        # parklab upf prints this message
        with pytest.raises(ShapeMismatch) as caught:
            is_bounded_by(((1, 2), (0, 0, 0)), "EEENNN", ladder_grid)
        assert str(caught.value) == "pair must have block lengths (3, 3), got (2, 3)"

    @pytest.mark.parametrize(
        "pair", [(0, 0), ((0,), 0), ((0,),), ((0,), (0,), (0,))]
    )
    def test_a_pair_not_of_two_blocks_is_a_shape_mismatch(self, pair) -> None:
        grid = grid_from_vectors((1,), (1,))
        g = build_graph(2, [(0, 1, 1), (1, 2, 1)], p=1, q=1)
        got = f"{pair!r}, not two sequences"
        message = f"pair must have block lengths (1, 1), got {got}"
        calls = [
            partial(is_upf, pair, grid),
            partial(witness_path, pair, grid),
            partial(is_bounded_by, pair, "EN", grid),
            partial(orientation_from_path, g, "EN", pair),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatch) as caught:
                call()
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "pair",
        [((0.5,), (0,)), (("0",), ("0",)), (((0,),), (0,)), ((0,), (True,))],
    )
    def test_a_pair_entry_that_is_no_int_is_a_shape_mismatch(self, pair) -> None:
        grid = grid_from_vectors((1,), (1,))
        g = build_graph(2, [(0, 1, 1), (1, 2, 1)], p=1, q=1)
        bad = next(x for block in pair for x in block if type(x) is not int)
        calls = [
            partial(is_upf, pair, grid),
            partial(witness_path, pair, grid),
            partial(is_bounded_by, pair, "EN", grid),
            partial(orientation_from_path, g, "EN", pair),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatch) as caught:
                call()
            assert str(caught.value) == f"pair entry {bad!r} is not an integer"

    def test_negative_entry_is_never_bounded(self, ladder_grid) -> None:
        pair = ((-1, 0, 0), (0, 0, 0))
        assert not any(is_bounded_by(pair, w, ladder_grid) for w in paths(3, 3))

    @pytest.mark.parametrize("word", ["EENNE", "EENNEX", "EEEENN"])
    def test_rejects_malformed_words(self, word: str) -> None:
        with pytest.raises(ShapeMismatch):
            validate_path(word, 3, 3)

    @pytest.mark.parametrize("path", [5, None, list("EEENNN")])
    def test_a_path_that_is_no_string_is_a_shape_mismatch(self, ladder_grid, path):
        g = build_graph(6, [(0, v, 1) for v in range(1, 7)], p=3, q=3)
        calls = [
            partial(is_bounded_by, LADDER_PAIR, path, ladder_grid),
            partial(step_weights, ladder_grid, path),
            partial(orientation_from_path, g, path, LADDER_PAIR),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatch) as caught:
                call()
            message = f"path must be a string of E and N, got {path!r}"
            assert str(caught.value) == message

    def test_step_weights_walk_the_grid(self, ladder_grid) -> None:
        assert step_weights(ladder_grid, "EEENNN") == ([1, 2, 3], [1, 3, 5])
        assert step_weights(ladder_grid, "NNNEEE") == ([1, 2, 3], [1, 3, 5])


class TestPaths:
    @staticmethod
    def reference(p: int, q: int) -> list[str]:
        """Recursive listing: every E-first word, then every N-first word."""
        if not p or not q:
            return ["E" * p + "N" * q]
        return ["E" + w for w in TestPaths.reference(p - 1, q)] + [
            "N" + w for w in TestPaths.reference(p, q - 1)
        ]

    def test_matches_the_recursive_listing(self) -> None:
        for p in range(11):
            for q in range(11 - p):
                assert paths(p, q) == self.reference(p, q)

    @pytest.mark.parametrize("p, q", [(-1, 2), (2, -1)])
    def test_negative_size_is_rejected(self, p, q) -> None:
        with pytest.raises(ShapeMismatch, match="non-negative"):
            paths(p, q)

    @pytest.mark.parametrize(
        "p, q, bad", [(1.5, 2, 1.5), ("2", 1, "2"), (True, 1, True), (1, 2.0, 2.0)]
    )
    def test_non_integer_size_is_rejected(self, p, q, bad) -> None:
        with pytest.raises(ShapeMismatch) as caught:
            paths(p, q)
        assert str(caught.value) == f"grid dimension {bad!r} is not an integer"


class TestWitness:
    def test_witness_is_lexicographically_first(self, ladder_grid) -> None:
        assert witness_path(LADDER_PAIR, ladder_grid) == "EEENNN"
        assert is_upf(LADDER_PAIR, ladder_grid)

    def test_no_witness_when_entry_too_large(self, ladder_grid) -> None:
        pair = ((3, 0, 0), (0, 0, 0))
        assert witness_path(pair, ladder_grid) is None
        assert not is_upf(pair, ladder_grid)

    def test_witness_bounds_its_pair(self, ladder_grid) -> None:
        for pair in enumerate_upf(ladder_grid, max_set=100000):
            word = witness_path(pair, ladder_grid)
            assert word is not None and is_bounded_by(pair, word, ladder_grid)

    def test_witness_is_the_first_bounding_word(self, ladder_grid) -> None:
        def bounds(pair, word) -> bool:
            east, north = step_weights(ladder_grid, word)
            a, b = sorted(pair[0]), sorted(pair[1])
            return min(a + b) >= 0 and all(
                x < w for x, w in zip(a + b, east + north)
            )

        rng = random.Random(12)
        pairs = [
            tuple(tuple(rng.randrange(-1, 6) for _ in range(3)) for _ in "AB")
            for _ in range(300)
        ]
        pairs += enumerate_mupf(ladder_grid)
        words = paths(3, 3)
        members = 0
        for pair in pairs:
            first = next((w for w in words if bounds(pair, w)), None)
            members += first is not None
            assert witness_path(pair, ladder_grid) == first
        assert 0 < members < len(pairs)

    def test_matches_the_path_scan_on_random_grids(self) -> None:
        """The east-first walk against a scan of every path, empty blocks too."""

        def scan(pair, grid):
            a, b = sorted(pair[0]), sorted(pair[1])
            if min(a + b, default=0) < 0:
                return None
            for word in paths(grid.p, grid.q):
                east, north = step_weights(grid, word)
                if all(x < w for x, w in zip(a + b, east + north)):
                    return word
            return None

        def monotone_array(rng, p, q):
            """Each node adds 0, 1 or 3 to the larger of its two predecessors."""
            arr = [[rng.randrange(4)] * (q + 1) for _ in range(p + 1)]
            for i, j in product(range(p + 1), range(q + 1)):
                if i or j:
                    before = max(arr[i - 1][j] if i else 0, arr[i][j - 1] if j else 0)
                    arr[i][j] = before + rng.choice((0, 0, 1, 3))
            return tuple(map(tuple, arr))

        builders = {
            "affine": lambda rng, p, q: grid_from_affine(
                p, q, **{k: rng.randrange(4) for k in "a b c cprime d e".split()}
            ),
            "vectors": lambda rng, p, q: grid_from_vectors(
                sorted(rng.randrange(1, 7) for _ in range(p)),
                sorted(rng.randrange(1, 7) for _ in range(q)),
            ),
            "explicit": lambda rng, p, q: WeightGrid(
                p, q, monotone_array(rng, p, q), monotone_array(rng, p, q)
            ),
        }
        rng = random.Random(30)
        answers = Counter()
        for kind, p, q in product(builders, range(5), range(5)):
            for _ in range(3):
                grid = builders[kind](rng, p, q)
                for _ in range(6):
                    pair = tuple(
                        tuple(rng.randrange(-1, 7) for _ in range(n)) for n in (p, q)
                    )
                    first = scan(pair, grid)
                    assert witness_path(pair, grid) == first, (kind, pair, grid)
                    assert is_upf(pair, grid) == (first is not None)
                    answers[kind, first is not None] += 1
        assert all(answers[kind, member] for kind in builders for member in (0, 1))


class TestEnumerate:
    def test_unit_grid_is_a_product(self) -> None:
        grid = grid_from_vectors((2,), (3,))
        expected = sorted(((x,), (y,)) for x in range(2) for y in range(3))
        assert sorted(enumerate_upf(grid)) == expected

    def test_triangle_correspondence(self) -> None:
        # collapsing either block to a single vertex reduces the pair family
        # to the parking functions of the three-vertex graph
        grid = grid_from_affine(1, 1, a=1, b=0, c=1, cprime=1, d=0, e=1)
        tri = graph_from_affine_u(1, 1, a=1, b=0, c=1, cprime=1, d=0, e=1)
        pairs = sorted(enumerate_upf(grid))
        vectors = sorted(tuple(f) for f in enumerate_pf(tri))
        assert pairs == [((x,), (y,)) for x, y in vectors]

    def test_enumeration_guard(self) -> None:
        grid = grid_from_vectors((2,), (3,))
        with pytest.raises(TooLarge):
            enumerate_upf(grid, max_set=5)

    def test_guard_counts_the_set_exactly(self) -> None:
        # three parking pairs out of four candidates in the product space
        grid = grid_from_vectors((1, 2), (1,))
        assert len(enumerate_upf(grid, max_set=3)) == 3
        with pytest.raises(TooLarge):
            enumerate_upf(grid, max_set=2)

    def test_guard_trips_before_the_maximal_pairs_are_built(self) -> None:
        # one increasing pair whose orbit holds 12! maximal pairs
        grid = grid_from_vectors(tuple(range(1, 13)), ())
        with pytest.raises(TooLarge):
            enumerate_upf(grid, max_set=10)

    def test_negative_guard_is_rejected(self, monkeypatch) -> None:
        grid = grid_from_vectors((1, 2), (1,))
        with pytest.raises(InvalidParameters, match="max_set must be >= 0, got -1"):
            enumerate_upf(grid, max_set=-1)
        monkeypatch.setenv("PARKLAB_MAX_SET", "-3")
        with pytest.raises(
            InvalidParameters, match="PARKLAB_MAX_SET must be >= 0, got -3"
        ):
            enumerate_upf(grid)
        with pytest.raises(TooLarge, match="guard of 0"):
            enumerate_upf(grid, max_set=0)

    def test_closure_matches_product_filter_on_small_affine_grids(self) -> None:
        # first-block entries of a parking pair stay below the largest
        # consumed east weight, second-block entries below the largest
        # consumed north weight
        # 2x3 and 3x2 pairs have five entries, so their closures are built
        # from three-entry blocks shared between prefixes
        for p, q in [*product((1, 2), repeat=2), (2, 3), (3, 2)]:
            for a, b, c, cprime, d, e in product((0, 1), repeat=6):
                grid = grid_from_affine(p, q, a=a, b=b, c=c, cprime=cprime, d=d, e=e)
                a_bound, b_bound = grid.u[p - 1][q], grid.v[p][q - 1]
                want = [
                    (x, y)
                    for x in product(range(a_bound), repeat=p)
                    for y in product(range(b_bound), repeat=q)
                    if is_upf((x, y), grid)
                ]
                assert enumerate_upf(grid) == want

    def test_members_are_upf(self, tripartite_grid) -> None:
        members = enumerate_upf(tripartite_grid)
        assert members and all(is_upf(pair, tripartite_grid) for pair in members)

    def test_long_vector_grid_closes_without_recursion(self) -> None:
        # deeper than the interpreter's recursion limit, one orbit of 1200 zeros
        grid = grid_from_vectors((1,) * 1200, ())
        assert enumerate_upf(grid) == [((0,) * 1200, ())]

    def test_arrangements_are_the_sorted_distinct_permutations(self) -> None:
        rng = random.Random(73)
        for _ in range(300):
            block = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 6)))
            want = sorted(set(permutations(block)))
            assert list(_arrangements(block)) == want

    def test_orbit_size_counts_the_distinct_block_rearrangements(self) -> None:
        rng = random.Random(59)
        for _ in range(300):
            a, b = (
                tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 5)))
                for _ in range(2)
            )
            want = len(set(permutations(a))) * len(set(permutations(b)))
            assert _orbit_size((a, b)) == want, (a, b)


def reference_increasing_maximal_pairs(grid):
    """Path scan: each path's pair under its weights, then a dominance scan."""

    def path_pair(path):
        east, north = step_weights(grid, path)
        return tuple(w - 1 for w in east), tuple(w - 1 for w in north)

    def dominated(x, y):
        return x != y and all(a <= b for a, b in zip(x, y))

    candidates = set()
    for path in paths(grid.p, grid.q):
        cand = path_pair(path)
        if all(x >= 0 for x in cand[0] + cand[1]):
            candidates.add(cand)
    return sorted(
        c
        for c in candidates
        if not any(dominated(c[0] + c[1], o[0] + o[1]) for o in candidates)
    )


def random_monotone_grid(rng, p, q):
    """A grid whose entries grow by 0..2 from a start of 0..1 along each axis."""

    def array():
        rows = [[0] * (q + 1) for _ in range(p + 1)]
        for i, j in product(range(p + 1), range(q + 1)):
            below = max(rows[i - 1][j] if i else 0, rows[i][j - 1] if j else 0)
            rows[i][j] = below + rng.randint(0, 2 if i or j else 1)
        return tuple(map(tuple, rows))

    return WeightGrid(p, q, array(), array())


@pytest.fixture(scope="module")
def scan_grids():
    """Every grid the whole-grid digest pins, and 500 random monotone grids."""
    grids = []
    for build in _pinned_constructions():
        try:
            grids.append(build())
        except DomainError:
            pass
    rng = random.Random(16)
    for _ in range(500):
        grids.append(random_monotone_grid(rng, rng.randint(0, 4), rng.randint(0, 4)))
    assert len(grids) == 3_644
    return grids


class TestMaximalPairs:
    def test_matches_the_path_scan(self, scan_grids) -> None:
        sizes = Counter()
        for grid in scan_grids:
            got = increasing_maximal_pairs(grid)
            assert got == reference_increasing_maximal_pairs(grid), grid
            sizes[min(len(got), 2)] += 1
        assert sizes[0] and sizes[1] and sizes[2]

    def test_symmetric_grid_count_is_binomial(self) -> None:
        for p, q in ((2, 2), (1, 3), (3, 2)):
            grid = grid_from_affine(p, q, a=1, b=1, c=1, cprime=1, d=1, e=1)
            assert len(increasing_maximal_pairs(grid)) == comb(p + q, p)

    def test_one_sided_coupling_has_unique_maximum(self) -> None:
        grid = grid_from_affine(2, 2, a=1, b=1, c=1, cprime=0, d=1, e=1)
        assert len(increasing_maximal_pairs(grid)) == 1

    def test_maximal_pairs_cannot_grow(self, ladder_grid, scan_grids) -> None:
        # is_upf's east-first walk shares no code with the maximal-pair scan
        for grid in (ladder_grid, *scan_grids):
            maximal = increasing_maximal_pairs(grid)
            for a, b in maximal:
                assert is_upf((a, b), grid)
                for i in range(len(a)):
                    bumped = tuple(x + (k == i) for k, x in enumerate(a))
                    assert not is_upf((bumped, b), grid)
                for j in range(len(b)):
                    bumped = tuple(y + (k == j) for k, y in enumerate(b))
                    assert not is_upf((a, bumped), grid)
            if grid.p > 2 or grid.q > 2:
                continue
            # every weight a path steps on is at most the grid's largest entry
            top = max(map(max, grid.u + grid.v))
            for a, b in product(
                combinations_with_replacement(range(top), grid.p),
                combinations_with_replacement(range(top), grid.q),
            ):
                if is_upf((a, b), grid):
                    assert any(
                        all(x <= y for x, y in zip(a + b, ma + mb))
                        for ma, mb in maximal
                    ), (grid, a, b)

    def test_orbit_expansion_matches_membership(self, tripartite_grid) -> None:
        maximal = set(enumerate_mupf(tripartite_grid))
        assert maximal
        for a, b in maximal:
            assert is_upf((a, b), tripartite_grid)
        increasing = {
            block_sorted(pair) for pair in increasing_maximal_pairs(tripartite_grid)
        }
        assert {block_sorted(pair) for pair in maximal} == increasing


class TestSumWitness:
    def test_symmetric_coupling_sums_agree(self) -> None:
        grid = grid_from_affine(2, 2, a=1, b=1, c=1, cprime=1, d=1, e=1)
        east, north = maximal_upf_sum_witness(grid)
        assert east == north

    def test_asymmetric_coupling_separates_sums(self) -> None:
        grid = grid_from_affine(1, 1, a=1, b=0, c=1, cprime=2, d=0, e=1)
        assert maximal_upf_sum_witness(grid) == (2, 1)

    def test_unequal_sums_do_not_rule_out_a_graph(self) -> None:
        # the north-first candidate meets a zero weight, so it is no maximal
        # pair; the one maximal pair (0, 1) is a graph's whole maximal set
        grid = grid_from_affine(1, 1, a=1, b=0, c=0, cprime=1, d=0, e=1)
        assert maximal_upf_sum_witness(grid) == (1, 0)
        assert increasing_maximal_pairs(grid) == [((0,), (1,))]
        g = build_graph(2, ((0, 2, 2), (1, 2, 1)), p=1, q=1)
        assert verify_equality(g, grid)


class TestDegenerateShapes:
    def test_empty_second_block_reduces_to_vectors(self) -> None:
        grid = grid_from_vectors((1, 3), ())
        for x, y in product(range(5), repeat=2):
            assert is_upf(((x, y), ()), grid) == is_vector_pf((x, y), (1, 3))

    def test_one_sided_witness_word(self) -> None:
        grid = grid_from_vectors((1, 3), ())
        assert witness_path(((0, 1), ()), grid) == "EE"


class TestPathFromOrientation:
    def test_tripartite_orientation_word(self, tripartite) -> None:
        heads = (1, 2, 3, 4, 5, 4, 1, 2, 2, 4, 5)
        o = Orientation(tripartite, heads)
        assert path_from_orientation(tripartite, o) == "ENENE"
        assert orientation_to_mpf(o) == (1, 2, 0, 2, 1)

    def test_star_peels_first_block_first(self) -> None:
        edges = tuple((0, k, 1) for k in range(1, 6))
        star = build_graph(5, edges, p=2, q=3)
        (o,) = enumerate_A(star)
        assert path_from_orientation(star, o) == "EENNN"

    def test_word_is_smallest_first_source_removal(self) -> None:
        def source_removal(g, o) -> str:
            arrows = [(t, h) for t, h, _ in o.directed_edges()]
            remaining = set(range(1, g.n + 1))
            word = []
            while remaining:
                ready = min(
                    v
                    for v in remaining
                    if not any(h == v and t in remaining for t, h in arrows)
                )
                word.append("E" if ready <= g.p else "N")
                remaining.remove(ready)
            return "".join(word)

        rng = random.Random(61)
        for _ in range(30):
            g = random_bipartitioned_graph(rng, 5, 3)
            for o in enumerate_A(g):
                assert path_from_orientation(g, o) == source_removal(g, o)

    def test_another_graphs_orientation_is_refused(self) -> None:
        path = build_graph(2, [(0, 1, 1), (1, 2, 1)], p=1, q=1)
        triangle = build_graph(2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        for o in enumerate_A(triangle):
            with pytest.raises(ShapeMismatch, match="^orientation is not of"):
                path_from_orientation(path, o)
        unblocked = build_graph(2, [(0, 1, 1), (1, 2, 1)])
        assert path_from_orientation(path, Orientation(unblocked, (1, 2))) == "EN"

    def test_cyclic_orientation_stalls(self, tripartite) -> None:
        heads = (1, 2, 3, 4, 5, 4, 1, 2, 5, 4, 5)
        with pytest.raises(NotInA):
            path_from_orientation(tripartite, Orientation(tripartite, heads))


class TestOrientationFromPath:
    def test_single_edge(self) -> None:
        g = build_graph(1, ((0, 1, 1),), p=1, q=0)
        assert orientation_from_path(g, "E", ((0,), ())).heads == (1,)

    def test_round_trip_preserves_path_and_sorted_pair(self) -> None:
        g = graph_from_affine_u(2, 2, a=1, b=0, c=1, cprime=1, d=0, e=1)
        for o in enumerate_A(g):
            image = orientation_to_mpf(o)
            pair = (image[: g.p], image[g.p :])
            word = path_from_orientation(g, o)
            back = orientation_from_path(g, word, pair)
            assert path_from_orientation(g, back) == word
            rebuilt = orientation_to_mpf(back)
            assert block_sorted((rebuilt[: g.p], rebuilt[g.p :])) == block_sorted(pair)

    def test_rejects_pair_that_does_not_bound(self, tripartite) -> None:
        with pytest.raises(PathDoesNotBound):
            orientation_from_path(tripartite, "ENENE", ((0, 0, 0), (0, 0)))

    def test_rejects_path_that_leaves_a_second_source(self) -> None:
        # north first claims vertex 2, which has no placed neighbour yet
        g = build_graph(2, ((0, 1, 1), (1, 2, 1)), p=1, q=1)
        with pytest.raises(PathDoesNotBound, match="does not orient"):
            orientation_from_path(g, "NE", ((0,), (0,)))


class TestFamilyInvariance:
    @given(u=small_vectors(), v=small_vectors())
    @settings(max_examples=40, deadline=None)
    def test_membership_ignores_order_within_blocks(self, u, v) -> None:
        grid = grid_from_vectors(u, v)
        members = set(enumerate_upf(grid, max_set=100000))
        for a, b in list(members)[:20]:
            for pa in _cyclic_shifts(a):
                for pb in _cyclic_shifts(b):
                    assert (tuple(sorted(pa)), tuple(sorted(pb))) in {
                        block_sorted(m) for m in members
                    }
                    assert is_upf((pa, pb), grid)

    @given(u=small_vectors(), v=small_vectors())
    @settings(max_examples=40, deadline=None)
    def test_membership_is_downward_closed(self, u, v) -> None:
        grid = grid_from_vectors(u, v)
        for a, b in list(enumerate_upf(grid, max_set=100000))[:20]:
            for i in range(len(a)):
                if a[i]:
                    lowered = a[:i] + (a[i] - 1,) + a[i + 1 :]
                    assert is_upf((lowered, b), grid)
            for j in range(len(b)):
                if b[j]:
                    lowered = b[:j] + (b[j] - 1,) + b[j + 1 :]
                    assert is_upf((a, lowered), grid)


class TestVectorGridProduct:
    """A vector grid's pairs are the product of two one-block parking sets,
    an oracle that shares no code with the lattice walk or maximal pairs."""

    def test_membership_and_enumeration_are_the_product(self) -> None:
        rng = random.Random(41)
        members = pairs = 0
        for k in range(24):
            u = sorted(rng.randrange(1, 5) for _ in range(rng.randrange(4)))
            v = sorted(rng.randrange(1, 5) for _ in range(rng.randrange(4)))
            grid = grid_from_vectors(u, v)
            # entries from -1 to each block's largest threshold, which never parks
            left, right = (
                {
                    a: is_vector_pf(a, w)
                    for a in product(range(-1, max(w, default=0) + 1), repeat=len(w))
                }
                for w in (u, v)
            )
            for (a, a_parks), (b, b_parks) in product(left.items(), right.items()):
                assert is_upf((a, b), grid) == (a_parks and b_parks), (u, v, a, b)
                members += a_parks and b_parks
                pairs += 1
            if k % 4 == 0:
                want = {(a, b) for a in left if left[a] for b in right if right[b]}
                got = enumerate_upf(grid)
                assert len(got) == len(want) and set(got) == want, (u, v)
        assert 0 < members < pairs


def _cyclic_shifts(xs: tuple) -> list[tuple]:
    return [xs[k:] + xs[:k] for k in range(max(1, len(xs)))]

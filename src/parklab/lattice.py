"""Two-dimensional parking with weight grids over lattice paths.

A weight grid assigns two non-negative integers (u[i][j], v[i][j]) to every
node (i, j) of the p x q lattice rectangle, non-decreasing in both
coordinates. A monotone path from (0, 0) to (p, q) prices its steps with
the node it leaves: an east step at (i, j) costs u[i][j], a north step
costs v[i][j]. A pair of vectors (a, b) with |a| = p and |b| = q parks when
some path prices every order statistic strictly above it. Deciding that takes
one walk of p + q steps that steps east whenever it may (witness_path), not a
scan of the C(p+q, p) paths.

Only part of the grid is ever read by a path: u[i][j] with i < p and
v[i][j] with j < q (a path east of column p cannot step east again). The
full arrays are stored for uniformity. grid_from_vectors repeats its
vectors row by row; grid_from_affine and grid_transpose fill every node
through _node_grid, from a formula in (i, j), and so does classify for
every case grid, from one pair of formulas per case family, read at
(j, i) for a swapped case. Vector and case grids repeat their last read
entry into the unread row u[p][.] and column v[.][q], and affine grids
extend their formula there. No builder takes a grid of more than
_MAX_GRID_NODES (one million) nodes.

Maximal pairs still come from a scan of every path: along any path the east
weights (and the north weights) are non-decreasing, so subtracting one from
them yields the increasing maximal candidates; their permutations within
each block fill out the maximal set, and its downward closure (the same one
graph parking sets use) is the full parking set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import le, lt
from typing import Callable, Iterator, Mapping, Sequence

from . import orientations as _ori
from .errors import (
    InvalidParameters,
    NegativeEntry,
    NotInA,
    NotMonotone,
    PathDoesNotBound,
    ShapeMismatch,
    TooLarge,
    UNotMonotone,
)
from .graph import ROOT, RootedWeightedGraph, _check_ints
from .parking import _burn_order, _down_set, _size_guard, order_statistics

Pair = tuple[tuple[int, ...], tuple[int, ...]]

_MAX_GRID_NODES = 1_000_000


@dataclass(frozen=True)
class WeightGrid:
    """Monotone grid of step weights on the (p+1) x (q+1) lattice nodes.

    u[i][j] prices an east step leaving (i, j); entries with i = p are never
    consumed. v[i][j] prices a north step; entries with j = q are never
    consumed.
    """

    p: int
    q: int
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_ints((self.p, self.q), "grid dimension")
        if self.p < 0 or self.q < 0:
            raise ShapeMismatch("grid dimensions must be non-negative")
        for name, arr in (("u", self.u), ("v", self.v)):
            if len(arr) != self.p + 1 or any(
                len(row) != self.q + 1 for row in arr
            ):
                raise ShapeMismatch(
                    f"{name} must be a ({self.p + 1}) x ({self.q + 1}) array"
                )
            for row in arr:
                _check_ints(row, f"{name} entry")
                for entry in row:
                    if entry < 0:
                        raise NegativeEntry(f"{name} entry {entry} is negative")
            for i in range(self.p + 1):
                for j in range(self.q + 1):
                    if i and arr[i - 1][j] > arr[i][j]:
                        raise NotMonotone(
                            f"{name}[{i - 1}][{j}] > {name}[{i}][{j}]"
                        )
                    if j and arr[i][j - 1] > arr[i][j]:
                        raise NotMonotone(
                            f"{name}[{i}][{j - 1}] > {name}[{i}][{j}]"
                        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "u": [list(row) for row in self.u],
            "v": [list(row) for row in self.v],
        }


def _node_guard(p: int, q: int) -> None:
    """Raise TooLarge for a p x q grid of more than _MAX_GRID_NODES nodes.

    Negative sizes pass, so that WeightGrid reports them as a shape mismatch.
    """
    nodes = (p + 1) * (q + 1)
    if min(p, q) >= 0 and nodes > _MAX_GRID_NODES:
        raise TooLarge(
            f"{p} x {q} grid has {nodes} nodes; guarded at {_MAX_GRID_NODES}"
        )


def _node_grid(
    p: int, q: int, u_at: Callable[[int, int], int], v_at: Callable[[int, int], int]
) -> WeightGrid:
    """The grid whose node (i, j) holds u_at(i, j) and v_at(i, j)."""
    _node_guard(p, q)
    rows, cols = range(p + 1), range(q + 1)
    return WeightGrid(
        p,
        q,
        tuple(tuple(u_at(i, j) for j in cols) for i in rows),
        tuple(tuple(v_at(i, j) for j in cols) for i in rows),
    )


def grid_from_vectors(
    u: Sequence[int], v: Sequence[int]
) -> WeightGrid:
    """Independent grid: east steps read u by column, north steps v by row.

    Both vectors must be positive and non-decreasing. The pairs parking on
    this grid are exactly the pairs whose halves park on u and v separately.
    """
    for name, vec in (("u", u), ("v", v)):
        _check_ints(vec, f"{name} entry")
        if any(x <= 0 for x in vec) or any(
            vec[i] > vec[i + 1] for i in range(len(vec) - 1)
        ):
            raise UNotMonotone(
                f"{name} must be positive and non-decreasing, got {tuple(vec)}"
            )
    p, q = len(u), len(v)
    _node_guard(p, q)
    # row i of u repeats u[i], every row of v is v; the unread row u[p] and
    # column v[.][q] repeat the last entry, or hold 0 for an empty vector
    east = (*u, u[-1]) if p else (0,)
    north = (*v, v[-1]) if q else (0,)
    return WeightGrid(p, q, tuple((x,) * (q + 1) for x in east), (north,) * (p + 1))


def grid_from_affine(
    p: int,
    q: int,
    *,
    a: int,
    b: int,
    c: int,
    cprime: int,
    d: int,
    e: int,
) -> WeightGrid:
    """Affine grid u[i][j] = b*i + c*j + a, v[i][j] = cprime*i + d*j + e."""
    _check_ints((p, q), "grid dimension")
    _check_ints((a, b, c, cprime, d, e), "affine coefficient")
    _node_guard(p, q)

    def u_at(i: int, j: int) -> int:
        return b * i + c * j + a

    def v_at(i: int, j: int) -> int:
        return cprime * i + d * j + e

    for i, j in itertools.product(range(p + 1), range(q + 1)):
        if u_at(i, j) < 0 or v_at(i, j) < 0:
            raise NegativeEntry(f"affine weights go negative at node ({i}, {j})")
    return _node_grid(p, q, u_at, v_at)


def grid_transpose(grid: WeightGrid) -> WeightGrid:
    """Swap the two directions: east of the result is north of the input."""
    return _node_grid(
        grid.q, grid.p, lambda i, j: grid.v[j][i], lambda i, j: grid.u[j][i]
    )


def _json_ints(value, what: str, depth: int = 0):
    """A JSON integer, or lists of them nested depth deep as tuples; no floats."""
    if depth and isinstance(value, list):
        return tuple(_json_ints(x, what, depth - 1) for x in value)
    if depth or type(value) is not int:
        kind = "a list" if depth else "an integer"
        raise ShapeMismatch(f"{what} must be {kind}, got {value!r}")
    return value


def affine_coefficients(obj: Mapping) -> dict[str, int]:
    """p, q and the affine block's coefficients, as keyword arguments."""
    aff = obj["affine"]
    if not isinstance(aff, Mapping):
        raise ShapeMismatch(f"affine block must be a JSON object, got {aff!r}")
    keys = ("a", "b", "c", "cprime", "d", "e")
    missing = [k for k in keys if k not in aff]
    if missing:
        raise InvalidParameters(f"affine block misses {', '.join(missing)}")
    sizes = {k: _json_ints(obj[k], k) for k in ("p", "q")}
    return sizes | {k: _json_ints(aff[k], k) for k in keys}


def load_grid(obj: Mapping) -> WeightGrid:
    """Build a grid from one of the three accepted descriptions.

    {"vectors": {"u": [...], "v": [...]}} builds an independent grid;
    {"p": .., "q": .., "affine": {"a": .., "b": .., "c": .., "cprime": ..,
    "d": .., "e": ..}} an affine grid; {"p", "q", "u", "v"} gives the node
    arrays explicitly. Extra keys are ignored.
    """
    if not isinstance(obj, Mapping):
        raise ShapeMismatch("grid description must be a JSON object")
    if "vectors" in obj:
        vecs = obj["vectors"]
        if not isinstance(vecs, Mapping) or "u" not in vecs or "v" not in vecs:
            raise ShapeMismatch("vectors description needs both u and v")
        return grid_from_vectors(
            _json_ints(vecs["u"], "u", 1), _json_ints(vecs["v"], "v", 1)
        )
    if "affine" in obj:
        if "p" not in obj or "q" not in obj:
            raise ShapeMismatch("affine description needs p and q")
        return grid_from_affine(**affine_coefficients(obj))
    if all(k in obj for k in ("p", "q", "u", "v")):
        return WeightGrid(
            _json_ints(obj["p"], "p"),
            _json_ints(obj["q"], "q"),
            _json_ints(obj["u"], "u", 2),
            _json_ints(obj["v"], "v", 2),
        )
    raise ShapeMismatch(
        "grid description needs 'vectors', 'affine', or explicit arrays"
    )


# ---------------------------------------------------------------------------
# paths and membership


def validate_path(path: str, p: int, q: int) -> None:
    if not isinstance(path, str):
        raise ShapeMismatch(f"path must be a string of E and N, got {path!r}")
    if sorted(path) != ["E"] * p + ["N"] * q:
        raise ShapeMismatch(
            f"path must use exactly {p} east and {q} north steps, got {path!r}"
        )


def paths(p: int, q: int) -> list[str]:
    """All monotone paths as E/N words in lexicographic order (E < N).

    A path is the set of its east-step positions; combinations lists those
    sets in lexicographic order, which is the words' order.
    """
    _check_ints((p, q), "grid dimension")
    if p < 0 or q < 0:
        raise ShapeMismatch("grid dimensions must be non-negative")
    words = []
    for east in itertools.combinations(range(p + q), p):
        word = ["N"] * (p + q)
        for k in east:
            word[k] = "E"
        words.append("".join(word))
    return words


def step_weights(grid: WeightGrid, path: str) -> tuple[list[int], list[int]]:
    """East and north step weights along a path, in step order."""
    validate_path(path, grid.p, grid.q)
    east: list[int] = []
    north: list[int] = []
    x = y = 0
    for ch in path:
        if ch == "E":
            east.append(grid.u[x][y])
            x += 1
        else:
            north.append(grid.v[x][y])
            y += 1
    return east, north


def _validate_pair(pair: Pair, p: int, q: int) -> None:
    try:
        lengths = tuple(map(len, pair))
    except TypeError:  # the pair, or a block of it, has no length
        lengths = ()
    if lengths != (p, q):
        got = lengths if len(lengths) == 2 else f"{pair!r}, not two sequences"
        raise ShapeMismatch(f"pair must have block lengths ({p}, {q}), got {got}")
    for block in pair:
        _check_ints(block, "pair entry")


def block_sorted(pair: Pair) -> Pair:
    return order_statistics(pair[0]), order_statistics(pair[1])


def is_bounded_by(pair: Pair, path: str, grid: WeightGrid) -> bool:
    """Whether the path prices every order statistic of the pair above it."""
    _validate_pair(pair, grid.p, grid.q)
    a, b = block_sorted(pair)
    east, north = step_weights(grid, path)
    return min(a + b, default=0) >= 0 and all(map(lt, a + b, east + north))


def witness_path(pair: Pair, grid: WeightGrid) -> str | None:
    """First bounding path in lexicographic order (E < N), or None.

    One walk from (0, 0), at most p + q steps. With (a, b) the block-sorted
    pair, an east step from (x, y) is allowed when a[x] < u[x][y] and a north
    step when b[y] < v[x][y]. The walk steps east whenever that is allowed,
    else north, and gives up at a node that allows neither. Preferring east
    loses nothing: if a bounding path leaves (x, y) north and first steps
    east at (x, y'), the path that steps east at once and then north along
    column x + 1 bounds too, since v[x + 1][k] >= v[x][k] on a monotone
    grid. So every node the walk reaches lies on a bounding path if any
    exists, and its word is the first one. A negative entry is bounded by
    no path.
    """
    _validate_pair(pair, grid.p, grid.q)
    p, q, u, v = grid.p, grid.q, grid.u, grid.v
    a, b = block_sorted(pair)
    if min(a + b, default=0) < 0:
        return None
    word = []
    x = y = 0
    for _ in range(p + q):
        if x < p and a[x] < u[x][y]:
            word.append("E")
            x += 1
        elif y < q and b[y] < v[x][y]:
            word.append("N")
            y += 1
        else:
            return None
    return "".join(word)


def is_upf(pair: Pair, grid: WeightGrid) -> bool:
    """Whether some path bounds the pair."""
    return witness_path(pair, grid) is not None


def increasing_maximal_pairs(grid: WeightGrid) -> list[Pair]:
    """Maximal parking pairs with non-decreasing blocks, sorted.

    Each path prices one candidate, its step weights less one; a path that
    meets a zero weight bounds nothing. The maximal pairs are the candidates
    no other candidate dominates entrywise.

    A path is read from its east-step positions: the east step at position
    k after x others leaves (x, k - x), after climbing column x to that row.
    """
    p, q, u, v = grid.p, grid.q, grid.u, grid.v
    candidates = set()
    for east in itertools.combinations(range(p + q), p):
        weights, north, y = [], [], 0
        for x, k in enumerate(east):
            north += v[x][y : k - x]
            y = k - x
            weights.append(u[x][y])
        weights += (*north, *v[p][y:q])
        if 0 not in weights:
            candidates.add(tuple(map((-1).__add__, weights)))
    return [
        (c[:p], c[p:])
        for c in sorted(candidates)
        if not any(o != c and all(map(le, c, o)) for o in candidates)
    ]


def _arrangements(block: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The distinct rearrangements of block, in lexicographic order.

    Each is stepped to from the last in place (the next permutation), so the
    cost follows the number of distinct rearrangements, not len(block)!.
    """
    perm = sorted(block)
    last = len(perm) - 1
    while True:
        yield tuple(perm)
        i = last - 1
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1 :] = perm[:i:-1]


def _orbit_size(pair: Pair) -> int:
    """Number of distinct vectors in the block orbit of a pair."""
    size = 1
    for block in pair:
        size *= math.factorial(len(block))
        for x in set(block):
            size //= math.factorial(block.count(x))
    return size


def _maximal_pairs(grid: WeightGrid) -> Iterator[Pair]:
    """All maximal parking pairs: block rearrangements of the increasing ones.

    Distinct increasing pairs have disjoint orbits, so each pair comes once.
    """
    for a, b in increasing_maximal_pairs(grid):
        for a2 in _arrangements(a):
            for b2 in _arrangements(b):
                yield a2, b2


def enumerate_mupf(grid: WeightGrid) -> list[Pair]:
    """All maximal parking pairs, sorted."""
    return sorted(_maximal_pairs(grid))


def enumerate_upf(
    grid: WeightGrid, *, max_set: int | None = None
) -> list[Pair]:
    """Full parking set: downward closure of the maximal pairs, sorted.

    Raises TooLarge as soon as more than max_set maximal pairs are built,
    or before a larger closure is built past max_set.
    """
    limit = _size_guard(max_set)
    closure = _down_set((a + b for a, b in _maximal_pairs(grid)), limit)
    return [(v[: grid.p], v[grid.p :]) for v in closure]


def maximal_upf_sum_witness(grid: WeightGrid) -> tuple[int, int]:
    """Entry sums of the maximal candidates under the two corner paths.

    First value: all east steps, then all north steps. Second value: all
    north steps first. Affine grids with symmetric cross coefficients give
    equal sums. Unequal sums rule out no graph by themselves: a corner
    candidate may meet a zero weight or be dominated, and then it is no
    maximal pair. The exact test is on the maximal pairs: every graph's
    maximal parking functions share one entry sum, so no graph matches a
    grid whose maximal sums are not all one value.
    """
    return tuple(
        sum(map(sum, step_weights(grid, path))) - (grid.p + grid.q)
        for path in ("E" * grid.p + "N" * grid.q, "N" * grid.q + "E" * grid.p)
    )


# ---------------------------------------------------------------------------
# orientations versus paths


def path_from_orientation(
    g: RootedWeightedGraph, o: _ori.Orientation
) -> str:
    """Read a path off the burning order of an orientation's vector.

    That order takes next the smallest vertex whose in-neighbours are all
    taken; each vertex after the root records E (first block) or N (second).
    The orientation must be of g's edges; its graph's blocks are not read.
    """
    g.require_bipartition()
    if (o.graph.n, o.graph.edges) != (g.n, g.edges):
        raise ShapeMismatch("orientation is not of this graph's edges")
    order = _burn_order(g.incidence, g.edges, _ori.orientation_to_mpf(o))
    return "".join("E" if v <= g.p else "N" for v in order[1:])


def orientation_from_path(
    g: RootedWeightedGraph, path: str, pair: Pair
) -> _ori.Orientation:
    """Rebuild the orientation whose sorted indegree pair sits under the path.

    Orders the root, then the vertex named by each step (an east step
    from column i claims first-block vertex i+1, a north step from row j
    claims second-block vertex p+j+1), and points every edge at its later
    endpoint in that order. Fails if the result is not a valid orientation
    or does not block-sort to the given pair.
    """
    g.require_bipartition()
    validate_path(path, g.p, g.q)
    _validate_pair(pair, g.p, g.q)
    order = [ROOT]
    x = y = 0
    for ch in path:
        if ch == "E":
            order.append(x + 1)
            x += 1
        else:
            order.append(g.p + y + 1)
            y += 1
    o = _ori.Orientation(g, _ori._heads(g, {v: k for k, v in enumerate(order)}))
    try:
        image = _ori.orientation_to_mpf(o)
    except NotInA:
        raise PathDoesNotBound(
            f"path {path!r} does not orient this graph validly"
        ) from None
    got = block_sorted((image[: g.p], image[g.p :]))
    if got != block_sorted(pair):
        raise PathDoesNotBound(
            f"path {path!r} produces sorted pair {got}, not {block_sorted(pair)}"
        )
    return o

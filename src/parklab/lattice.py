"""Two-dimensional parking with weight grids over lattice paths.

A weight grid assigns two non-negative integers (u[i][j], v[i][j]) to every
node (i, j) of the p x q lattice rectangle, non-decreasing in both
coordinates. A monotone path from (0, 0) to (p, q) prices its steps with
the node it leaves: an east step at (i, j) costs u[i][j], a north step
costs v[i][j]. A pair of vectors (a, b) with |a| = p and |b| = q parks when
some path prices every order statistic strictly above it.

Only part of the grid is ever read by a path: u[i][j] with i < p and
v[i][j] with j < q (a path east of column p cannot step east again). The
full arrays are stored for uniformity; constructors fill the unread row
u[p][.] and column v[.][q] by mirroring their consumed neighbors, which
keeps the whole array monotone.

Maximal pairs come from paths directly: along any path the east weights
(and the north weights) are non-decreasing, so subtracting one from them
yields the increasing maximal candidates; their permutations within each
block fill out the maximal set, and its downward closure (the same one graph
parking sets use) is the full parking set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import orientations as _ori
from .errors import (
    InvalidParameters,
    NegativeEntry,
    NotMonotone,
    PathDoesNotBound,
    PeelingStalled,
    ShapeMismatch,
    UNotMonotone,
)
from .graph import ROOT, RootedWeightedGraph
from .parking import _down_set, default_max_set, order_statistics

Pair = tuple[tuple[int, ...], tuple[int, ...]]


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


def grid_from_vectors(
    u: Sequence[int], v: Sequence[int]
) -> WeightGrid:
    """Independent grid: east steps read u by column, north steps v by row.

    Both vectors must be positive and non-decreasing. The pairs parking on
    this grid are exactly the pairs whose halves park on u and v separately.
    """
    for name, vec in (("u", u), ("v", v)):
        if any(x <= 0 for x in vec) or any(
            vec[i] > vec[i + 1] for i in range(len(vec) - 1)
        ):
            raise UNotMonotone(
                f"{name} must be positive and non-decreasing, got {tuple(vec)}"
            )
    p, q = len(u), len(v)
    u_rows = tuple(
        tuple((u[i] if i < p else (u[p - 1] if p else 0)) for _ in range(q + 1))
        for i in range(p + 1)
    )
    v_rows = tuple(
        tuple((v[j] if j < q else (v[q - 1] if q else 0)) for j in range(q + 1))
        for _ in range(p + 1)
    )
    return WeightGrid(p, q, u_rows, v_rows)


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
    u_rows = []
    v_rows = []
    for i in range(p + 1):
        u_row = []
        v_row = []
        for j in range(q + 1):
            uu = b * i + c * j + a
            vv = cprime * i + d * j + e
            if uu < 0 or vv < 0:
                raise NegativeEntry(
                    f"affine weights go negative at node ({i}, {j})"
                )
            u_row.append(uu)
            v_row.append(vv)
        u_rows.append(tuple(u_row))
        v_rows.append(tuple(v_row))
    return WeightGrid(p, q, tuple(u_rows), tuple(v_rows))


def grid_transpose(grid: WeightGrid) -> WeightGrid:
    """Swap the two directions: east of the result is north of the input."""
    u_rows = tuple(
        tuple(grid.v[j][i] for j in range(grid.p + 1))
        for i in range(grid.q + 1)
    )
    v_rows = tuple(
        tuple(grid.u[j][i] for j in range(grid.p + 1))
        for i in range(grid.q + 1)
    )
    return WeightGrid(grid.q, grid.p, u_rows, v_rows)


def grids_agree_on_steps(g1: WeightGrid, g2: WeightGrid) -> bool:
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
    if sorted(path) != ["E"] * p + ["N"] * q:
        raise ShapeMismatch(
            f"path must use exactly {p} east and {q} north steps, got {path!r}"
        )


def paths(p: int, q: int) -> list[str]:
    """All monotone paths as E/N words in lexicographic order (E < N)."""
    out: list[str] = []

    def grow(prefix: str, e: int, n: int) -> None:
        if not e and not n:
            out.append(prefix)
            return
        if e:
            grow(prefix + "E", e - 1, n)
        if n:
            grow(prefix + "N", e, n - 1)

    grow("", p, q)
    return out


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
    if len(pair) != 2 or len(pair[0]) != p or len(pair[1]) != q:
        raise ShapeMismatch(
            f"pair must have block lengths ({p}, {q}), got "
            f"({len(pair[0]) if len(pair) == 2 else '?'}, "
            f"{len(pair[1]) if len(pair) == 2 else '?'})"
        )


def block_sorted(pair: Pair) -> Pair:
    return order_statistics(pair[0]), order_statistics(pair[1])


def is_bounded_by(pair: Pair, path: str, grid: WeightGrid) -> bool:
    """Whether the path prices every order statistic of the pair above it."""
    _validate_pair(pair, grid.p, grid.q)
    east, north = step_weights(grid, path)
    a_sorted, b_sorted = block_sorted(pair)
    if any(x < 0 for x in a_sorted) or any(x < 0 for x in b_sorted):
        return False
    return all(x < w for x, w in zip(a_sorted, east)) and all(
        x < w for x, w in zip(b_sorted, north)
    )


def witness_path(pair: Pair, grid: WeightGrid) -> str | None:
    """First bounding path in lexicographic order, or None."""
    _validate_pair(pair, grid.p, grid.q)
    for path in paths(grid.p, grid.q):
        if is_bounded_by(pair, path, grid):
            return path
    return None


def is_upf(pair: Pair, grid: WeightGrid) -> bool:
    """Whether some path bounds the pair."""
    return witness_path(pair, grid) is not None


def path_pair(grid: WeightGrid, path: str) -> Pair:
    """The increasing pair sitting directly under a path's step weights."""
    east, north = step_weights(grid, path)
    return tuple(w - 1 for w in east), tuple(w - 1 for w in north)


def _concat(pair: Pair) -> tuple[int, ...]:
    return pair[0] + pair[1]


def _dominated(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return x != y and all(a <= b for a, b in zip(x, y))


def increasing_maximal_pairs(grid: WeightGrid) -> list[Pair]:
    """Maximal parking pairs with non-decreasing blocks, sorted.

    Candidates are the path pairs; a path pair with a negative entry means
    the path meets a zero weight and bounds nothing.
    """
    candidates = set()
    for path in paths(grid.p, grid.q):
        cand = path_pair(grid, path)
        if all(x >= 0 for x in _concat(cand)):
            candidates.add(cand)
    return sorted(
        c
        for c in candidates
        if not any(
            _dominated(_concat(c), _concat(other)) for other in candidates
        )
    )


def enumerate_mupf(grid: WeightGrid) -> list[Pair]:
    """All maximal parking pairs: block permutations of the increasing ones."""
    out: set[Pair] = set()
    for a, b in increasing_maximal_pairs(grid):
        for pa in set(itertools.permutations(a)):
            for pb in set(itertools.permutations(b)):
                out.add((pa, pb))
    return sorted(out)


def enumerate_upf(
    grid: WeightGrid, *, max_set: int | None = None
) -> list[Pair]:
    """Full parking set: downward closure of the maximal pairs, sorted.

    Raises TooLarge when the set holds more pairs than the size guard.
    """
    limit = default_max_set() if max_set is None else max_set
    closure = _down_set((a + b for a, b in enumerate_mupf(grid)), limit)
    return [(v[: grid.p], v[grid.p :]) for v in closure]


def maximal_upf_sum_witness(grid: WeightGrid) -> tuple[int, int]:
    """Entry sums of the maximal candidates under the two corner paths.

    First value: all east steps, then all north steps. Second value: all
    north steps first. Affine grids with symmetric cross coefficients give
    equal sums; a difference certifies that no single graph can produce the
    maximal set.
    """
    east_first = (
        sum(grid.u[i][0] for i in range(grid.p))
        + sum(grid.v[grid.p][j] for j in range(grid.q))
        - (grid.p + grid.q)
    )
    north_first = (
        sum(grid.v[0][j] for j in range(grid.q))
        + sum(grid.u[i][grid.q] for i in range(grid.p))
        - (grid.p + grid.q)
    )
    return east_first, north_first


# ---------------------------------------------------------------------------
# orientations versus paths


def path_from_orientation(
    g: RootedWeightedGraph, o: _ori.Orientation
) -> str:
    """Read a path off an orientation by repeated source removal.

    After deleting the root, repeatedly delete the smallest-indexed
    remaining vertex with no incoming edge from the remaining set, recording
    E for a first-block vertex and N for a second-block vertex.
    """
    g.require_bipartition()
    if not _ori.in_A(o):
        raise PeelingStalled(
            "only acyclic orientations with the root as unique source unwind"
        )
    arrows = [(t, h) for t, h, _ in o.directed_edges()]
    remaining = set(range(1, g.n + 1))
    word = []
    while remaining:
        ready = None
        for v in sorted(remaining):
            if not any(h == v and t in remaining for t, h in arrows):
                ready = v
                break
        if ready is None:
            raise PeelingStalled("cycle among remaining vertices")
        word.append("E" if ready <= g.p else "N")
        remaining.remove(ready)
    return "".join(word)


def orientation_from_path(
    g: RootedWeightedGraph, path: str, pair: Pair
) -> _ori.Orientation:
    """Rebuild the orientation whose sorted indegree pair sits under the path.

    Processes the root, then the vertex named by each step (an east step
    from column i claims first-block vertex i+1, a north step from row j
    claims second-block vertex p+j+1), directing every still-undirected
    edge at the current vertex away from it. Fails if the result is not a
    valid orientation or does not block-sort to the given pair.
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
    head_of: dict[tuple[int, int], int] = {}
    for v in order:
        for u, _ in g.neighbors(v):
            key = (u, v) if u < v else (v, u)
            if key not in head_of:
                head_of[key] = u
    o = _ori.Orientation(g, tuple(head_of[(i, j)] for i, j, _ in g.edges))
    if not _ori.in_A(o):
        raise PathDoesNotBound(
            f"path {path!r} does not orient this graph validly"
        )
    image = _ori.orientation_to_mpf(o)
    got = block_sorted((image[: g.p], image[g.p :]))
    if got != block_sorted(pair):
        raise PathDoesNotBound(
            f"path {path!r} produces sorted pair {got}, not {block_sorted(pair)}"
        )
    return o

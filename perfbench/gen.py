"""Seeded inputs for the benchmark, and the oracles that check the answers.

Everything here is plain Python over edge lists (i, j, w) on vertices 0..n
with 0 the root, so it stays independent of the library it checks. The
library's graph and grid objects are built from these lists by the workloads.
"""

from __future__ import annotations

import itertools
import random

# Every generated graph has at most this many parking functions, counted by
# the matrix-tree determinant below; the library's default guard is 10**7.
PF_CAP = 20_000
# Every generated grid has at most this many candidate pairs in the product
# space enumerate_upf filters.
GRID_SPACE_CAP = 1_500
# The oracle enumerate_A_bruteforce is used wherever a graph has at most this
# many edges, its own default guard.
BRUTE_MAX_EDGES = 12


# ---------------------------------------------------------------------------
# counting oracle


def bareiss_det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free Gaussian elimination."""
    a = [list(r) for r in rows]
    size = len(a)
    if size == 0:
        return 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, size):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return sign * a[size - 1][size - 1]


def matrix_tree_count(n: int, edges) -> int:
    """|PF(G)|: determinant of the Laplacian with the root row and column cut."""
    lap = [[0] * n for _ in range(n)]
    for i, j, w in edges:
        for v in (i, j):
            if v:
                lap[v - 1][v - 1] += w
        if i and j:
            lap[i - 1][j - 1] -= w
            lap[j - 1][i - 1] -= w
    return bareiss_det(lap)


# ---------------------------------------------------------------------------
# graphs


def _neighbors(n: int, edges) -> list[list[tuple[int, int]]]:
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for i, j, w in edges:
        nbrs[i].append((j, w))
        nbrs[j].append((i, w))
    return nbrs


def star_like(rng: random.Random, n: int, extra: int) -> list[tuple[int, int, int]]:
    """Root joined to every vertex, plus a few edges between leaves.

    Every vertex order is admissible, so orientation enumeration walks all
    n! orders however few orientations there are.
    """
    edges = {(0, v): rng.randint(1, 2) for v in range(1, n + 1)}
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for i, j in rng.sample(pairs, extra):
        edges[(i, j)] = rng.randint(1, 2)
    return sorted((i, j, w) for (i, j), w in edges.items())


def dense(rng: random.Random, n: int, m: int) -> list[tuple[int, int, int]]:
    """A random spanning tree plus random other pairs, m edges in all."""
    edges: dict[tuple[int, int], int] = {}
    for v in range(1, n + 1):
        edges[(rng.randrange(v), v)] = rng.randint(1, 2)
    rest = [e for e in itertools.combinations(range(n + 1), 2) if e not in edges]
    for e in rng.sample(rest, m - n):
        edges[e] = rng.randint(1, 2)
    return sorted((i, j, w) for (i, j), w in edges.items())


# dense strata: (n, edges, |PF| band); every seed gets the same mix of
# sizes, so the cost profile of a pool does not depend on the seed
DENSE_STRATA = (
    (4, 8, (140, 180)),
    (5, 11, (1_200, 1_500)),
    (6, 13, (6_000, 7_500)),
    (7, 14, (16_000, PF_CAP)),
)


def dense_in_stratum(rng: random.Random, k: int) -> tuple[int, list, int]:
    """Draw dense graphs of stratum k until the parking count is in its band."""
    n, m, (lo, hi) = DENSE_STRATA[k % len(DENSE_STRATA)]
    while True:
        edges = dense(rng, n, m)
        count = matrix_tree_count(n, edges)
        if lo <= count <= hi:
            return n, edges, count


def case_graph(rng: random.Random, kind: str, p: int, q: int):
    """A bipartitioned graph (edges, p, q) of a family the case list covers.

    cycle: one uniform cycle through the root (case i.a); banded: complete up
    to absent bands, each band uniform (case iii); tree: a tree whose edges
    into A weigh a and into B weigh b (case vi).
    """
    n = p + q
    if kind == "cycle":
        w = rng.randint(1, 2)
        ring = [0] + list(range(1, n + 1))
        edges = [(min(x, y), max(x, y), w) for x, y in zip(ring, ring[1:] + [0])]
    elif kind == "banded":
        edges = banded(p, q, random_bands(rng))
    elif kind == "tree":
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        placed = [0]
        edges = []
        for v in order:
            u = rng.choice(placed)
            edges.append((min(u, v), max(u, v), a if v <= p else b))
            placed.append(v)
    else:
        raise ValueError(kind)
    return sorted(edges), p, q


def random_bands(rng: random.Random) -> dict:
    """Band weights with a, c >= 1, so both blocks reach the root."""
    return {"a": rng.randint(1, 2), "b": rng.randint(0, 2), "c": rng.randint(1, 2),
            "d": rng.randint(0, 2), "e": rng.randint(0, 2)}


def banded(p: int, q: int, bands: dict) -> list[tuple[int, int, int]]:
    """Complete graph up to absent bands: root-A a, inside A b, across c,
    inside B d, root-B e. It matches the affine grid with c = c'."""
    A, B = range(1, p + 1), range(p + 1, p + q + 1)
    edges = [(0, i, bands["a"]) for i in A] + [(0, j, bands["e"]) for j in B]
    edges += [(i, j, bands["b"]) for i, j in itertools.combinations(A, 2)]
    edges += [(i, j, bands["c"]) for i in A for j in B]
    edges += [(i, j, bands["d"]) for i, j in itertools.combinations(B, 2)]
    return sorted(e for e in edges if e[2])


def random_maximal(rng: random.Random, n: int, edges) -> tuple[int, ...]:
    """Indegree minus one of a random acyclic orientation with the root as source.

    Grows a random admissible vertex order and points every edge at its later
    endpoint, which is how maximal parking functions arise.
    """
    nbrs = _neighbors(n, edges)
    placed = {0}
    indeg = [0] * (n + 1)
    while len(placed) <= n:
        ready = [v for v in range(1, n + 1) if v not in placed
                 and any(u in placed for u, _ in nbrs[v])]
        v = rng.choice(ready)
        indeg[v] = sum(w for u, w in nbrs[v] if u in placed)
        placed.add(v)
    return tuple(x - 1 for x in indeg[1:])


def below(rng: random.Random, vec: tuple[int, ...]) -> tuple[int, ...]:
    """Lower one positive entry of vec (or return it when all are zero)."""
    idx = [k for k, x in enumerate(vec) if x > 0]
    if not idx:
        return vec
    k = rng.choice(idx)
    return vec[:k] + (rng.randrange(vec[k]),) + vec[k + 1 :]


def perturb(rng: random.Random, vec: tuple[int, ...]) -> tuple[int, ...]:
    """Lower a random number of entries of vec, then raise one entry by 1 or 2."""
    out = list(vec)
    for k in range(len(out)):
        if out[k] and rng.random() < 0.5:
            out[k] = rng.randrange(out[k] + 1)
    k = rng.randrange(len(out))
    out[k] += rng.randint(1, 2)
    return tuple(out)


# ---------------------------------------------------------------------------
# grids


def grid_space(kind: str, p: int, q: int, params: dict) -> int:
    """Size of the product space enumerate_upf filters for this grid."""
    if kind == "affine":
        a_bound = params["b"] * (p - 1) + params["c"] * q + params["a"]
        b_bound = params["cprime"] * p + params["d"] * (q - 1) + params["e"]
    else:
        a_bound, b_bound = params["u"][-1], params["v"][-1]
    return a_bound**p * b_bound**q


# grid strata: (p, q, product-space band)
GRID_STRATA = ((2, 3, (300, 900)), (3, 2, (300, 900)), (3, 3, (500, GRID_SPACE_CAP)))


def random_grid(rng: random.Random, k: int) -> tuple[str, int, int, dict]:
    """An affine or a vector grid of stratum k."""
    p, q, (lo, hi) = GRID_STRATA[k % len(GRID_STRATA)]
    while True:
        if rng.random() < 0.5:
            kind = "affine"
            params = {
                "a": rng.randint(1, 2), "b": rng.randint(0, 1),
                "c": rng.randint(0, 1), "cprime": rng.randint(0, 1),
                "d": rng.randint(0, 1), "e": rng.randint(1, 2),
            }
        else:
            kind = "vectors"
            params = {
                "u": tuple(sorted(rng.randint(1, 4) for _ in range(p))),
                "v": tuple(sorted(rng.randint(1, 4) for _ in range(q))),
            }
        if lo <= grid_space(kind, p, q, params) <= hi:
            return kind, p, q, params


def grid_bounds(kind: str, p: int, q: int, params: dict) -> tuple[int, int]:
    if kind == "affine":
        return (params["b"] * (p - 1) + params["c"] * q + params["a"],
                params["cprime"] * p + params["d"] * (q - 1) + params["e"])
    return params["u"][-1], params["v"][-1]


def random_pair(rng: random.Random, p: int, q: int, bounds: tuple[int, int]):
    """A pair with entries drawn below the largest step weight of each block."""
    a_bound, b_bound = bounds
    return (tuple(rng.randrange(a_bound) for _ in range(p)),
            tuple(rng.randrange(b_bound) for _ in range(q)))

"""Shared fixtures: small named graphs, grids, and random generators."""

from __future__ import annotations

import random

import pytest

from parklab import (
    build_graph,
    grid_from_affine,
    grid_from_vectors,
    graph_from_affine_u,
)

# Maximal parking vectors of the diamond graph, frozen from an exhaustive
# subset-definition scan and cross-checked against the orientation count.
DIAMOND_MPF = {(1, 2, 5), (1, 5, 2), (2, 1, 5), (5, 1, 2)}


@pytest.fixture
def diamond():
    """Two triangles sharing the edge {1,2}; weights 2,2,1,3,3."""
    return build_graph(
        3, [(0, 1, 2), (0, 2, 2), (1, 2, 1), (1, 3, 3), (2, 3, 3)]
    )


@pytest.fixture
def diamond_split():
    """The diamond with blocks {1,2} and {3}."""
    return build_graph(
        3,
        [(0, 1, 2), (0, 2, 2), (1, 2, 1), (1, 3, 3), (2, 3, 3)],
        p=2,
        q=1,
    )


@pytest.fixture
def ladder_grid():
    """East weights 1,2,3 and north weights 1,3,5 on a 3x3 board."""
    return grid_from_vectors((1, 2, 3), (1, 3, 5))


@pytest.fixture
def tripartite():
    """Complete tripartite graph on blocks of size 3 and 2, unit bands."""
    return graph_from_affine_u(3, 2, a=1, b=0, c=1, cprime=1, d=0, e=1)


@pytest.fixture
def tripartite_grid():
    """The affine grid whose parking pairs match the tripartite graph."""
    return grid_from_affine(3, 2, a=1, b=0, c=1, cprime=1, d=0, e=1)


@pytest.fixture
def clique_fan():
    """A 4-clique on {0,1,2,3} fanning out into a cycle-and-tail on B."""
    return build_graph(
        7,
        [
            (0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1),
            (1, 4, 1), (1, 5, 1), (2, 5, 1), (2, 6, 1), (3, 5, 1), (3, 6, 1),
            (5, 6, 1), (4, 7, 1), (6, 7, 1),
        ],
        p=3,
        q=4,
    )


@pytest.fixture
def chorded_cycle():
    """Cycle 0-1-3-4-5-2-0 with chord {1,2}; root edges 2, chord 1, rest 3."""
    return build_graph(
        5,
        [
            (0, 1, 2), (0, 2, 2), (1, 2, 1),
            (1, 3, 3), (3, 4, 3), (4, 5, 3), (2, 5, 3),
        ],
        p=2,
        q=3,
    )


@pytest.fixture
def tree_with_clique():
    """Unit tree on {0..4} with a banded 5-clique hung at vertex 3."""
    return build_graph(
        8,
        [
            (0, 1, 1), (1, 2, 1), (1, 3, 1), (0, 4, 1),
            (5, 6, 2), (5, 7, 2), (5, 8, 2), (6, 7, 2), (6, 8, 2), (7, 8, 2),
            (3, 5, 3), (3, 6, 3), (3, 7, 3), (3, 8, 3),
        ],
        p=4,
        q=4,
    )


@pytest.fixture
def cycle_with_tufts():
    """Unit 5-cycle through the root with weight-2 trees hanging into B."""
    return build_graph(
        9,
        [
            (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1),
            (0, 5, 2), (5, 6, 2), (2, 7, 2), (2, 8, 2), (3, 9, 2),
        ],
        p=4,
        q=5,
    )


@pytest.fixture
def forest_with_clique():
    """Weight-2 forest on the first block, unit 4-clique reached at vertex 6."""
    return build_graph(
        12,
        [
            (0, 1, 2), (0, 5, 2), (5, 6, 2), (1, 2, 2), (2, 3, 2), (1, 4, 2),
            (8, 9, 2), (6, 10, 1), (6, 11, 1), (6, 12, 1),
            (10, 11, 1), (11, 12, 1), (10, 12, 1), (10, 7, 2), (12, 8, 2),
        ],
        p=9,
        q=3,
    )


def random_connected_graph(rng: random.Random, max_n: int, max_w: int):
    """Random spanning tree plus extra edges, weights in 1..max_w."""
    n = rng.randint(1, max_n)
    edges = {}
    for v in range(1, n + 1):
        u = rng.randrange(v)
        edges[(u, v)] = rng.randint(1, max_w)
    pool = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n + 1)
        if (i, j) not in edges
    ]
    rng.shuffle(pool)
    for pair in pool[: rng.randint(0, len(pool) // 2)]:
        edges[pair] = rng.randint(1, max_w)
    return build_graph(n, [(i, j, w) for (i, j), w in edges.items()])


def random_connected_graph_capped(
    rng: random.Random, max_n: int, max_total: int
):
    """Random connected graph whose total edge weight stays under a cap."""
    while True:
        g = random_connected_graph(rng, max_n, 3)
        if sum(w for _, _, w in g.edges) <= max_total:
            return g


def random_bipartitioned_graph(rng: random.Random, max_n: int, max_w: int):
    """Random connected graph with a random non-trivial block split."""
    while True:
        g = random_connected_graph(rng, max_n, max_w)
        if g.n >= 2:
            break
    p = rng.randint(1, g.n - 1)
    return build_graph(g.n, list(g.edges), p=p, q=g.n - p)

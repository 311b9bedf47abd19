"""Parking function membership and enumeration.

Three membership notions live here. Classical parking functions compare
order statistics against 1..n; vector parking functions compare them
against an arbitrary positive non-decreasing threshold vector; graph
parking functions require every non-empty set of non-root vertices to
contain a vertex whose entry is beaten by its outward weighted degree.

The full parking set of a graph is the downward closure of its maximal
elements, which are the indegree vectors of the acyclic orientations with
unique source at the root. The same closure serves the parking pairs of a
weight grid. Closures count the elements they produce against a size
guard; the PARKLAB_MAX_SET environment variable or a keyword argument
lifts it.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterable, Sequence

from . import orientations
from .errors import (
    InvalidParameters,
    LengthMismatch,
    NotAParkingFunction,
    TooLarge,
    UNotMonotone,
)
from .graph import RootedWeightedGraph

Vector = tuple[int, ...]

DEFAULT_MAX_SET = 10_000_000
DEFAULT_MAX_MEMBERSHIP = 24


def default_max_set() -> int:
    """Size guard for enumerations; PARKLAB_MAX_SET overrides the default."""
    raw = os.environ.get("PARKLAB_MAX_SET")
    if raw is None:
        return DEFAULT_MAX_SET
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameters(f"PARKLAB_MAX_SET is not an integer: {raw!r}") from None


def order_statistics(values: Sequence[int]) -> Vector:
    """The entries in non-decreasing order."""
    return tuple(sorted(values))


def is_classical_pf(a: Sequence[int]) -> bool:
    """Whether the i-th order statistic stays below i for every i."""
    return all(v < i for i, v in enumerate(order_statistics(a), start=1))


def is_vector_pf(a: Sequence[int], u: Sequence[int]) -> bool:
    """Whether a parks against the threshold vector u.

    u must be positive and non-decreasing; a parks when its i-th order
    statistic is strictly below u[i-1] for every i.
    """
    if len(a) != len(u):
        raise LengthMismatch(
            f"vector of length {len(a)} checked against {len(u)} thresholds"
        )
    if any(x <= 0 for x in u) or any(u[i] > u[i + 1] for i in range(len(u) - 1)):
        raise UNotMonotone("thresholds must be positive and non-decreasing")
    return all(v < bound for v, bound in zip(order_statistics(a), u))


def _check_vector(g: RootedWeightedGraph, b: Sequence[int], max_n: int | None):
    limit = DEFAULT_MAX_MEMBERSHIP if max_n is None else max_n
    if g.n > limit:
        raise TooLarge(
            f"membership scan guarded at {limit} vertices; got {g.n}"
        )
    if len(b) != g.n:
        raise LengthMismatch(
            f"vector of length {len(b)} against {g.n} non-root vertices"
        )


def is_g_pf(
    g: RootedWeightedGraph, b: Sequence[int], *, max_n: int | None = None
) -> bool:
    """Graph parking membership via the burning scan.

    Starting from all non-root vertices, repeatedly delete the
    smallest-indexed vertex whose entry is beaten by its weighted degree out
    of the surviving set; b parks exactly when the set burns down to nothing.
    Entries must be non-negative to park.
    """
    _check_vector(g, b, max_n)
    if any(x < 0 for x in b):
        return False
    alive = set(range(1, g.n + 1))
    # outward degree of v relative to the current alive set
    out = {
        v: sum(w for u, w in g.neighbors(v) if u not in alive)
        for v in alive
    }
    while alive:
        burned = None
        for v in sorted(alive):
            if b[v - 1] < out[v]:
                burned = v
                break
        if burned is None:
            return False
        alive.remove(burned)
        for u, w in g.neighbors(burned):
            if u in alive:
                out[u] += w
    return True


def is_g_pf_by_subsets(
    g: RootedWeightedGraph, b: Sequence[int], *, max_n: int | None = None
) -> bool:
    """Graph parking membership by scanning every non-empty vertex subset.

    Exponential reference implementation; must agree with is_g_pf everywhere.
    """
    _check_vector(g, b, max_n)
    if any(x < 0 for x in b):
        return False
    verts = range(1, g.n + 1)
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(verts, size):
            chosen = set(subset)
            ok = False
            for v in subset:
                out = sum(w for u, w in g.neighbors(v) if u not in chosen)
                if b[v - 1] < out:
                    ok = True
                    break
            if not ok:
                return False
    return True


def enumerate_mpf(g: RootedWeightedGraph) -> list[Vector]:
    """All maximal parking functions, via orientations, in sorted order."""
    return sorted(
        {orientations._heads_to_mpf(g, h) for h in orientations._head_tuples(g)}
    )


def _down_set(maximal: Iterable[Vector], limit: int) -> list[Vector]:
    """Sorted downward closure of non-negative vectors in the entrywise order.

    Raises TooLarge as soon as the closure holds more than limit vectors.
    """
    seen: set[Vector] = set(maximal)
    if len(seen) > limit:
        raise TooLarge(f"parking set exceeds the guard of {limit}")
    stack: list[Vector] = list(seen)
    while stack:
        vec = stack.pop()
        for idx in range(len(vec)):
            if vec[idx] == 0:
                continue
            smaller = vec[:idx] + (vec[idx] - 1,) + vec[idx + 1 :]
            if smaller not in seen:
                seen.add(smaller)
                if len(seen) > limit:
                    raise TooLarge(f"parking set exceeds the guard of {limit}")
                stack.append(smaller)
    return sorted(seen)


def enumerate_pf(
    g: RootedWeightedGraph, *, max_set: int | None = None
) -> list[Vector]:
    """The full parking set: downward closure of the maximal elements.

    Raises TooLarge when the closure exceeds the size guard.
    """
    limit = default_max_set() if max_set is None else max_set
    return _down_set(enumerate_mpf(g), limit)


def is_maximal(g: RootedWeightedGraph, b: Sequence[int]) -> bool:
    """Whether b parks and no single entry can grow while still parking."""
    if not is_g_pf(g, b):
        raise NotAParkingFunction(f"{tuple(b)} does not park on this graph")
    for idx in range(g.n):
        bumped = tuple(b[:idx]) + (b[idx] + 1,) + tuple(b[idx + 1 :])
        if is_g_pf(g, bumped):
            return False
    return True

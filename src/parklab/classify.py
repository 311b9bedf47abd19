"""Block-permutation invariance: testing, matching, and grid construction.

A bipartitioned graph is invariant when permuting entries within each block
maps parking functions to parking functions. Invariance of the full parking
set is equivalent to invariance of its maximal elements, so the test here
closes the maximal set under block permutations and reports the first hole
as a witness.

Invariant graphs are matched against the structural case list (cycles with
up to two marked vertices, a cycle with a chord, banded complete graphs,
a cycle or complete first side with restricted attachments, uniform forests
carrying one cycle or complete second side, and two-weight trees). Each
matched case prescribes a weight grid whose parking pairs reproduce the
graph's parking functions; verify_equality checks that claim exactly, and
sweep_classification does so for every invariant graph within a budget.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .errors import (
    BipartitionMissing,
    InvalidParameters,
    NotClassified,
    ShapeMismatch,
)
from .graph import (
    CASE_ORDER,
    ROOT,
    FamilyTag,
    RootedWeightedGraph,
    build_graph,
    is_connected,
    matching_invariant_cases,
    swap_blocks,
)
from .lattice import (
    WeightGrid,
    enumerate_mupf,
    grid_from_affine,
    grid_from_vectors,
    grid_transpose,
)
from .parking import enumerate_mpf, enumerate_pf

Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# invariance testing


def _block_orbit(vec: Vector, p: int):
    """All distinct vectors obtained by permuting within the two blocks."""
    for a in set(itertools.permutations(vec[:p])):
        for b in set(itertools.permutations(vec[p:])):
            yield a + b


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of the invariance test.

    witness, present only on failure, is a pair (element, missing): element
    lies in the maximal set while one of its block permutations (missing)
    does not, which direct membership testing confirms.
    """

    invariant: bool
    witness: tuple[Vector, Vector] | None
    family_matches: tuple[FamilyTag, ...]
    swapped: bool

    def to_json(self) -> dict:
        return {
            "invariant": self.invariant,
            "witness": None
            if self.witness is None
            else {
                "element": list(self.witness[0]),
                "missing": list(self.witness[1]),
            },
            "family_matches": [t.to_json() for t in self.family_matches],
            "swapped": self.swapped,
        }


def _orbit_closed(vectors: set[Vector], p: int) -> tuple[Vector, Vector] | None:
    """First (element, missing permutation) hole, or None when closed."""
    checked: set[tuple[Vector, Vector]] = set()
    for vec in sorted(vectors):
        key = (tuple(sorted(vec[:p])), tuple(sorted(vec[p:])))
        if key in checked:
            continue
        checked.add(key)
        for cand in _block_orbit(vec, p):
            if cand not in vectors:
                return vec, cand
    return None


def is_invariant(g: RootedWeightedGraph) -> InvarianceReport:
    """Test block-permutation invariance on the maximal parking set.

    Closure of the maximal set under block permutations is equivalent to
    closure of the full parking set, so no down-set is enumerated.
    """
    g.require_bipartition()
    maximal = set(enumerate_mpf(g))
    witness = _orbit_closed(maximal, g.p)
    tags = match_theorem61(g) if g.p and g.q else []
    swapped = tags[0].swapped if tags else False
    return InvarianceReport(witness is None, witness, tuple(tags), swapped)


def check_lemma61(
    g: RootedWeightedGraph, *, max_set: int | None = None
) -> bool:
    """Compare invariance of the full parking set against the maximal set.

    Returns True when the two verdicts agree (they must, for every graph).
    """
    g.require_bipartition()
    full = set(map(tuple, enumerate_pf(g, max_set=max_set)))
    full_verdict = _orbit_closed(full, g.p) is None
    return full_verdict == is_invariant(g).invariant


# ---------------------------------------------------------------------------
# case matching


def match_theorem61(g: RootedWeightedGraph) -> list[FamilyTag]:
    """All structural cases the graph matches, lowest case first.

    The case list is stated for a root touching the first block, but a root
    touching both blocks can realize a case in either labeling (a cycle
    whose one odd edge meets the root on the second side, for instance), so
    both labelings are matched whenever their root condition holds. Tags
    found under the swapped labeling carry swapped=True and describe the
    graph with the blocks exchanged.
    """
    g.require_bipartition()
    if g.p == 0 or g.q == 0:
        raise BipartitionMissing("matching needs both blocks non-empty")
    tags: list[FamilyTag] = []
    touches_a = any(1 <= u <= g.p for u, _ in g.neighbors(ROOT))
    touches_b = any(u > g.p for u, _ in g.neighbors(ROOT))
    if touches_a:
        tags.extend(matching_invariant_cases(g))
    if touches_b:
        flipped = swap_blocks(g)
        tags.extend(
            replace(t, swapped=True) for t in matching_invariant_cases(flipped)
        )
    order = {case: k for k, case in enumerate(CASE_ORDER)}
    tags.sort(key=lambda t: (order[t.case], t.swapped))
    return tags


# ---------------------------------------------------------------------------
# constructions


def wedge(
    g1: RootedWeightedGraph, g2: RootedWeightedGraph
) -> RootedWeightedGraph:
    """Merge two rooted graphs at their roots; blocks become (n1, n2)."""
    shift = g1.n
    edges = [(i, j, w) for i, j, w in g1.edges]
    for i, j, w in g2.edges:
        edges.append((i + shift if i else 0, j + shift, w))
    return build_graph(g1.n + g2.n, edges, p=g1.n, q=g2.n)


def graph_from_affine_u(
    p: int,
    q: int,
    *,
    a: int,
    b: int,
    c: int,
    cprime: int,
    d: int,
    e: int,
) -> RootedWeightedGraph:
    """The graph whose parking pairs match an affine grid, when one exists.

    Symmetric cross coefficients c = cprime > 0 give a complete graph on
    five bands (root to A: a, inside A: b, across: c, inside B: d, root to
    B: e; zero bands mean absent edges; a and e must not both vanish).
    c = cprime = 0 gives two banded complete graphs merged at the root, and
    needs a, e >= 1. Distinct cross coefficients admit no graph at all.
    """
    if min(p, q) < 1:
        raise InvalidParameters("both block sizes must be at least 1")
    if min(a, b, c, cprime, d, e) < 0:
        raise InvalidParameters("band weights must be non-negative")
    if c != cprime:
        raise InvalidParameters(
            "asymmetric cross coefficients admit no single graph"
        )
    A = range(1, p + 1)
    B = range(p + 1, p + q + 1)
    edges: list[tuple[int, int, int]] = []
    if c == 0:
        if a < 1 or e < 1:
            raise InvalidParameters(
                "independent sides need positive root bands"
            )
    elif a == 0 and e == 0:
        raise InvalidParameters("the root needs at least one positive band")
    for i in A:
        if a:
            edges.append((ROOT, i, a))
    for i, j in itertools.combinations(A, 2):
        if b:
            edges.append((i, j, b))
    for i in A:
        for j in B:
            if c:
                edges.append((i, j, c))
    for i, j in itertools.combinations(B, 2):
        if d:
            edges.append((i, j, d))
    for j in B:
        if e:
            edges.append((ROOT, j, e))
    return build_graph(p + q, edges, p=p, q=q)


def _side_vector(shape: str, length: int, first: int, second: int) -> Vector:
    """Threshold vector of a recognized side structure."""
    if shape in ("tree", "forest"):
        return (first,) * length
    if shape == "cycle":
        return (first,) * (length - 1) + (2 * first,)
    if shape == "complete":
        return tuple(first + k * second for k in range(length))
    raise InvalidParameters(f"unknown side shape {shape!r}")


def _cycle_case_grid(p: int, q: int, a: int, b: int) -> WeightGrid:
    """Grid for the cycle cases; the marked-root band is a, the rest b."""
    if p > 2 and a != b:
        raise InvalidParameters(
            "cycles with more than two first-block vertices are uniform"
        )
    bump_u = a + b if p <= 2 else 2 * a
    bump_v = 2 * b if p <= 2 else 2 * a
    u_rows = []
    for i in range(p + 1):
        row = []
        for j in range(q + 1):
            src = min(i, p - 1)
            row.append(bump_u if (src == p - 1 and j == q) else a)
        u_rows.append(tuple(row))
    v_rows = []
    for i in range(p + 1):
        row = []
        for j in range(q + 1):
            src = min(j, q - 1)
            row.append(bump_v if (i == p and src == q - 1) else b)
        v_rows.append(tuple(row))
    return WeightGrid(p, q, tuple(u_rows), tuple(v_rows))


def _chord_case_grid(p: int, q: int, a: int, b: int, c: int) -> WeightGrid:
    if p != 2:
        raise InvalidParameters(
            "the chord case exists only with two first-block vertices"
        )
    u_rows = [tuple(a for _ in range(q + 1))]
    mid = tuple((a + b if j < q else a + b + c) for j in range(q + 1))
    u_rows.append(mid)
    u_rows.append(mid)
    v_rows = []
    for i in range(p + 1):
        row = []
        for j in range(q + 1):
            src = min(j, q - 1)
            row.append(2 * c if (i == 2 and src == q - 1) else c)
        v_rows.append(tuple(row))
    return WeightGrid(p, q, tuple(u_rows), tuple(v_rows))


@dataclass(frozen=True)
class GridConstruction:
    """Grid built for a matched graph, with the case that produced it."""

    grid: WeightGrid
    case: FamilyTag
    matches: tuple[FamilyTag, ...]
    swapped: bool

    def to_json(self) -> dict:
        out = self.grid.to_json()
        out["case_used"] = self.case.to_json()
        out["matches"] = [t.to_json() for t in self.matches]
        out["swapped"] = self.swapped
        return out


def _grid_for_case(p: int, q: int, tag: FamilyTag) -> WeightGrid:
    case = tag.case
    if case == "i.a":
        a = tag.param("a")
        return _cycle_case_grid(p, q, a, a)
    if case in ("i.b", "i.c"):
        return _cycle_case_grid(p, q, tag.param("a"), tag.param("b"))
    if case == "ii":
        return _chord_case_grid(
            p, q, tag.param("a"), tag.param("b"), tag.param("c")
        )
    if case == "iii":
        c = tag.param("c")
        return grid_from_affine(
            p,
            q,
            a=tag.param("a"),
            b=tag.param("b"),
            c=c,
            cprime=c,
            d=tag.param("d"),
            e=tag.param("e"),
        )
    if case in ("iv.a", "iv.b", "v"):
        u_vec = _side_vector(
            tag.param("a_shape"), p, tag.param("a"), tag.param("b") if case != "v" else 0
        )
        if case == "iv.b":
            v_vec = _side_vector("forest", q, tag.param("c"), 0)
        else:
            v_vec = _side_vector(
                tag.param("b_shape"), q, tag.param("c"), tag.param("d")
            )
        return grid_from_vectors(u_vec, v_vec)
    if case == "vi":
        return grid_from_vectors(
            (tag.param("a"),) * p, (tag.param("b"),) * q
        )
    raise NotClassified(f"no grid construction for case {case!r}")


def construct_u_for_graph(g: RootedWeightedGraph) -> GridConstruction:
    """Grid prescribed by the lowest matching case.

    When the chosen case matched under the swapped labeling, the grid is
    transposed back so that its east direction always corresponds to the
    graph's first block as labeled.
    """
    tags = match_theorem61(g)
    if not tags:
        raise NotClassified("graph matches no case of the classification")
    tag = tags[0]
    return GridConstruction(_grid_for_tag(g, tag), tag, tuple(tags), tag.swapped)


def _grid_for_tag(g: RootedWeightedGraph, tag: FamilyTag) -> WeightGrid:
    """Grid of a matched case, transposed back when it matched swapped."""
    if not tag.swapped:
        return _grid_for_case(g.p, g.q, tag)
    return grid_transpose(_grid_for_case(g.q, g.p, tag))


def _grid_maximal_set(grid: WeightGrid) -> set[Vector]:
    """Maximal parking pairs of the grid, each joined into one vector."""
    return {a + b for a, b in enumerate_mupf(grid)}


def verify_equality(g: RootedWeightedGraph, grid: WeightGrid) -> bool:
    """Whether the graph's maximal parking set equals the grid's.

    Comparing the maximal antichains decides equality of the full sets, both
    being downward closures.
    """
    g.require_bipartition()
    if (g.p, g.q) != (grid.p, grid.q):
        raise ShapeMismatch(
            f"graph blocks ({g.p}, {g.q}) against grid ({grid.p}, {grid.q})"
        )
    return set(enumerate_mpf(g)) == _grid_maximal_set(grid)


# ---------------------------------------------------------------------------
# sweeps


def _slots(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n + 1), 2))


def _block_relabelings(p: int, q: int, slots: list[tuple[int, int]]):
    """Slot permutations induced by relabeling inside each block."""
    index = {pair: k for k, pair in enumerate(slots)}
    maps = []
    for sigma in itertools.permutations(range(1, p + 1)):
        for tau in itertools.permutations(range(p + 1, p + q + 1)):
            relabel = {0: 0}
            relabel.update({v: sigma[v - 1] for v in range(1, p + 1)})
            relabel.update({v: tau[v - p - 1] for v in range(p + 1, p + q + 1)})
            if all(relabel[v] == v for v in relabel):
                continue
            perm = []
            for i, j in slots:
                a, b = relabel[i], relabel[j]
                if a > b:
                    a, b = b, a
                perm.append(index[(a, b)])
            maps.append(tuple(perm))
    return maps


def connected_block_graphs(p: int, q: int, max_w: int):
    """All connected bipartitioned graphs up to relabeling within blocks.

    Every edge slot takes a weight in 0..max_w (0 means absent); only the
    lexicographically smallest weight assignment of each block-relabeling
    orbit is built, and it is yielded when graph.is_connected accepts it.
    """
    n = p + q
    slots = _slots(n)
    relabelings = _block_relabelings(p, q, slots)
    for weights in itertools.product(range(max_w + 1), repeat=len(slots)):
        if any(
            tuple(weights[k] for k in perm) < weights for perm in relabelings
        ):
            continue
        edges = [(i, j, w) for (i, j), w in zip(slots, weights) if w]
        g = build_graph(n, edges, p=p, q=q, require_connected=False)
        if is_connected(g):
            yield g


@dataclass
class SweepReport:
    max_n: int
    max_w: int
    graphs_tested: int
    invariant_count: int
    per_family_counts: dict[str, int]
    counterexamples: list[dict]

    def to_json(self) -> dict:
        return {
            "budget": {"max_n": self.max_n, "max_w": self.max_w},
            "graphs_tested": self.graphs_tested,
            "invariant_count": self.invariant_count,
            "per_family_counts": dict(sorted(self.per_family_counts.items())),
            "counterexamples": self.counterexamples,
        }


def _sweep_block(args: tuple[int, int, int, int, int]) -> dict:
    """Worker for one shard of one block split; returns a partial report."""
    p, q, max_w, shard, shards = args
    tested = 0
    invariant = 0
    counts: dict[str, int] = {}
    bad: list[dict] = []
    for idx, g in enumerate(connected_block_graphs(p, q, max_w)):
        if idx % shards != shard:
            continue
        tested += 1
        maximal = set(enumerate_mpf(g))
        if _orbit_closed(maximal, p) is not None:
            continue
        invariant += 1
        tags = match_theorem61(g)
        if not tags:
            bad.append(
                {"graph": g.to_json(), "reason": "no-case-matches"}
            )
            continue
        case = tags[0].case
        counts[case] = counts.get(case, 0) + 1
        if maximal != _grid_maximal_set(_grid_for_tag(g, tags[0])):
            bad.append(
                {
                    "graph": g.to_json(),
                    "reason": "grid-mismatch",
                    "case": case,
                }
            )
    return {
        "tested": tested,
        "invariant": invariant,
        "counts": counts,
        "bad": bad,
    }


def sweep_classification(
    max_n: int, max_w: int = 2, *, jobs: int = 1
) -> SweepReport:
    """Check the classification on every graph within the budget.

    Every connected bipartitioned graph with both blocks non-empty, at most
    max_n non-root vertices, and weights up to max_w has its maximal parking
    set enumerated once and tested for closure under block permutations.
    Only invariant graphs are matched against the case list; each must match
    a case whose grid has that same maximal set. Failures are reported as
    counterexamples.
    """
    tasks = []
    shards = max(1, jobs)
    for n in range(2, max_n + 1):
        for p in range(1, n):
            for shard in range(shards):
                tasks.append((p, n - p, max_w, shard, shards))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            partials = list(pool.map(_sweep_block, tasks))
    else:
        partials = [_sweep_block(t) for t in tasks]
    report = SweepReport(max_n, max_w, 0, 0, {}, [])
    for part in partials:
        report.graphs_tested += part["tested"]
        report.invariant_count += part["invariant"]
        for case, count in part["counts"].items():
            report.per_family_counts[case] = (
                report.per_family_counts.get(case, 0) + count
            )
        report.counterexamples.extend(part["bad"])
    report.counterexamples.sort(key=lambda d: sorted(d["graph"]["edges"]))
    return report


def search_graph_matching_grid(
    grid: WeightGrid, max_w: int
) -> tuple[RootedWeightedGraph | None, int]:
    """Scan all block graphs of the grid's shape for one with equal parking.

    Uses an exact prefilter: all maximal parking functions of a graph share
    the entry sum W - n, so a grid whose maximal sums are not exactly that
    one value can never agree; survivors get the full comparison. Returns
    the first match (None if none) and the number of graphs scanned.
    """
    target = _grid_maximal_set(grid)
    target_sums = {sum(vec) for vec in target}
    n = grid.p + grid.q
    tested = 0
    for g in connected_block_graphs(grid.p, grid.q, max_w):
        tested += 1
        if len(target_sums) != 1 or g.total_weight - n not in target_sums:
            continue
        if set(enumerate_mpf(g)) == target:
            return g, tested
    return None, tested

"""The benchmark's workloads: seeded set-up, one timed pass, output checks.

Every workload is a closed loop with one client. A pass is the workload's
fixed unit of work; run.py repeats passes until the run's time is up.

  sweep   sweep_classification(4, 2), the paper's exhaustiveness check
  search  the a09 search over every 2x2 block graph with weights up to 3
  member  point lookups: is_g_pf, is_maximal, is_upf, witness_path
  enum    whole sets: enumerate_mpf/pf/upf/mupf, construct_u_for_graph
  cli     one python -m parklab.cli subprocess per request, nine subcommands

Library functions are looked up on their modules at the start of every pass,
so a traced pass calls the tracer's wrappers. Answers of the first pass are
kept, checked after timing stops, and hashed into the output digest.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calib
import gen


def lib(name: str):
    return sys.modules["parklab." + name]


def child_env(root: Path) -> dict:
    """Environment for a child interpreter that imports the checkout's parklab."""
    env = {k: v for k, v in os.environ.items() if k != "PARKLAB_MAX_SET"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def jsonable(value):
    """Answers in a canonical JSON form, for checks and the digest."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


@dataclass
class Pass:
    raw: list[float]  # request latencies as measured
    latencies: list[float]  # the same, calibrated
    answers: list | None
    errors: int

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    @property
    def raw_seconds(self) -> float:
        return sum(self.raw)


@dataclass
class Inputs:
    ops: list = field(default_factory=list)  # (module, function, args)
    counts: list = field(default_factory=list)  # per op: matrix-tree count
    shares: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def shuffle(self, rng: random.Random) -> None:
        """Mix the request kinds, keeping each op with its count."""
        order = list(range(len(self.ops)))
        rng.shuffle(order)
        self.ops = [self.ops[k] for k in order]
        if self.counts:
            self.counts = [self.counts[k] for k in order]


class Workload:
    name = ""
    tail_pct = 100.0  # percentile reported as tail_ms
    long_call = False  # one long call per pass: calibrate while it runs

    def setup(self, seed: int, size: str) -> Inputs:
        raise NotImplementedError

    def run_pass(self, inp: Inputs, keep: bool, calibrate: bool = True) -> Pass:
        """Call every op once, timing each call.

        Calibrating probes the CPU between calls, or for a workload of one
        long call, from a sampling thread during it.
        """
        domain_error = lib("errors").DomainError
        calls = [(getattr(lib(m), f), args) for m, f, args in inp.ops]
        raw: list[float] = []
        sampled: list[float] = []
        answers: list | None = [] if keep else None
        errors = 0
        probes = calib.Probes()
        sample = calibrate and self.long_call
        for k, (fn, args) in enumerate(calls):
            if calibrate and not sample:
                probes.take(k, force=not k)
            with calib.Sampler() if sample else contextlib.nullcontext() as sampler:
                t0 = perf_counter()
                try:
                    out = fn(*args)
                except domain_error as exc:
                    out = {"error": exc.to_json()}
                    errors += 1
                t1 = perf_counter()
            raw.append(t1 - t0)
            if sample:
                sampled.append(sampler.calibrate(t0, t1))
            if keep:
                answers.append(out)
        if sample:
            latencies = sampled
        elif calibrate:
            probes.take(len(calls), force=True)
            latencies = probes.calibrate(raw)
        else:
            latencies = raw
        return Pass(raw, latencies, answers, errors)

    def after(self, inp: Inputs) -> dict:
        """Untimed follow-up measurements reported in the detail record."""
        return {}

    def check(self, inp: Inputs, answers: list) -> list[str]:
        """Failed checks; run only when no call raised."""
        raise NotImplementedError

    def traced_pass(self, inp: Inputs, tracer) -> Pass:
        return self.run_pass(inp, keep=True, calibrate=False)

    def cleanup(self, inp: Inputs) -> None:
        pass


# ---------------------------------------------------------------------------
# sweep and search: one library call per pass

SWEEP_BUDGET = {"full": (4, 2), "tiny": (3, 1)}
SWEEP_PINS = {
    "full": {
        "graphs_tested": 35_933,
        "invariant_count": 1_120,
        "per_family_counts": {"i.a": 26, "i.b": 12, "i.c": 8, "ii": 32,
                              "iii": 322, "iv.a": 292, "iv.b": 72, "v": 208,
                              "vi": 148},
    },
    "tiny": {
        "graphs_tested": 50,
        "invariant_count": 38,
        "per_family_counts": {"i.a": 5, "ii": 2, "iii": 10, "iv.a": 11,
                              "iv.b": 2, "v": 8},
    },
}


class Sweep(Workload):
    name = "sweep"
    long_call = True

    def setup(self, seed, size):
        max_n, max_w = SWEEP_BUDGET[size]
        return Inputs(ops=[("classify", "sweep_classification", (max_n, max_w))],
                      extra={"pins": SWEEP_PINS[size]})

    def after(self, inp):
        """The same sweep on two worker processes, sharded by graph index."""
        _, _, (max_n, max_w) = inp.ops[0]
        with calib.all_cpus():
            t0 = perf_counter()
            report = lib("classify").sweep_classification(max_n, max_w, jobs=2)
            elapsed = perf_counter() - t0
        inp.extra["jobs2_report"] = report.to_json()
        return {"jobs2_raw_wall_s": elapsed}

    def check(self, inp, answers):
        report = jsonable(answers[0])
        pins = inp.extra["pins"]
        bad = [f"sweep {key} = {report.get(key)!r}, expected {want!r}"
               for key, want in pins.items() if report.get(key) != want]
        if report.get("counterexamples") != []:
            bad.append(f"sweep counterexamples: {report.get('counterexamples')!r}")
        if "jobs2_report" in inp.extra and inp.extra["jobs2_report"] != report:
            bad.append("sweep jobs=2 report differs from jobs=1")
        return bad


# the a09 grid: asymmetric cross coefficients c = 1, c' = 2
A09 = {"a": 1, "b": 0, "c": 1, "cprime": 2, "d": 0, "e": 1}
SEARCH_SHAPE = {"full": (2, 2, 3, 265_374), "tiny": (1, 2, 2, 342)}


class Search(Workload):
    name = "search"
    long_call = True

    def setup(self, seed, size):
        p, q, max_w, tested = SEARCH_SHAPE[size]
        grid = lib("lattice").grid_from_affine(p, q, **A09)
        return Inputs(ops=[("classify", "search_graph_matching_grid",
                            (grid, max_w))],
                      extra={"tested": tested})

    def check(self, inp, answers):
        found, tested = answers[0]
        bad = []
        if tested != inp.extra["tested"]:
            bad.append(f"search scanned {tested} graphs, expected "
                       f"{inp.extra['tested']}")
        if found is not None:
            bad.append(f"search found a graph: {jsonable(found)!r}")
        return bad


# ---------------------------------------------------------------------------
# library queries

# graphs per pool: (dense, star-like); sizes cycle through the given lists
POOLS = {
    "member": {"full": (40, 20, 30, 0), "tiny": (2, 1, 2, 0)},
    "enum": {"full": (24, 12, 24, 24), "tiny": (2, 1, 2, 3)},
}
STAR_N = (6, 7, 8)
STAR_EXTRA = (0, 1, 2)
CASE_KINDS = ("cycle", "banded", "tree")


def make_graphs(rng: random.Random, dense: int, star: int):
    """(n, edges, |PF|) for the dense and then the star-like part of a pool."""
    out = [gen.dense_in_stratum(rng, k) for k in range(dense)]
    for k in range(star):
        n = STAR_N[k % len(STAR_N)]
        edges = gen.star_like(rng, n, STAR_EXTRA[(k // len(STAR_N)) % len(STAR_EXTRA)])
        out.append((n, edges, gen.matrix_tree_count(n, edges)))
    return out


def build_grid(kind: str, p: int, q: int, params: dict):
    lattice = lib("lattice")
    if kind == "affine":
        return lattice.grid_from_affine(p, q, **params)
    return lattice.grid_from_vectors(params["u"], params["v"])


def grid_members(grid) -> set:
    """Every pair the grid parks, by a reachability DP over lattice nodes.

    A pair parks when some monotone path reaches (p, q) with its k-th east
    step weighing more than the k-th smallest entry of the first block, and
    likewise north. This is a different algorithm from the library's path
    scan, so the two check each other.
    """
    p, q = grid.p, grid.q
    a_bound = max((grid.u[i][j] for i in range(p) for j in range(q + 1)), default=1)
    b_bound = max((grid.v[i][j] for i in range(p + 1) for j in range(q)), default=1)
    memo: dict = {}

    def parks(sa, sb) -> bool:
        key = (sa, sb)
        if key not in memo:
            reach = [[False] * (q + 1) for _ in range(p + 1)]
            reach[0][0] = True
            for i in range(p + 1):
                for j in range(q + 1):
                    if (i and reach[i - 1][j] and grid.u[i - 1][j] > sa[i - 1]) or (
                        j and reach[i][j - 1] and grid.v[i][j - 1] > sb[j - 1]
                    ):
                        reach[i][j] = True
            memo[key] = reach[p][q]
        return memo[key]

    return {
        (a, b)
        for a in itertools.product(range(a_bound), repeat=p)
        for b in itertools.product(range(b_bound), repeat=q)
        if parks(tuple(sorted(a)), tuple(sorted(b)))
    }


def maximal_elements(vectors: set) -> set:
    """Elements from which no single entry can grow inside the set."""
    return {
        v for v in vectors
        if not any(v[:k] + (v[k] + 1,) + v[k + 1:] in vectors for k in range(len(v)))
    }


def path_bounds(grid, pair, path: str) -> bool:
    east, north, x, y = [], [], 0, 0
    for step in path:
        if step == "E":
            east.append(grid.u[x][y])
            x += 1
        else:
            north.append(grid.v[x][y])
            y += 1
    return (len(east), len(north)) == (grid.p, grid.q) and all(
        s < w for s, w in zip(sorted(pair[0]), east)
    ) and all(s < w for s, w in zip(sorted(pair[1]), north))


class Member(Workload):
    name = "member"
    tail_pct = 99.0

    def setup(self, seed, size):
        rng = random.Random(f"member:{seed}")
        build_graph = lib("graph").build_graph
        dense, star, grids, _ = POOLS["member"][size]
        inp = Inputs(shares={"dense": dense, "star": star, "grids": grids})
        for n, edges, _ in make_graphs(rng, dense, star):
            g = build_graph(n, edges)
            for k in range(10):
                top = gen.random_maximal(rng, n, edges)
                if k < 5:
                    op, vec = "is_g_pf", gen.perturb(rng, top)
                elif k < 8:
                    op, vec = "is_g_pf", gen.below(rng, top)
                else:
                    op, vec = "is_maximal", top if k < 9 else gen.below(rng, top)
                inp.ops.append(("parking", op, (g, vec)))
        for k in range(grids):
            kind, p, q, params = gen.random_grid(rng, k)
            grid = build_grid(kind, p, q, params)
            bounds = gen.grid_bounds(kind, p, q, params)
            for j in range(8):
                op = "is_upf" if j < 4 else "witness_path"
                inp.ops.append(("lattice", op, (gen.random_pair(rng, p, q, bounds), grid)))
        inp.shuffle(rng)
        return inp

    def check(self, inp, answers):
        by_subsets = lib("parking").is_g_pf_by_subsets
        upf_sets: dict[int, set] = {}
        bad = []
        for (_, op, args), got in zip(inp.ops, answers):
            if op in ("is_g_pf", "is_maximal"):
                obj, vec = args
                want = by_subsets(obj, vec)
                if op == "is_maximal":
                    want = want and sum(vec) == obj.total_weight - obj.n
                ok = got == want
            else:
                pair, obj = args
                if id(obj) not in upf_sets:
                    upf_sets[id(obj)] = set(lib("lattice").enumerate_upf(obj))
                want = pair in upf_sets[id(obj)]
                if op == "is_upf":
                    ok = got == want
                else:
                    # a member needs a path that bounds it, a non-member None
                    ok = (got is not None and path_bounds(obj, pair, got)
                          if want else got is None)
            if not ok:
                bad.append(f"{op} on {jsonable(args)!r}: got {jsonable(got)!r}, "
                           f"membership oracle says {want!r}")
        return bad


class Enum(Workload):
    name = "enum"
    tail_pct = 98.0

    def setup(self, seed, size):
        rng = random.Random(f"enum:{seed}")
        build_graph = lib("graph").build_graph
        dense, star, grids, cases = POOLS["enum"][size]
        inp = Inputs(shares={"dense": dense, "star": star, "grids": grids,
                             "case_graphs": cases})
        for n, edges, count in make_graphs(rng, dense, star):
            g = build_graph(n, edges)
            for op in ("enumerate_mpf", "enumerate_pf"):
                inp.ops.append(("parking", op, (g,)))
                inp.counts.append(count)
        for k in range(grids):
            kind, p, q, params = gen.random_grid(rng, k)
            grid = build_grid(kind, p, q, params)
            for op in ("enumerate_mupf", "enumerate_upf"):
                inp.ops.append(("lattice", op, (grid,)))
                inp.counts.append(None)
        for k in range(cases):
            kind = CASE_KINDS[k % len(CASE_KINDS)]
            edges, p, q = gen.case_graph(rng, kind, rng.randint(1, 3), rng.randint(1, 2))
            inp.ops.append(("classify", "construct_u_for_graph",
                            (build_graph(p + q, edges, p=p, q=q),)))
            inp.counts.append(gen.matrix_tree_count(p + q, edges))
        inp.shuffle(rng)
        return inp

    def check(self, inp, answers):
        ori = lib("orientations")
        by_obj: dict[tuple[str, int], object] = {}
        for (_, op, args), got in zip(inp.ops, answers):
            by_obj[(op, id(args[0]))] = got
        bad = []
        grid_sets: dict[int, set] = {}
        for (_, op, args), count, got in zip(inp.ops, inp.counts, answers):
            obj = args[0]
            if op == "enumerate_pf":
                if len(got) != count:
                    bad.append(f"enumerate_pf size {len(got)}, matrix-tree count {count}")
            elif op == "enumerate_mpf":
                pf = set(by_obj[("enumerate_pf", id(obj))])
                if set(got) != maximal_elements(pf):
                    bad.append("enumerate_mpf differs from the maximal elements "
                               "of enumerate_pf")
                if any(sum(b) != obj.total_weight - obj.n for b in got):
                    bad.append("enumerate_mpf entry sums differ from W - n")
                if len(obj.edges) <= gen.BRUTE_MAX_EDGES:
                    brute = sorted({ori.orientation_to_mpf(o)
                                    for o in ori.enumerate_A_bruteforce(obj)})
                    if got != brute:
                        bad.append("enumerate_mpf differs from the brute-force "
                                   "orientations")
            elif op in ("enumerate_upf", "enumerate_mupf"):
                if id(obj) not in grid_sets:
                    grid_sets[id(obj)] = grid_members(obj)
                members = grid_sets[id(obj)]
                if op == "enumerate_upf":
                    want = sorted(members)
                else:
                    flat = maximal_elements({a + b for a, b in members})
                    want = sorted((v[:obj.p], v[obj.p:]) for v in flat)
                if got != want:
                    bad.append(f"{op} differs from the lattice DP on "
                               f"{jsonable(obj)!r}")
            else:  # construct_u_for_graph
                grid = got.grid
                members = {a + b for a, b in grid_members(grid)}
                pf = set(lib("parking").enumerate_pf(obj))
                if (grid.p, grid.q) != (obj.p, obj.q) or len(members) != count \
                        or members != pf:
                    bad.append(f"construct_u_for_graph grid does not park the "
                               f"graph's parking functions: {jsonable(obj)!r}")
        return bad


# ---------------------------------------------------------------------------
# command line

# block sizes (p, q) of the case graph and of the banded graph, per file set
CLI_SETS = {"full": ((1, 2), (2, 1), (2, 2)), "tiny": ((1, 2),)}


def graph_text(n: int, p: int, q: int, edges) -> str:
    return "\n".join([f"{n} {p} {q}"] + [f"{i} {j} {w}" for i, j, w in edges]) + "\n"


class Cli(Workload):
    name = "cli"
    tail_pct = 80.0

    def __init__(self, root: Path, out: Path) -> None:
        self.root = root
        self.out = out

    def setup(self, seed, size):
        rng = random.Random(f"cli:{seed}")
        self.out.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=self.out))
        inp = Inputs(extra={"tmp": tmp})
        for k, (p, q) in enumerate(CLI_SETS[size]):
            kind = CASE_KINDS[k % len(CASE_KINDS)]
            edges, p, q = gen.case_graph(rng, kind, p, q)
            graph_file = tmp / f"g{k}.txt"
            graph_file.write_text(graph_text(p + q, p, q, edges))
            vec = gen.perturb(rng, gen.random_maximal(rng, p + q, edges))
            gkind, gp, gq, params = gen.random_grid(rng, 0)
            grid_file = tmp / f"r{k}.json"
            grid_file.write_text(json.dumps(
                {"p": gp, "q": gq, "affine": params} if gkind == "affine"
                else {"vectors": {"u": list(params["u"]), "v": list(params["v"])}}))
            pair = gen.random_pair(rng, gp, gq, gen.grid_bounds(gkind, gp, gq, params))
            # a banded complete graph and the symmetric affine grid it matches
            bp, bq = q, p
            bands = gen.random_bands(rng)
            band_file = tmp / f"b{k}.txt"
            band_file.write_text(graph_text(bp + bq, bp, bq, gen.banded(bp, bq, bands)))
            affine_file = tmp / f"a{k}.json"
            affine_file.write_text(json.dumps(
                {"p": bp, "q": bq, "affine": dict(bands, cprime=bands["c"])}))
            g, r = str(graph_file), str(grid_file)
            csv = ",".join(map(str, vec))
            pair_text = ",".join(map(str, pair[0])) + ";" + ",".join(map(str, pair[1]))
            inp.ops += [
                ("pf", "--graph", g),
                ("mpf", "--graph", g),
                ("check", "--graph", g, "--vector", csv),
                ("orientations", "--graph", g),
                ("upf", "--grid", r, "--pair", pair_text),
                ("grid", "--grid", r),
                ("classify", "--graph", g),
                ("construct-u", "--graph", g),
                ("verify", "--graph", str(band_file), "--grid", str(affine_file)),
            ]
        return inp

    def run_pass(self, inp, keep, calibrate=True):
        env = child_env(self.root)
        raw, answers, errors = [], [] if keep else None, 0
        probes = calib.Probes(lambda: calib.start_probe(env), calib.START_EVERY_S,
                              calib.START_REF_S)
        for k, argv in enumerate(inp.ops):
            probes.take(k, force=not k)
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "parklab.cli", *argv],
                capture_output=True, text=True, env=env, cwd=self.root,
            )
            raw.append(perf_counter() - t0)
            errors += proc.returncode != 0
            if keep:
                answers.append((proc.returncode, proc.stdout, proc.stderr))
        probes.take(len(inp.ops), force=True)
        return Pass(raw, probes.calibrate(raw), answers, errors)

    def in_process(self, inp, tracer=None) -> Pass:
        """The same requests through cli.main inside this process, uncalibrated."""
        main = lib("cli").main
        raw, answers = [], []
        for argv in inp.ops:
            buf = io.StringIO()
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            t0 = perf_counter()
            with span, contextlib.redirect_stdout(buf):
                main.main(list(argv), prog_name="parklab", standalone_mode=False)
            raw.append(perf_counter() - t0)
            answers.append((0, buf.getvalue(), ""))
        return Pass(raw, raw, answers, 0)

    def after(self, inp):
        # the second pass is warm, like the traced pass it is compared with
        self.in_process(inp)
        inp.extra["in_process"] = self.in_process(inp)
        return {}

    def traced_pass(self, inp, tracer):
        return self.in_process(inp, tracer)

    def check(self, inp, answers):
        bad = []
        expected = inp.extra["in_process"].answers
        for argv, (code, out, err), (_, want, _) in zip(inp.ops, answers, expected):
            label = argv[0]
            if code != 0:
                bad.append(f"cli {label} exited {code}: {err.strip()[-200:]}")
                continue
            if out != want:
                bad.append(f"cli {label} stdout differs from the in-process call")
                continue
            try:
                doc = json.loads(out)
            except json.JSONDecodeError:
                bad.append(f"cli {label} printed no JSON")
                continue
            bad += [f"cli {label}: {msg}" for msg in cli_library_check(argv, doc)]
        return bad

    def cleanup(self, inp):
        shutil.rmtree(inp.extra["tmp"], ignore_errors=True)


def cli_library_check(argv, doc) -> list[str]:
    """Compare one CLI answer with the library called in this process."""
    parking, lattice, classify = lib("parking"), lib("lattice"), lib("classify")
    graph = lib("graph")
    opts = dict(zip(argv[1::2], argv[2::2]))
    g = graph.parse_graph_text(Path(opts["--graph"]).read_text()) if "--graph" in opts else None
    grid = lattice.load_grid(json.loads(Path(opts["--grid"]).read_text())) if "--grid" in opts else None
    cmd = argv[0]
    bad = []
    if cmd == "pf":
        elements = parking.enumerate_pf(g)
        if doc != {"count": len(elements), "elements": jsonable(elements)}:
            bad.append("differs from enumerate_pf")
        if doc["count"] != gen.matrix_tree_count(g.n, g.edges):
            bad.append("count differs from the matrix-tree count")
    elif cmd == "mpf":
        if doc["elements"] != jsonable(parking.enumerate_mpf(g)):
            bad.append("differs from enumerate_mpf")
    elif cmd == "check":
        vec = tuple(int(x) for x in opts["--vector"].split(","))
        parks = parking.is_g_pf_by_subsets(g, vec)
        maximal = parks and sum(vec) == g.total_weight - g.n
        if doc != {"parking_function": parks, "maximal": maximal}:
            bad.append("differs from the subset scan")
    elif cmd == "orientations":
        if sorted(o["mpf"] for o in doc["orientations"]) != jsonable(parking.enumerate_mpf(g)):
            bad.append("orientation vectors differ from enumerate_mpf")
    elif cmd == "upf":
        left, right = opts["--pair"].split(";")
        pair = (tuple(int(x) for x in left.split(",")),
                tuple(int(x) for x in right.split(",")))
        member = pair in set(lattice.enumerate_upf(grid))
        if doc["upf"] != member or (member != (doc["witness_path"] is not None)) or (
                member and not path_bounds(grid, pair, doc["witness_path"])):
            bad.append("differs from membership in enumerate_upf")
    elif cmd == "grid":
        if doc["maximal_count"] != len(lattice.enumerate_mupf(grid)):
            bad.append("maximal_count differs from enumerate_mupf")
    elif cmd == "classify":
        if doc["invariant"] != classify.is_invariant(g).invariant:
            bad.append("differs from is_invariant")
    elif cmd == "construct-u":
        if doc != jsonable(classify.construct_u_for_graph(g)):
            bad.append("differs from construct_u_for_graph")
    elif cmd == "verify":
        if doc != {"equal": True} or not classify.verify_equality(g, grid):
            bad.append("a banded graph and its affine grid must agree")
    return bad

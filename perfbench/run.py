"""parklab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Imports parklab from src/ next to this directory and times calls into its
public functions. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it also runs one traced pass and reports the per-layer metrics
instead. The line before the last holds the full record (provenance, sample
counts, output digest, failed checks); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 1 without a result when parklab cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calib
import workloads
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# names of the form <module>.<function>.<calls|self_s|items> come from the
# tracer; the others are computed in layer_metrics
PER_LAYER = {
    "classify.connected_block_graphs.calls": "count",
    "classify.connected_block_graphs.self_s": "s",
    "classify.connected_block_graphs.items": "count",
    "classify.gen.yield_ratio": "ratio",
    "graph.build_graph.self_s": "s",
    "orientations.enumerate_A.self_s": "s",
    "orientations.enumerate_A.items": "count",
    "orientations.orientation_to_mpf.calls": "count",
    "orientations.orientation_to_mpf.self_s": "s",
    "parking.enumerate_mpf.self_s": "s",
    "parking.enumerate_pf.self_s": "s",
    "parking.enumerate_pf.items": "count",
    "parking.is_g_pf.self_s": "s",
    "graph.matching_invariant_cases.calls": "count",
    "graph.matching_invariant_cases.self_s": "s",
    "classify.is_invariant.self_s": "s",
    "classify.invariant_ratio": "ratio",
    "classify.construct_u_for_graph.self_s": "s",
    "classify.verify_equality.self_s": "s",
    "search.prefilter_pass_ratio": "ratio",
    "lattice.is_upf.self_s": "s",
    "lattice.witness_path.self_s": "s",
    "lattice.enumerate_upf.self_s": "s",
    "lattice.enumerate_upf.items": "count",
    "lattice.enumerate_mupf.self_s": "s",
    "lattice.enumerate_mupf.items": "count",
    "lattice.grid_from_affine.calls": "count",
    "lattice.grid_from_affine.self_s": "s",
    "lattice.grid_from_vectors.calls": "count",
    "lattice.grid_from_vectors.self_s": "s",
    "cli.main.self_ms": "ms",
    "cli.startup_ms": "ms",
    "trace.overhead_s": "s",
    "trace.self_coverage": "ratio",
}
PACKAGE_MODULES = ["parklab." + m for m in LAYERS] + ["parklab.errors"]


def make_workload(name: str) -> workloads.Workload:
    if name == "cli":
        return workloads.Cli(ROOT, OUT)
    return {"sweep": workloads.Sweep, "search": workloads.Search,
            "member": workloads.Member, "enum": workloads.Enum}[name]()


def import_parklab(extra: list[str]) -> None:
    """Import the checkout's own parklab, or exit without a result."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import parklab

        for name in PACKAGE_MODULES + extra:
            __import__(name)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import parklab from {src}: {exc}")
    if not Path(parklab.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: parklab came from {parklab.__file__}, not {src}")


def import_seconds(module: str) -> float:
    """Time to import the package in a fresh interpreter, as a user pays it."""
    probe = (f"import time; t = time.perf_counter(); import {module}; "
             "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=workloads.child_env(ROOT), cwd=ROOT, check=True)
    return float(out.stdout)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def min_samples(tail_pct: float) -> int:
    """Samples needed for ten of them to lie beyond the tail percentile."""
    return 1 if tail_pct >= 100 else math.ceil(10 / (1 - tail_pct / 100) - 1e-9)


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def provenance(seed: int, size: str) -> dict:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.split()
        commit = top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    try:
        click = importlib.metadata.version("click")
    except importlib.metadata.PackageNotFoundError:
        click = None
    return {
        "seed": seed,
        "size": size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "click": click,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(wl, inp, seconds: float) -> tuple[list, float]:
    """Repeat passes until the time is up and the tail has its samples.

    Peak memory is read after the first pass: later passes repeat the same
    work and only add the benchmark's own latency samples.
    """
    need = min_samples(wl.tail_pct)
    started = perf_counter()
    passes = [wl.run_pass(inp, keep=True)]
    rss = peak_rss_mb()
    while perf_counter() - started < seconds or sum(len(p.raw) for p in passes) < need:
        passes.append(wl.run_pass(inp, keep=False))
    return passes, rss


def summary(passes: list, calibrated: bool, tail_pct: float) -> dict:
    """wall_s, p50_ms and tail_ms over the passes, calibrated or raw."""
    latencies = [t for p in passes for t in (p.latencies if calibrated else p.raw)]
    return {
        "wall_s": statistics.median(p.seconds if calibrated else p.raw_seconds
                                    for p in passes),
        "p50_ms": statistics.median(latencies) * 1000,
        "tail_ms": percentile(latencies, tail_pct) * 1000,
    }


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  cli_p50_ms: float, cli_main_ms: float) -> dict:
    selfs = tracer.self_times()
    calls, items = tracer.calls, tracer.items
    scanned = items.get("classify.connected_block_graphs", 0)
    checked = calls.get("classify.is_invariant", 0)
    computed = {
        "classify.gen.yield_ratio":
            scanned / tracer.gen_assignments if tracer.gen_assignments else 0.0,
        "classify.invariant_ratio":
            items.get("classify.is_invariant", 0) / checked if checked else 0.0,
        "search.prefilter_pass_ratio":
            calls.get("classify.verify_equality", 0) / scanned if scanned else 0.0,
        "trace.self_coverage": tracer.root_time(exclude="bench.setup") / traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "cli.main.self_ms": cli_main_ms,
        "cli.startup_ms": cli_p50_ms - cli_main_ms if cli_main_ms else 0.0,
    }
    out = {}
    for name in PER_LAYER:
        if name in computed:
            out[name] = computed[name]
            continue
        layer, field = name.rsplit(".", 1)
        table = {"calls": calls, "items": items, "self_s": selfs}[field]
        out[name] = table.get(layer, 0)
    return out


def set_up(wl, seed: int, size: str, module: str):
    """Set up SETUP_REPEATS times; keep the last inputs.

    Each set-up imports the package in a fresh interpreter and generates the
    inputs here. Returns the inputs and the median set-up time, calibrated
    (the import with the start-up probe, the rest with the loop probe) and raw.
    """
    env = workloads.child_env(ROOT)
    calibrated, raw, inp = [], [], None
    for _ in range(SETUP_REPEATS):
        if inp is not None:
            wl.cleanup(inp)
        start, loop = calib.start_probe(env), calib.probe()
        imported = import_seconds(module)
        t0 = perf_counter()
        inp = wl.setup(seed, size)
        generated = perf_counter() - t0
        start, loop = (start + calib.start_probe(env)) / 2, (loop + calib.probe()) / 2
        raw.append(imported + generated)
        calibrated.append(imported * calib.START_REF_S / start
                          + generated * calib.REF_S / loop)
    return inp, statistics.median(calibrated), statistics.median(raw)


def traced_run(wl, inp, args, raw_metrics: dict, answers_json, bad: list) -> dict:
    """Set up and run one pass with the tracer installed; per-layer metrics."""
    tracer = Tracer()
    tracer.install()
    traced_inp = None
    try:
        with tracer.span("bench.setup"):
            traced_inp = wl.setup(args.seed, args.size)
        t0 = perf_counter()
        traced = wl.traced_pass(traced_inp, tracer)
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()
        if traced_inp is not None:
            wl.cleanup(traced_inp)
    if workloads.jsonable(traced.answers) != answers_json:
        bad.append("the traced pass answered differently")
    in_process = inp.extra.get("in_process")
    if in_process:  # cli: compare with the untraced in-process pass
        untraced_wall = in_process.raw_seconds
        main_ms = statistics.median(in_process.raw) * 1000
        cli_p50 = raw_metrics["p50_ms"]
    else:
        untraced_wall = raw_metrics["wall_s"]
        main_ms = cli_p50 = 0.0
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.bin")
    return layer_metrics(tracer, traced_wall, untraced_wall, cli_p50, main_ms)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "search", "member", "enum", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input, for the smoke test")
    args = parser.parse_args(argv)

    os.environ.pop("PARKLAB_MAX_SET", None)
    calib.pin()
    extra = ["parklab.cli"] if args.workload == "cli" else []
    import_parklab(extra)
    wl = make_workload(args.workload)

    inp, setup_s, raw_setup_s = set_up(wl, args.seed, args.size, extra[0] if extra else "parklab")
    try:
        passes, rss = measure(wl, inp, args.seconds)
        answers = passes[0].answers
        errors = sum(p.errors for p in passes)
        attempted = sum(len(p.raw) for p in passes)
        extra_metrics = wl.after(inp)
        bad = (wl.check(inp, answers) if not errors
               else [f"{errors} calls raised DomainError or exited non-zero"])
        metrics = {"setup_s": setup_s, **summary(passes, True, wl.tail_pct),
                   "peak_rss_mb": rss}
        raw_metrics = {"setup_s": raw_setup_s, **summary(passes, False, wl.tail_pct),
                       **extra_metrics}
        answers_json = workloads.jsonable(answers)
        digest = hashlib.sha256(
            json.dumps(answers_json, sort_keys=True).encode()).hexdigest()
        layers = None
        if args.trace:
            layers = traced_run(wl, inp, args, raw_metrics, answers_json, bad)
    finally:
        wl.cleanup(inp)

    failed = min(attempted, errors + len(bad))
    record = {
        "workload": args.workload,
        **provenance(args.seed, args.size),
        "seconds": args.seconds,
        "passes": len(passes),
        "samples": attempted,
        "tail_percentile": wl.tail_pct,
        "shares": inp.shares,
        "output_digest": digest,
        "failed_checks": bad[:20],
        "end_to_end": metrics,
        "raw": raw_metrics,
        "per_layer": layers,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    chosen, units = (layers, PER_LAYER) if args.trace else (metrics, END_TO_END)
    print(json.dumps({
        "correct": not bad and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

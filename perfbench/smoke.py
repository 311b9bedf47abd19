"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json, run.py and layers.json name the same metrics.
Runs every workload with --size tiny, untraced and traced, and checks the
result line against BENCHMARK.json. Runs the traced pass twice with one seed
and requires every count, ratio and output digest to repeat exactly. Feeds
each workload's checks a wrong answer and requires them to notice. Finally
runs the benchmark from a copy holding only BENCHMARK.json and perfbench/,
where it must fail without printing a result. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True,
        text=True, cwd=cwd, timeout=180,
    )


def result_lines(proc, label: str) -> tuple[dict, dict]:
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def check_result(result: dict, spec_metrics: list[dict], label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: {result['correct']=} {result['attempted']=} {result['failed']=}")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            fail(f"{label}: {name} is not a number")


def deterministic(record: dict) -> dict:
    """Everything a traced run must repeat exactly under one seed."""
    layers = {k: v for k, v in record["per_layer"].items()
              if run.PER_LAYER[k] == "count" or k.endswith("_ratio")}
    return {"digest": record["output_digest"], **layers}


def check_names() -> None:
    """BENCHMARK.json, run.py and layers.json name the same metrics."""
    layers = json.loads((run.HERE / "layers.json").read_text())["per_layer"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if declared != run.PER_LAYER or set(layers) != set(declared):
        fail("per-layer metrics differ between BENCHMARK.json, run.py and layers.json")
    if {m["name"]: m["unit"] for m in SPEC["end_to_end"]} != run.END_TO_END:
        fail("end-to-end metrics differ between BENCHMARK.json and run.py")


def check_runs() -> None:
    for name in WORKLOADS:
        common = ["--workload", name, "--seed", str(SEED), "--seconds", "0.2",
                  "--size", "tiny"]
        record, result = result_lines(bench(*common, "--trace", "0"), f"{name} untraced")
        check_result(result, SPEC["end_to_end"], f"{name} untraced")
        if any(v["value"] <= 0 for v in result["metrics"].values()):
            fail(f"{name}: an end-to-end metric is not positive: {result['metrics']}")
        traced = []
        for attempt in range(2):
            record, result = result_lines(bench(*common, "--trace", "1"), f"{name} traced")
            check_result(result, SPEC["per_layer"], f"{name} traced")
            traced.append(deterministic(record))
        diff = {k for k in traced[0] if traced[0][k] != traced[1][k]}
        if diff:
            fail(f"{name}: not deterministic under one seed: {sorted(diff)}")
        print(f"smoke: {name} ok")


def check_checks() -> None:
    """Each workload's checks must reject a wrong answer."""
    run.import_parklab(["parklab.cli"])
    for name in WORKLOADS:
        wl = run.make_workload(name)
        inp = wl.setup(SEED, "tiny")
        try:
            answers = wl.run_pass(inp, keep=True).answers
            wl.after(inp)
            if wl.check(inp, answers):
                fail(f"{name}: checks reject correct answers")
            if wl.check(inp, tamper(name, answers)) == []:
                fail(f"{name}: checks accept a wrong answer")
        finally:
            wl.cleanup(inp)
    print("smoke: checks reject wrong answers")


def tamper(name: str, answers: list) -> list:
    wrong = list(answers)
    if name == "sweep":
        report = workloads.jsonable(wrong[0])
        report["invariant_count"] += 1
        wrong[0] = report
    elif name == "search":
        wrong[0] = (None, wrong[0][1] - 1)
    elif name == "member":
        wrong[0] = not wrong[0] if isinstance(wrong[0], bool) else "NNN"
    elif name == "enum":
        k = next(i for i, a in enumerate(wrong) if isinstance(a, list) and a)
        wrong[k] = wrong[k][:-1]
    else:
        code, out, err = wrong[0]
        wrong[0] = (code, out.replace("1", "2", 1), err)
    return wrong


def check_without_source() -> None:
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        bare = Path(bare)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"without src/: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    print("smoke: fails without the source tree")


if __name__ == "__main__":
    check_names()
    check_runs()
    check_checks()
    check_without_source()
    print("smoke: ok")

"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/spread.py --workload member --runs 5
    python3 perfbench/spread.py --runs 10            # every workload

Runs the benchmark once per seed (seeds 1..runs), one run at a time, and
prints per metric the median, the quartiles and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. A spread at or above a third of the bound is marked "!";
setup_s is exempt, as its bound applies to medians only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stdout[-3000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    worst = 0.0
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for metric, value in one_run(name, seed, SPEC["run_seconds"]).items():
                values.setdefault(metric, []).append(value)
            print(f"  {name} seed {seed} done", file=sys.stderr, flush=True)
        print(f"{name} ({args.runs} runs)")
        for spec in SPEC["end_to_end"]:
            vals = values[spec["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            flag = "!" if share >= spec["bound"] / 3 and spec["name"] != "setup_s" else " "
            if spec["name"] != "setup_s":
                worst = max(worst, share / spec["bound"])
            print(f"  {flag} {spec['name']:12} median {statistics.median(vals):12.6g} "
                  f"{spec['unit']:3} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {share:7.2%} of bound {spec['bound']:.0%}")
    print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

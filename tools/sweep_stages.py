"""Print best-of-k time spans of the sweep's stages on one budget.

The sweep, parklab.classify.sweep_classification(max_n, max_w) in one
process, runs k times with the classify names it calls wrapped in timers.
Each span is a self time: a wrapped call made inside another counts only
toward its own stage. A lazy iterator that a wrapped name returns is timed
as it is read, and so is one inside the items it yields (the solver's
graphs). The stages:

- solver: the level solver's patterns and weightings;
- swap-burn walk: the invariance check on the maximal set;
- case match: planning and reading the cases (construct_u_for_graph on
  trees whose sweep still calls it);
- grid pricing: each case's grid and its increasing pairs;
- grid check: a graph's maximal set against its grid;
- rest: the rest of the sweep, such as building the graphs;
- total: the sweep's wall time with the timers in place.

Each line is the least span over the k runs. A name the checked-out
classify module lacks is skipped, so the script also times older trees.

Usage: python tools/sweep_stages.py [max_n] [max_w] [--rounds k]
Defaults: 4 2, k = 5. Stdlib only; parklab is imported from the src
directory beside this script's parent.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parklab import classify  # noqa: E402

# the classify names the sweep calls, by stage
STAGES = {
    "solver": ("_level_solutions",),
    "swap-burn walk": ("_first_hole",),
    "case match": ("_case_plan", "_read_cases", "construct_u_for_graph"),
    "grid pricing": ("_grid_for_case", "increasing_maximal_pairs"),
    "grid check": ("_matches_grid",),
}


class Spans:
    """Self times per stage of nested timed calls."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.inner = [0.0]  # time of the finished calls inside each open span

    def run(self, stage: str, step):
        self.inner.append(0.0)
        start = time.perf_counter()
        try:
            return step()
        finally:
            took = time.perf_counter() - start
            self.self_s[stage] += took - self.inner.pop()
            self.inner[-1] += took

    def iterate(self, stage: str, items: Iterator):
        while True:
            try:
                item = self.run(stage, lambda: next(items))
            except StopIteration:
                return
            if isinstance(item, tuple):
                item = tuple(self.timed(stage, x) for x in item)
            yield item

    def timed(self, stage: str, result):
        return self.iterate(stage, result) if isinstance(result, Iterator) else result

    def wrap(self, stage: str, f):
        return lambda *args: self.timed(stage, self.run(stage, lambda: f(*args)))


def measure(max_n: int, max_w: int, rounds: int) -> dict[str, float]:
    """The least span of each stage, rest and total over the rounds, in seconds."""
    best: dict[str, float] = {}
    for _ in range(rounds):
        spans = Spans()
        saved = {}
        for stage, names in STAGES.items():
            for name in names:
                if hasattr(classify, name):
                    saved[name] = getattr(classify, name)
                    setattr(classify, name, spans.wrap(stage, saved[name]))
        try:
            start = time.perf_counter()
            classify.sweep_classification(max_n, max_w)
            total = time.perf_counter() - start
        finally:
            for name, f in saved.items():
                setattr(classify, name, f)
        row = {stage: spans.self_s[stage] for stage in STAGES}
        row["rest"] = total - sum(row.values())
        row["total"] = total
        for stage, span in row.items():
            best[stage] = min(span, best.get(stage, span))
    return best


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(prog=Path(argv[0]).name)
    parser.add_argument("max_n", type=int, nargs="?", default=4)
    parser.add_argument("max_w", type=int, nargs="?", default=2)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv[1:])
    best = measure(args.max_n, args.max_w, args.rounds)
    print(f"sweep({args.max_n}, {args.max_w}), best of {args.rounds}")
    print(f"{'stage':<16}{'s':>9}")
    for stage, span in best.items():
        print(f"{stage:<16}{span:>9.4f}")


if __name__ == "__main__":
    main(sys.argv)

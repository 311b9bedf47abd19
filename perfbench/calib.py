"""Calibration against the speed of the CPU the benchmark runs on.

On a shared machine the speed of one CPU drifts by tens of percent over
seconds, and two CPUs drift independently. So the benchmark pins itself and
its children to one CPU and runs a fixed pure-Python probe on that CPU
between requests (or, during a single long call, from a sampling thread).
A time t measured while the probe took p seconds is reported as
t * REF_S / p: seconds at the reference speed, at which the probe takes
REF_S. Process start and imports slow down less than bytecode loops, so
work made of them (a CLI call, importing the package) is calibrated with a
second probe, a fresh interpreter importing a few stdlib modules, against
START_REF_S. Raw times stay in the detail record.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

# probe duration at the reference speed; calibrated times are relative to it
REF_S = 0.0002
# minimum time between two probes
EVERY_S = 0.02
# the same for the start-up probe, which calibrates process start and imports
START_REF_S = 0.06
START_EVERY_S = 0.5
START_CODE = "import argparse, dataclasses, json"


def _snippet() -> int:
    """Tuples, dict updates, integer arithmetic and calls, like the library."""
    seen: dict = {}
    acc = 0
    for i in range(500):
        key = (i, i * 7 % 13, i & 5)
        seen[key] = seen.get(key, 0) + 1
        acc += sum(key) if i % 3 else len(seen)
    return acc


def probe() -> float:
    """Median duration of three runs of the snippet."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _snippet()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def start_probe(env: dict) -> float:
    """Wall time of a fresh interpreter importing a few stdlib modules."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", START_CODE], env=env, check=True,
                   capture_output=True)
    return perf_counter() - t0


# the CPUs this process may use, read before pin() narrows them
ALLOWED = frozenset(os.sched_getaffinity(0))


def pin() -> None:
    """Keep this process and the processes it starts on one CPU."""
    os.sched_setaffinity(0, {min(ALLOWED)})


@contextmanager
def all_cpus():
    """Lift the pin for a measurement that runs on several CPUs."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALLOWED)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


class Probes:
    """Probes taken between requests, and the factor for each request.

    Request k is scaled by the mean of the probes taken just before and just
    after it.
    """

    def __init__(self, measure=probe, every: float = EVERY_S, ref: float = REF_S) -> None:
        self.measure, self.every, self.ref = measure, every, ref
        self.marks: list[tuple[int, float]] = []
        self.last = 0.0

    def take(self, index: int, force: bool = False) -> None:
        if force or perf_counter() - self.last >= self.every:
            self.marks.append((index, self.measure()))
            self.last = perf_counter()

    def calibrate(self, latencies: list[float]) -> list[float]:
        out = []
        for (start, before), (stop, after) in zip(self.marks, self.marks[1:]):
            scale = self.ref / ((before + after) / 2)
            out += [t * scale for t in latencies[start:stop]]
        return out


class Sampler:
    """Probes from a thread every EVERY_S while one long call runs.

    Each probe holds the interpreter lock, so it pauses the call on the same
    CPU; the probes' own time is subtracted before scaling.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[float, float, float]] = []  # start, end, probe
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _take(self) -> None:
        start = perf_counter()
        took = probe()
        self.spans.append((start, perf_counter(), took))

    def _loop(self) -> None:
        while not self._stop.wait(EVERY_S):
            self._take()

    def __enter__(self) -> "Sampler":
        self._take()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._take()

    def calibrate(self, start: float, stop: float) -> float:
        """Scale the call timed from start to stop, minus the probes inside."""
        inside = sum(max(0.0, min(stop, e) - max(start, s))
                     for s, e, _ in self.spans)
        mean = statistics.fmean(took for _, _, took in self.spans)
        return (stop - start - inside) * REF_S / mean

"""Spans around the library's public functions, installed at run time.

Tracer.install replaces each traced function in every loaded parklab module
that binds it, so calls made inside the library nest too: classify's own
reference to enumerate_mpf is swapped as well as parking's. No source file
changes. Generator functions get one span per next(), so the time a
generator spends producing each item is attributed to it.

Spans live in flat arrays while the run goes on and are written out once at
the end. Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# module -> traced public functions; these names are the benchmark's layers
LAYERS = {
    "graph": ("build_graph", "matching_invariant_cases"),
    "orientations": ("enumerate_A", "orientation_to_mpf"),
    "parking": ("enumerate_mpf", "enumerate_pf", "is_g_pf", "is_maximal"),
    "lattice": (
        "grid_from_affine",
        "grid_from_vectors",
        "is_upf",
        "witness_path",
        "enumerate_upf",
        "enumerate_mupf",
    ),
    "classify": (
        "connected_block_graphs",
        "is_invariant",
        "construct_u_for_graph",
        "verify_equality",
        "sweep_classification",
        "search_graph_matching_grid",
    ),
}


def _items(qualname: str, result) -> int:
    """Work a call produced, by the layer's own measure."""
    if qualname == "classify.is_invariant":
        return int(result.invariant)
    if qualname == "classify.search_graph_matching_grid":
        return result[1]
    if isinstance(result, list):
        return len(result)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self.gen_assignments = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name(self, qualname: str) -> int:
        if qualname not in self.calls:
            self.names.append(qualname)
            self.calls[qualname] = 0
            self.items[qualname] = 0
        return self.names.index(qualname)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, qualname: str):
        """A span opened by the benchmark itself, around a call it makes."""
        nid = self._name(qualname)
        self.calls[qualname] += 1
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        nid = self._name(qualname)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[qualname] += 1
                if qualname == "classify.connected_block_graphs":
                    p, q, max_w = args[:3]
                    n = p + q
                    tracer.gen_assignments += (max_w + 1) ** (n * (n + 1) // 2)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        tracer.items[qualname] += 1
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[qualname] += 1
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.items[qualname] += _items(qualname, result)
            return result

        return wrapper

    def install(self) -> None:
        """Swap every traced function wherever a parklab module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "parklab" or name.startswith("parklab.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules["parklab." + module_name]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        count = len(self.start)
        child = [0.0] * count
        for idx in range(count):
            par = self.parent[idx]
            if par >= 0:
                child[par] += self.end[idx] - self.start[idx]
        out = {name: 0.0 for name in self.names}
        for idx in range(count):
            name = self.names[self.name_id[idx]]
            out[name] += self.end[idx] - self.start[idx] - child[idx]
        return out

    def root_time(self, exclude: str) -> float:
        """Summed duration of the top-level spans not named exclude.

        This equals the summed self time of every span below them.
        """
        skip = self.names.index(exclude) if exclude in self.names else -1
        return sum(self.end[k] - self.start[k] for k in range(len(self.start))
                   if self.parent[k] < 0 and self.name_id[k] != skip)

    def write(self, path: Path) -> None:
        """One JSON header line, then the columns as raw native arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [["name_id", "H"], ["parent", "q"],
                        ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(fh)

"""The benchmark's traced layers name functions the library still defines.

perfbench/tracing.py wraps each name in its LAYERS table on the parklab
module it names; a name that is gone breaks traced runs and the benchmark's
smoke check. The table is read from the source, without importing the
benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no LAYERS table")


def test_every_traced_name_resolves_on_its_module() -> None:
    layers = traced_layers()
    missing = []
    for module, names in layers.items():
        lib = importlib.import_module(f"parklab.{module}")
        missing += [name for name in names if not callable(getattr(lib, name, None))]
    assert layers and missing == []

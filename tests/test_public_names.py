"""The package's public names: the imports of parklab/__init__.py, in order."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import parklab

INIT = Path(parklab.__file__)


def _imported_names() -> list[str]:
    """Names bound by the `from .x import ...` statements, in source order."""
    tree = ast.parse(INIT.read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_is_the_import_list_then_version():
    assert parklab.__all__ == [*_imported_names(), "__version__"]


def test_star_import_binds_exactly_all():
    ns: dict = {}
    exec("from parklab import *", ns)
    ns.pop("__builtins__")
    assert list(ns) == parklab.__all__


def test_no_export_is_a_module():
    for name in parklab.__all__:
        assert not isinstance(getattr(parklab, name), types.ModuleType), name

"""Print the source line counts of src/parklab, per module and in total.

Two counts per module:
- lines: the non-blank, non-comment lines, the same filter as
  `grep -vE '^\\s*(#|$)'`;
- code: those lines less every module, class and function docstring,
  found by an AST pass.

Usage: python tools/line_counts.py [package directory]
The directory defaults to src/parklab beside this script's parent.
Stdlib only.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

_SKIPPED = re.compile(r"\s*(#|$)")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The 1-based line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(lines, code): non-blank non-comment lines, and those outside docstrings."""
    kept = [
        k
        for k, line in enumerate(source.splitlines(), start=1)
        if not _SKIPPED.match(line)
    ]
    docs = docstring_lines(source)
    return len(kept), sum(1 for k in kept if k not in docs)


def main(argv: list[str]) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1] / "src/parklab"
    rows = [
        (path.stem, *counts(path.read_text(encoding="utf-8")))
        for path in sorted(root.glob("*.py"))
    ]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<14}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<14}{lines:>7,}{code:>7,}")


if __name__ == "__main__":
    main(sys.argv)

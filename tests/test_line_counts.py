"""tools/line_counts.py, the counter behind the source-size figures.

The tool is a script outside the package, so it is loaded by path.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_counts.py"

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os


class Box:
    """Class docstring."""

    # another comment
    size = 1

    def area(self):
        """Method docstring,

        with a blank line inside.
        """
        return self.size  # a trailing comment keeps its line


def free():
    x = """a string, not a docstring"""
    return x
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("line_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_leave_code_only_and_comments_leave_both() -> None:
    tool = load_tool()
    # 14 non-blank, non-comment lines, 6 of them in docstrings
    assert tool.counts(SOURCE) == (14, 8)
    assert tool.docstring_lines(SOURCE) == {1, 2, 9, 15, 16, 17, 18}
    padded = SOURCE.replace("import os\n", "import os\n\n    # indented\n#\n")
    assert tool.counts(padded + "\n\n# the end\n") == (14, 8)


def test_main_prints_the_total(tmp_path, capsys) -> None:
    tool = load_tool()
    (tmp_path / "one.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "two.py").write_text(SOURCE, encoding="utf-8")
    tool.main(["line_counts.py", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "lines", "code"],
        ["one", "14", "8"],
        ["two", "14", "8"],
        ["total", "28", "16"],
    ]

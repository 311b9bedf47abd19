"""tools/matcher_digest.py, the digest of both case matchers' tags.

The tool is a script outside the package, so it is loaded by path.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "matcher_digest.py"

# the 20 block graphs of split (1, 1) at weights up to 2
DIGEST_11 = "c0055d691ccfcc744d3572dc4d019c694a96bf21da57057c381bf6e49771212b"


def load_tool():
    spec = importlib.util.spec_from_file_location("matcher_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_split_prints_its_count_and_digest(capsys) -> None:
    load_tool().main(["matcher_digest.py", "1,1,2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"1,1,2 20 {DIGEST_11}", f"all 20 {DIGEST_11}"]

"""tools/sweep_stages.py, the stage timer of the classification sweep.

The tool is a script outside the package, so it is loaded by path.
"""

import importlib.util
from pathlib import Path

from parklab import classify

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sweep_stages.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("sweep_stages", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_stage_is_timed_and_the_names_are_restored(capsys) -> None:
    tool = load_tool()
    names = [name for names in tool.STAGES.values() for name in names]
    # each name the tool wraps is one the sweep's module still has
    before = {name: getattr(classify, name) for name in names}
    tool.main(["sweep_stages.py", "3", "1", "--rounds", "2"])
    assert {name: getattr(classify, name) for name in names} == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["sweep(3, 1), best of 2", f"{'stage':<16}{'s':>9}"]
    rows = dict(line.rsplit(maxsplit=1) for line in lines[2:])
    spans = {stage.strip(): float(span) for stage, span in rows.items()}
    assert list(spans) == [*tool.STAGES, "rest", "total"]
    # sweep(3, 1) has invariant graphs, so every stage runs
    assert all(spans[stage] > 0 for stage in tool.STAGES)
    assert spans["total"] >= sum(spans[stage] for stage in tool.STAGES)

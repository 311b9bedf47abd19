"""End-to-end tests for the batch command line."""

import json

import pytest
from click.testing import CliRunner

from parklab.cli import main

DIAMOND_TEXT = "3 2 1\n0 1 2\n0 2 2\n1 2 1\n1 3 3\n2 3 3\n"
LADDER_GRID = {"vectors": {"u": [1, 2, 3], "v": [1, 3, 5]}}
AFFINE_GRID = {
    "p": 3,
    "q": 2,
    "affine": {"a": 1, "b": 0, "c": 1, "cprime": 1, "d": 0, "e": 1},
}


@pytest.fixture()
def runner() -> CliRunner:
    return CliRunner()


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_TEXT)
    return str(path)


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(LADDER_GRID))
    return str(path)


@pytest.fixture()
def affine_file(tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(AFFINE_GRID))
    return str(path)


def run_json(runner, args, expect_exit=0, env=None):
    result = runner.invoke(main, args, env=env, catch_exceptions=False)
    assert result.exit_code == expect_exit, result.output
    return json.loads(result.output)


class TestMembershipCommands:
    def test_pf_counts_the_down_set(self, runner, graph_file) -> None:
        data = run_json(runner, ["pf", "--graph", graph_file])
        assert data["count"] == len(data["elements"])
        assert [0, 0, 0] in data["elements"]

    def test_mpf_lists_the_maximal_set(self, runner, graph_file) -> None:
        data = run_json(runner, ["mpf", "--graph", graph_file])
        assert data["count"] == 4
        assert sorted(map(tuple, data["elements"])) == [
            (1, 2, 5),
            (1, 5, 2),
            (2, 1, 5),
            (5, 1, 2),
        ]

    def test_check_reports_membership_and_maximality(
        self, runner, graph_file
    ) -> None:
        data = run_json(
            runner, ["check", "--graph", graph_file, "--vector", "5,1,2"]
        )
        assert data == {"parking_function": True, "maximal": True}

    def test_check_non_member(self, runner, graph_file) -> None:
        data = run_json(
            runner, ["check", "--graph", graph_file, "--vector", "6,1,2"]
        )
        assert data == {"parking_function": False, "maximal": False}

    def test_orientations_match_maximal_vectors(self, runner, graph_file) -> None:
        data = run_json(runner, ["orientations", "--graph", graph_file])
        mpf = run_json(runner, ["mpf", "--graph", graph_file])
        assert data["count"] == mpf["count"]
        assert sorted(map(tuple, (o["mpf"] for o in data["orientations"]))) == sorted(
            map(tuple, mpf["elements"])
        )
        assert all(len(o["edges"]) == 5 for o in data["orientations"])


class TestGridCommands:
    def test_upf_reports_first_witness(self, runner, grid_file) -> None:
        data = run_json(
            runner, ["upf", "--grid", grid_file, "--pair", "2,0,1;1,3,0"]
        )
        assert data == {"upf": True, "witness_path": "EEENNN"}

    def test_upf_rejects_unbounded_pair(self, runner, grid_file) -> None:
        data = run_json(
            runner, ["upf", "--grid", grid_file, "--pair", "3,0,0;0,0,0"]
        )
        assert data == {"upf": False, "witness_path": None}

    def test_grid_summary(self, runner, affine_file) -> None:
        data = run_json(runner, ["grid", "--grid", affine_file])
        assert data["p"] == 3 and data["q"] == 2
        assert data["sum_witness"]["east_first"] == data["sum_witness"]["north_first"]
        assert data["maximal_count"] >= len(data["maximal_increasing"])

    def test_verify_graph_against_grid(self, runner, tmp_path, affine_file) -> None:
        built = run_json(runner, ["construct-graph", "--grid", affine_file])
        gpath = tmp_path / "built.txt"
        gpath.write_text(built["text"])
        data = run_json(
            runner, ["verify", "--graph", str(gpath), "--grid", affine_file]
        )
        assert data == {"equal": True}


class TestClassifyCommands:
    def test_classify_reports_matches(self, runner, graph_file) -> None:
        data = run_json(runner, ["classify", "--graph", graph_file])
        assert data["invariant"] is True and data["witness"] is None
        assert [t["case"] for t in data["family_matches"]] == ["ii", "iii"]
        assert "family" in data

    def test_block_override_changes_the_verdict(self, runner, graph_file) -> None:
        data = run_json(
            runner,
            ["classify", "--graph", graph_file, "--A", "1,3", "--B", "2"],
        )
        assert data["invariant"] is False
        assert data["witness"] is not None

    def test_construct_u_emits_the_grid(self, runner, graph_file, tmp_path) -> None:
        data = run_json(runner, ["construct-u", "--graph", graph_file])
        assert data["case_used"]["case"] == "ii"
        gridpath = tmp_path / "derived.json"
        gridpath.write_text(json.dumps({"p": data["p"], "q": data["q"], "u": data["u"], "v": data["v"]}))
        verdict = run_json(
            runner, ["verify", "--graph", graph_file, "--grid", str(gridpath)]
        )
        assert verdict == {"equal": True}

    def test_construct_graph_round_trip(self, runner, affine_file) -> None:
        data = run_json(runner, ["construct-graph", "--grid", affine_file])
        assert data["n"] == 5 and data["p"] == 3 and data["q"] == 2
        assert data["text"].startswith("5 3 2\n")

    def test_sweep_summary(self, runner) -> None:
        data = run_json(runner, ["sweep", "--max-n", "2", "--max-w", "2"])
        assert data["budget"] == {"max_n": 2, "max_w": 2}
        assert data["graphs_tested"] == 20
        assert data["counterexamples"] == []


class TestOutputDiscipline:
    def test_reruns_are_byte_identical(self, runner, graph_file) -> None:
        first = runner.invoke(main, ["pf", "--graph", graph_file])
        second = runner.invoke(main, ["pf", "--graph", graph_file])
        assert first.output == second.output

    def test_pretty_only_reformats(self, runner, graph_file) -> None:
        plain = run_json(runner, ["mpf", "--graph", graph_file])
        result = runner.invoke(
            main, ["mpf", "--graph", graph_file, "--pretty"]
        )
        assert result.exit_code == 0
        assert "\n  " in result.output
        assert json.loads(result.output) == plain

    def test_domain_error_exits_one(self, runner, tmp_path) -> None:
        path = tmp_path / "disconnected.txt"
        path.write_text("2 0 0\n0 1 1\n")
        result = runner.invoke(main, ["pf", "--graph", str(path)])
        assert result.exit_code == 1
        data = json.loads(result.output)
        assert set(data["error"]) == {"type", "message"}
        assert data["error"]["type"] == "disconnected"

    def test_usage_error_exits_two(self, runner, graph_file) -> None:
        result = runner.invoke(
            main, ["check", "--graph", graph_file, "--vector", "1,x,2"]
        )
        assert result.exit_code == 2

    def test_missing_option_exits_two(self, runner) -> None:
        result = runner.invoke(main, ["pf"])
        assert result.exit_code == 2

    def test_blocks_must_come_together(self, runner, graph_file) -> None:
        result = runner.invoke(main, ["pf", "--graph", graph_file, "--A", "1,2"])
        assert result.exit_code == 2

    def test_enumeration_guard_from_environment(self, runner, graph_file) -> None:
        result = runner.invoke(
            main,
            ["pf", "--graph", graph_file],
            env={"PARKLAB_MAX_SET": "3"},
        )
        assert result.exit_code == 1
        data = json.loads(result.output)
        assert data["error"]["type"] == "too-large"

    def test_guard_flag_overrides_environment(self, runner, graph_file) -> None:
        data = run_json(
            runner,
            ["pf", "--graph", graph_file, "--max-set", "100000"],
            env={"PARKLAB_MAX_SET": "3"},
        )
        assert data["count"] > 3


class TestMalformedInput:
    def error_of(self, runner, tmp_path, command, flag, text):
        path = tmp_path / "input"
        path.write_text(text)
        return run_json(runner, [command, flag, str(path)], expect_exit=1)["error"]

    def test_non_integer_edge_token(self, runner, tmp_path) -> None:
        error = self.error_of(runner, tmp_path, "mpf", "--graph", "1 0 0\n0 1 x\n")
        assert error["type"] == "shape-mismatch"

    def test_vectors_block_without_v(self, runner, tmp_path) -> None:
        error = self.error_of(
            runner, tmp_path, "grid", "--grid", '{"vectors": {"u": [1]}}'
        )
        assert error["type"] == "shape-mismatch"

    def test_incomplete_affine_block(self, runner, tmp_path) -> None:
        text = '{"p":1,"q":1,"affine":{"a":1}}'
        for command in ("grid", "construct-graph"):
            error = self.error_of(runner, tmp_path, command, "--grid", text)
            assert error == {
                "type": "invalid-parameters",
                "message": "affine block misses b, c, cprime, d, e",
            }

    @pytest.mark.parametrize("text", ["{bad", "5"])
    def test_grid_file_without_a_json_object(self, runner, tmp_path, text) -> None:
        error = self.error_of(runner, tmp_path, "grid", "--grid", text)
        assert error["type"] == "shape-mismatch"

    AFFINE = '"affine":{"a":1,"b":0,"c":1,"cprime":1,"d":0,"e":1}'

    @pytest.mark.parametrize(
        "command, text",
        [
            ("grid", '{"vectors": 5}'),
            ("grid", '{"vectors": {"u": ["a"], "v": [1]}}'),
            ("grid", '{"vectors": {"u": 5, "v": [1]}}'),
            ("grid", '{"p":1,"q":1,"u":[[1,"a"],[1,1]],"v":[[1,1],[1,1]]}'),
            ("grid", '{"p":1,"q":1,"u":[1,1],"v":[[1,1],[1,1]]}'),
            ("grid", '{"p":1,"q":1,"affine":5}'),
            ("construct-graph", '{"p":1,"q":1,"affine":5}'),
            ("grid", '{"p":"x","q":1,' + AFFINE + "}"),
            ("construct-graph", '{"p":"x","q":1,' + AFFINE + "}"),
            ("grid", '{"p":1.5,"q":1,' + AFFINE + "}"),
            ("construct-graph", '{"p":1,"q":true,' + AFFINE + "}"),
            ("grid", '{"p":1,"q":1,' + AFFINE.replace('"e":1', '"e":"x"') + "}"),
            (
                "construct-graph",
                '{"p":1,"q":1,' + AFFINE.replace('"e":1', '"e":"x"') + "}",
            ),
        ],
    )
    def test_wrongly_typed_grid_values(self, runner, tmp_path, command, text) -> None:
        error = self.error_of(runner, tmp_path, command, "--grid", text)
        assert error["type"] == "shape-mismatch"

    @pytest.mark.parametrize("text", ["5", "null", '"abc"'])
    def test_construct_graph_needs_an_object(self, runner, tmp_path, text) -> None:
        error = self.error_of(runner, tmp_path, "construct-graph", "--grid", text)
        assert error == {
            "type": "invalid-parameters",
            "message": "construct-graph needs p, q, and an affine block",
        }


class TestInputEdges:
    def test_unparsable_guard_variable(self, runner, graph_file) -> None:
        error = run_json(
            runner,
            ["pf", "--graph", graph_file],
            expect_exit=1,
            env={"PARKLAB_MAX_SET": "abc"},
        )["error"]
        assert error["type"] == "invalid-parameters"
        assert "PARKLAB_MAX_SET" in error["message"]

    @pytest.mark.parametrize("command, flag", [("pf", "--graph"), ("grid", "--grid")])
    def test_directory_is_a_usage_error(self, runner, tmp_path, command, flag) -> None:
        result = runner.invoke(main, [command, flag, str(tmp_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command, flag", [("pf", "--graph"), ("grid", "--grid")])
    def test_file_that_is_not_utf8(self, runner, tmp_path, command, flag) -> None:
        path = tmp_path / "latin1"
        path.write_bytes(b"1 0 0\n0 1 1 # caf\xe9\n")
        error = run_json(runner, [command, flag, str(path)], expect_exit=1)["error"]
        assert error["type"] == "shape-mismatch"

"""End-to-end tests for the batch command line."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import parklab
from parklab import format_graph_text
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

    def test_check_answers_beyond_the_subset_scan_guard(
        self, runner, tmp_path
    ) -> None:
        path = tmp_path / "path30.txt"
        path.write_text(
            "30 0 0\n" + "".join(f"{v - 1} {v} 1\n" for v in range(1, 31))
        )
        data = run_json(
            runner, ["check", "--graph", str(path), "--vector", ",".join(["0"] * 30)]
        )
        assert data == {"parking_function": True, "maximal": True}

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

    def test_upf_answers_on_a_30_by_30_grid(self, runner, tmp_path) -> None:
        """961 nodes but C(60, 30) paths: membership must not scan the paths."""
        path = tmp_path / "grid.json"
        side = list(range(1, 31))
        path.write_text(json.dumps({"vectors": {"u": side, "v": side}}))
        outside = ",".join(["30"] * 30) + ";" + ",".join(["0"] * 30)
        data = run_json(runner, ["upf", "--grid", str(path), "--pair", outside])
        assert data == {"upf": False, "witness_path": None}
        staircase = ",".join(map(str, range(30)))
        pair = f"{staircase};{staircase}"
        data = run_json(runner, ["upf", "--grid", str(path), "--pair", pair])
        assert data == {"upf": True, "witness_path": "E" * 30 + "N" * 30}

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

    def test_family_reads_the_swapped_labeling(self, runner, tmp_path) -> None:
        # the root touches only the second block, so every case matches with
        # the blocks exchanged
        path = tmp_path / "swapped.txt"
        path.write_text("3 1 2\n0 2 1\n0 3 1\n2 3 1\n1 2 1\n1 3 1\n")
        data = run_json(runner, ["classify", "--graph", str(path)])
        assert data["invariant"] is True
        lowest = data["family_matches"][0]
        assert (lowest["case"], lowest["swapped"]) == ("ii", True)
        assert data["family"] == lowest

    def test_block_override_changes_the_verdict(self, runner, graph_file) -> None:
        data = run_json(
            runner,
            ["classify", "--graph", graph_file, "--A", "1,3", "--B", "2"],
        )
        assert data["invariant"] is False
        assert data["witness"] is not None

    def test_classify_long_block(self, runner, tmp_path) -> None:
        path = tmp_path / "path.txt"
        path.write_text("13 12 1\n" + "".join(f"{i} {i + 1} 1\n" for i in range(13)))
        data = run_json(runner, ["classify", "--graph", str(path)])
        assert data["invariant"] is True and data["witness"] is None

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_output_is_pinned(self, runner, jobs) -> None:
        result = runner.invoke(
            main, ["sweep", "--max-n", "4", "--max-w", "2", "--jobs", jobs]
        )
        assert result.exit_code == 0
        assert result.output == (
            '{"budget":{"max_n":4,"max_w":2},"counterexamples":[],'
            '"graphs_tested":35933,"invariant_count":1120,"per_family_counts":'
            '{"i.a":26,"i.b":12,"i.c":8,"ii":32,"iii":322,"iv.a":292,'
            '"iv.b":72,"v":208,"vi":148}}\n'
        )
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "8b842020229609f47ae18960d2c8116934827ac8cce5189e10f934c4165787db"
        )

    @pytest.mark.parametrize(
        "budget, value",
        [
            (["--max-n", "3", "--max-w", "-1"], "-1"),
            (["--max-n", "1", "--max-w", "-1"], "-1"),
            (["--max-n", "-2"], "-2"),
        ],
    )
    def test_sweep_rejects_a_negative_budget(self, runner, budget, value) -> None:
        data = run_json(runner, ["sweep", *budget], expect_exit=1)
        assert data["error"]["type"] == "invalid-parameters"
        assert value in data["error"]["message"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_rejects_fewer_than_one_job(self, runner, jobs) -> None:
        data = run_json(
            runner, ["sweep", "--max-n", "2", "--jobs", jobs], expect_exit=1
        )
        assert data["error"] == {
            "message": f"jobs must be >= 1, got {jobs}",
            "type": "invalid-parameters",
        }


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

    @pytest.mark.parametrize(
        "flag, env, error",
        [
            (
                ["--max-set", "-1"],
                None,
                ("invalid-parameters", "max_set must be >= 0, got -1"),
            ),
            (
                [],
                {"PARKLAB_MAX_SET": "-3"},
                ("invalid-parameters", "PARKLAB_MAX_SET must be >= 0, got -3"),
            ),
            (
                ["--max-set", "0"],
                None,
                ("too-large", "parking set exceeds the guard of 0"),
            ),
        ],
    )
    def test_guard_below_zero_is_rejected(
        self, runner, graph_file, flag, env, error
    ) -> None:
        doc = run_json(runner, ["pf", "--graph", graph_file, *flag], 1, env)
        assert doc == {"error": {"type": error[0], "message": error[1]}}


class TestMalformedInput:
    def error_of(self, runner, tmp_path, command, flag, text):
        path = tmp_path / "input"
        path.write_text(text)
        return run_json(runner, [command, flag, str(path)], expect_exit=1)["error"]

    @pytest.mark.parametrize(
        "command, message",
        [
            ("grid", "100000 x 100000 grid has 10000200001 nodes"),
            (
                "construct-graph",
                "affine graph on blocks (100000, 100000) has 20000100000 edges",
            ),
        ],
    )
    def test_huge_affine_sizes_fail_at_once(
        self, runner, tmp_path, command, message
    ) -> None:
        affine = {"a": 1, "b": 1, "c": 1, "cprime": 1, "d": 1, "e": 1}
        text = json.dumps({"p": 100000, "q": 100000, "affine": affine})
        start = time.perf_counter()
        error = self.error_of(runner, tmp_path, command, "--grid", text)
        assert time.perf_counter() - start < 1.0
        assert error == {
            "type": "too-large",
            "message": f"{message}; guarded at 1000000",
        }

    def test_decreasing_grid_is_not_monotone(self, runner, tmp_path) -> None:
        path = tmp_path / "grid.json"
        path.write_text('{"p": 1, "q": 0, "u": [[2], [1]], "v": [[0], [0]]}')
        result = runner.invoke(main, ["grid", "--grid", str(path)])
        assert result.exit_code == 1
        assert result.output == (
            '{"error":{"message":"u[0][0] > u[1][0]","type":"grid-not-monotone"}}\n'
        )

    def test_huge_vertex_count_without_edges(self, runner, tmp_path) -> None:
        start = time.perf_counter()
        error = self.error_of(runner, tmp_path, "pf", "--graph", "1000000000000 0 0\n")
        assert time.perf_counter() - start < 1.0
        assert error == {
            "type": "disconnected",
            "message": "graph does not connect all vertices to the root",
        }

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

    ARRAYS = '"u":[[1,1],[1,1]],"v":[[1,1],[1,1]]'

    @pytest.mark.parametrize(
        "text, error",
        [
            (
                '{"p":1,"q":1,"u":[[1,1]],"v":[[1,1],[1,1]]}',
                ("shape-mismatch", "u must be a (2) x (2) array"),
            ),
            (
                '{"p":1,"q":1,"u":[[1,-1],[1,1]],"v":[[1,1],[1,1]]}',
                ("negative-entry", "u entry -1 is negative"),
            ),
            (
                '{"p":-1,"q":1,' + ARRAYS + "}",
                ("shape-mismatch", "grid dimensions must be non-negative"),
            ),
            (
                "{" + AFFINE + "}",
                ("shape-mismatch", "affine description needs p and q"),
            ),
        ],
    )
    def test_malformed_grid_description(self, runner, tmp_path, text, error) -> None:
        doc = self.error_of(runner, tmp_path, "grid", "--grid", text)
        assert doc == {"type": error[0], "message": error[1]}

    def test_empty_vector_is_a_length_error(self, runner, graph_file) -> None:
        doc = run_json(
            runner, ["check", "--graph", graph_file, "--vector", ""], expect_exit=1
        )
        assert doc == {
            "error": {
                "type": "length-mismatch",
                "message": "vector of length 0 against 3 non-root vertices",
            }
        }

    @pytest.mark.parametrize("text", ["", "# a comment only\n\n"])
    def test_empty_graph_file(self, runner, tmp_path, text) -> None:
        error = self.error_of(runner, tmp_path, "mpf", "--graph", text)
        assert error == {"type": "shape-mismatch", "message": "empty graph description"}

    @pytest.mark.parametrize("pair", ["1,2", "0;0;0"])
    def test_pair_without_one_semicolon_exits_two(self, runner, grid_file, pair):
        result = runner.invoke(main, ["upf", "--grid", grid_file, "--pair", pair])
        assert result.exit_code == 2
        assert "one semicolon" in result.output

    @pytest.mark.parametrize("text", ["5", "null", '"abc"'])
    def test_construct_graph_needs_an_object(self, runner, tmp_path, text) -> None:
        error = self.error_of(runner, tmp_path, "construct-graph", "--grid", text)
        assert error == {
            "type": "invalid-parameters",
            "message": "construct-graph needs p, q, and an affine block",
        }

    def test_construct_graph_names_unequal_cross_coefficients(
        self, runner, tmp_path
    ) -> None:
        # the graph (0,2,2), (1,2,1) has this grid's parking set; the builder
        # covers equal cross coefficients only
        affine = '{"a":1,"b":0,"c":0,"cprime":1,"d":0,"e":1}'
        text = '{"p":1,"q":1,"affine":' + affine + "}"
        error = self.error_of(runner, tmp_path, "construct-graph", "--grid", text)
        assert error == {
            "type": "invalid-parameters",
            "message": "only equal cross coefficients are built, got c=0, cprime=1",
        }


class TestLongInputs:
    """Inputs past the interpreter's recursion limit or integer digit limit."""

    N = 1200

    @pytest.mark.parametrize("command", ["mpf", "pf", "orientations"])
    def test_long_path_graph(self, runner, tmp_path, command) -> None:
        path = tmp_path / "path.txt"
        edges = "".join(f"{v - 1} {v} 1\n" for v in range(1, self.N + 1))
        path.write_text(f"{self.N} 0 0\n" + edges)
        data = run_json(runner, [command, "--graph", str(path)])
        assert data["count"] == 1

    def test_long_vector_grid(self, runner, tmp_path) -> None:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"vectors": {"u": [1] * self.N, "v": []}}))
        pair = ",".join(["0"] * self.N) + ";"
        data = run_json(runner, ["upf", "--grid", str(path), "--pair", pair])
        assert data == {"upf": True, "witness_path": "E" * self.N}
        data = run_json(runner, ["grid", "--grid", str(path)])
        assert data["maximal_increasing"] == [[[0] * self.N, []]]
        assert data["maximal_count"] == 1

    GRID_COMMANDS = ["grid", "upf", "verify", "construct-graph"]

    @staticmethod
    def grid_file_error(runner, tmp_path, graph_file, command, text) -> dict:
        path = tmp_path / "grid.json"
        path.write_text(text)
        extra = {"upf": ["--pair", "0;"], "verify": ["--graph", graph_file]}
        argv = [command, "--grid", str(path), *extra.get(command, [])]
        return run_json(runner, argv, expect_exit=1)["error"]

    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_grid_file_nested_past_the_recursion_limit(
        self, runner, tmp_path, graph_file, command
    ) -> None:
        text = "[" * 5000 + "]" * 5000
        error = self.grid_file_error(runner, tmp_path, graph_file, command, text)
        assert error["type"] == "shape-mismatch"

    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_grid_integer_past_the_digit_limit(
        self, runner, tmp_path, graph_file, command
    ) -> None:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        text = '{"vectors": {"u": [' + "1" * (limit + 1) + '], "v": []}}'
        error = self.grid_file_error(runner, tmp_path, graph_file, command, text)
        assert error["type"] == "shape-mismatch"


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

    def test_label_listed_twice_in_a_block(self, runner, graph_file) -> None:
        doc = run_json(
            runner,
            ["mpf", "--graph", graph_file, "--A", "1,3", "--B", "2,2"],
            expect_exit=1,
        )
        assert doc == {
            "error": {
                "type": "not-a-partition",
                "message": "vertex 2 is listed twice in one block",
            }
        }

    def test_start_up_leaves_the_process_pool_unloaded(self) -> None:
        pool_modules = ("multiprocessing", "concurrent.futures.process")
        code = (
            "import sys, parklab.cli; "
            f"print([m for m in {pool_modules!r} if m in sys.modules])"
        )
        assert fresh_interpreter(code) == "[]\n"

    def test_imports_load_no_library_module(self) -> None:
        assert loaded_modules("import parklab") == set()
        assert loaded_modules("import parklab.cli") == {"cli", "errors"}

    @pytest.mark.parametrize(
        "argv",
        [["pf"], ["mpf"], ["check", "--vector", "1,2,5"]],
        ids=["pf", "mpf", "check"],
    )
    def test_graph_membership_loads_only_graph_and_parking(
        self, graph_file, argv
    ) -> None:
        loaded = loaded_modules(command_probe([*argv, "--graph", graph_file]))
        assert loaded == {"cli", "errors", "graph", "parking"}

    @pytest.mark.parametrize(
        "argv", [["upf", "--pair", "0,0,0;0,0,0"], ["grid"]], ids=["upf", "grid"]
    )
    def test_grid_commands_leave_classify_unloaded(self, grid_file, argv) -> None:
        loaded = loaded_modules(command_probe([*argv, "--grid", grid_file]))
        assert "lattice" in loaded and "classify" not in loaded

    def test_construct_graph_leaves_classify_unloaded(self, affine_file) -> None:
        argv = ["construct-graph", "--grid", affine_file]
        loaded = loaded_modules(command_probe(argv))
        assert "lattice" in loaded and "classify" not in loaded


def fresh_interpreter(code: str) -> str:
    """Run code in a new interpreter that imports this parklab; its stdout."""
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(parklab.__file__).parents[1])},
    ).stdout


def loaded_modules(code: str) -> set[str]:
    """The parklab submodules loaded once code has run in a new interpreter."""
    probe = (
        f"{code}\nimport sys\n"
        "print([m.removeprefix('parklab.') for m in sys.modules"
        " if m.startswith('parklab.')])"
    )
    return set(ast.literal_eval(fresh_interpreter(probe)))


def command_probe(argv: list[str]) -> str:
    """Code that runs one subcommand in process, as perfbench does."""
    return (
        "import contextlib, io\nfrom parklab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main.main({argv!r}, prog_name='parklab', standalone_mode=False)"
    )


GRAPH_BLOCKS = ["--graph", "--B", "--A"]
COMMAND_OPTIONS = {
    "pf": [*GRAPH_BLOCKS, "--max-set"],
    "mpf": GRAPH_BLOCKS,
    "check": [*GRAPH_BLOCKS, "--vector"],
    "orientations": GRAPH_BLOCKS,
    "upf": ["--grid", "--pair"],
    "grid": ["--grid"],
    "classify": GRAPH_BLOCKS,
    "construct-u": GRAPH_BLOCKS,
    "construct-graph": ["--grid"],
    "verify": ["--graph", "--grid", "--B", "--A"],
    "sweep": ["--max-n", "--max-w", "--jobs"],
}
# every command but sweep reads files; the extra arguments each one needs
FILE_COMMANDS = {command: [] for command in COMMAND_OPTIONS if command != "sweep"}
FILE_COMMANDS |= {"check": ["--vector", "0"], "upf": ["--pair", "0;"]}


class TestEveryCommand:
    def test_all_commands_are_covered(self) -> None:
        assert sorted(main.commands) == sorted(COMMAND_OPTIONS)

    @pytest.mark.parametrize("command", COMMAND_OPTIONS)
    def test_help_lists_options_in_order(self, runner, command) -> None:
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        options = result.output.split("Options:\n", 1)[1].splitlines()
        names = [line.split()[0] for line in options if line.startswith("  --")]
        assert names == [*COMMAND_OPTIONS[command], "--pretty", "--help"]

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    def test_malformed_input_is_a_json_error(self, runner, tmp_path, command) -> None:
        graph = tmp_path / "graph.txt"
        graph.write_text("1 0 0\n0 1 x\n")
        grid = tmp_path / "grid.json"
        grid.write_text("{bad")
        args = [command, *FILE_COMMANDS[command]]
        for flag, path in (("--graph", graph), ("--grid", grid)):
            if flag in COMMAND_OPTIONS[command]:
                args += [flag, str(path)]
        doc = run_json(runner, args, expect_exit=1)
        assert list(doc) == ["error"]
        assert set(doc["error"]) == {"type", "message"}
        assert doc["error"]["type"] == "shape-mismatch"
        pretty = runner.invoke(main, [*args, "--pretty"])
        assert pretty.exit_code == 1
        assert pretty.output == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# the conftest graphs, each run through every graph command
CORPUS_GRAPHS = (
    "diamond",
    "diamond_split",
    "tripartite",
    "clique_fan",
    "chorded_cycle",
    "tree_with_clique",
    "cycle_with_tufts",
    "forest_with_clique",
)
# name -> contents; .txt files are graphs, .json files grids
CORPUS_FILES = {
    # not invariant: (0, 0, 2, 0) parks, its in-block swap (0, 2, 0, 0) does not
    "open.txt": "4 1 3\n0 4 1\n1 3 1\n1 4 1\n2 3 1\n2 4 1\n3 4 1\n",
    "ladder.json": json.dumps(LADDER_GRID),
    "affine.json": json.dumps(AFFINE_GRID),
    "explicit.json": '{"p":2,"q":1,"u":[[1,1],[1,2],[2,2]],"v":[[1,2],[1,2],[3,3]]}',
    "latin1.txt": b"1 0 0\n0 1 1 # caf\xe9\n",
    "latin1.json": b'{"vectors": {"u": [1], "v": ["caf\xe9"]}}',
    "bad.json": "{bad",
    "bad.txt": "1 0 0\n0 1 x\n",
    "empty.txt": "# a comment only\n",
    "disconnected.txt": "2 0 0\n0 1 1\n",
    "float-vectors.json": '{"vectors": {"u": [1.5], "v": [1]}}',
    "float-explicit.json": '{"p":0,"q":0,"u":[[1.0]],"v":[[1]]}',
    "float-affine.json": '{"p":1.5,"q":1,' + TestMalformedInput.AFFINE + "}",
    "negative-affine.json": (
        '{"p":2,"q":1,"affine":{"a":1,"b":-1,"c":0,"cprime":0,"d":0,"e":1}}'
    ),
}
# each grid file with a pair of its shape
GRID_FILES = {
    "ladder.json": "2,0,1;1,3,0",
    "affine.json": "0,1,2;1,0",
    "explicit.json": "0,1;0",
}
# (argv, PARKLAB_MAX_SET) past the per-graph and per-grid runs
CORPUS_RUNS = [
    (["classify", "--graph", "open.txt"], None),
    (["construct-u", "--graph", "open.txt"], None),
    (["classify", "--graph", "diamond.txt", "--A", "1,3", "--B", "2"], None),
    (["mpf", "--graph", "diamond.txt", "--A", "1,3", "--B", "2"], None),
    (["mpf", "--graph", "diamond.txt", "--A", "1,3"], None),
    (["mpf", "--graph", "diamond.txt", "--A", "1,3", "--B", "2,2"], None),
    (["mpf", "--graph", "diamond.txt", "--A", "1,2", "--B", "2,3"], None),
    (["mpf", "--graph", "diamond.txt", "--A", "1", "--B", "2"], None),
    (["mpf", "--graph", "diamond.txt", "--A", "x", "--B", "2"], None),
    (["check", "--graph", "diamond.txt", "--vector", "5,1,2"], None),
    (["check", "--graph", "diamond.txt", "--vector", "6,1,2"], None),
    (["check", "--graph", "diamond.txt", "--vector", ""], None),
    (["check", "--graph", "diamond.txt", "--vector", "1,x"], None),
    (["upf", "--grid", "ladder.json", "--pair", "3,0,0;0,0,0"], None),
    (["upf", "--grid", "ladder.json", "--pair", "0,0"], None),
    (["upf", "--grid", "ladder.json", "--pair", "0;0"], None),
    (["verify", "--graph", "tripartite.txt", "--grid", "affine.json"], None),
    (["verify", "--graph", "diamond_split.txt", "--grid", "explicit.json"], None),
    (["verify", "--graph", "diamond_split.txt", "--grid", "ladder.json"], None),
    (["verify", "--graph", "diamond.txt", "--grid", "explicit.json"], None),
    (["pf", "--graph", "latin1.txt"], None),
    (["grid", "--grid", "latin1.json"], None),
    (["pf", "--graph", "bad.txt"], None),
    (["pf", "--graph", "empty.txt"], None),
    (["pf", "--graph", "disconnected.txt"], None),
    *(
        (["grid", "--grid", name], None)
        for name in CORPUS_FILES
        if name.endswith(".json") and name not in GRID_FILES
    ),
    (["upf", "--grid", "bad.json", "--pair", "0;0"], None),
    (["verify", "--graph", "diamond.txt", "--grid", "bad.json"], None),
    (["construct-graph", "--grid", "bad.json"], None),
    (["construct-graph", "--grid", "float-affine.json"], None),
    (["construct-graph", "--grid", "negative-affine.json"], None),
    (["pf", "--graph", "diamond.txt", "--max-set", "-1"], None),
    (["pf", "--graph", "diamond.txt", "--max-set", "0"], None),
    (["pf", "--graph", "diamond.txt", "--max-set", "83"], None),
    (["pf", "--graph", "diamond.txt", "--max-set", "x"], None),
    (["pf", "--graph", "diamond.txt"], "abc"),
    (["pf", "--graph", "diamond.txt"], "-3"),
    (["pf", "--graph", "diamond.txt"], "3"),
    (["pf", "--graph", "diamond.txt", "--max-set", "100"], "3"),
    (["sweep", "--max-n", "3"], None),
    (["sweep", "--max-n", "3", "--max-w", "1", "--jobs", "0"], None),
]


def cli_corpus(runner, folder: Path, graphs: dict) -> list[tuple]:
    """(argv, PARKLAB_MAX_SET, exit code, stdout) of every corpus run.

    The files are written to folder first; argv names each by its name
    there, so the records do not depend on where folder is.
    """
    files = dict(CORPUS_FILES)
    files |= {f"{name}.txt": format_graph_text(g) for name, g in graphs.items()}
    for name, text in files.items():
        path = folder / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    runs = []
    for name in graphs:
        graph = ["--graph", f"{name}.txt"]
        zeros = ",".join(["0"] * graphs[name].n)
        runs += [[command, *graph] for command in ("pf", "mpf", "orientations")]
        runs += [["check", *graph, "--vector", zeros]]
        runs += [[command, *graph] for command in ("classify", "construct-u")]
    for name, pair in GRID_FILES.items():
        runs += [["grid", "--grid", name], ["construct-graph", "--grid", name]]
        runs += [["upf", "--grid", name, "--pair", pair]]
    records = []
    for argv, guard in [(argv, None) for argv in runs] + CORPUS_RUNS:
        real = [str(folder / a) if a in files else a for a in argv]
        result = runner.invoke(main, real, env={"PARKLAB_MAX_SET": guard})
        records.append((argv, guard, result.exit_code, result.stdout))
    return records


class TestOutputCorpus:
    def test_every_command_output_is_pinned(self, runner, tmp_path, request) -> None:
        graphs = {name: request.getfixturevalue(name) for name in CORPUS_GRAPHS}
        start = time.perf_counter()
        records = cli_corpus(runner, tmp_path, graphs)
        assert time.perf_counter() - start < 2.0
        assert Counter(code for _, _, code, _ in records) == {0: 62, 1: 36, 2: 5}
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == (
            "0ba30bd5228752bc12984a10a2f1a2e836798e76bad267a8a0973c9e8bcc22b8"
        )

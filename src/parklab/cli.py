"""Batch command line emitting canonical JSON for every library operation.

Every subcommand reads its inputs from files and flags, runs exactly one
library operation, and prints one JSON document. Output is byte-identical
across runs: keys sorted, sets emitted in lexicographic order. Domain
errors become {"error": {"type", "message"}} with exit code 1; usage
errors exit with code 2. verify and sweep exit 0 even when the verdict is
negative, because the verdict is the data.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import click

from .classify import (
    construct_u_for_graph,
    graph_from_affine_u,
    is_invariant,
    sweep_classification,
    verify_equality,
)
from .errors import DomainError, InvalidParameters, ShapeMismatch
from .graph import (
    RootedWeightedGraph,
    format_graph_text,
    parse_graph_text,
    recognize_family,
    relabel_for_blocks,
)
from .lattice import (
    WeightGrid,
    affine_coefficients,
    increasing_maximal_pairs,
    is_upf,
    load_grid,
    maximal_upf_sum_witness,
    witness_path,
)
from .orientations import enumerate_A, orientation_to_mpf
from .parking import enumerate_mpf, enumerate_pf, is_g_pf, is_maximal


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        click.echo(json.dumps(obj, sort_keys=True, indent=2))
    else:
        click.echo(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _csv_ints(text: str, flag: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise click.UsageError(f"{flag} expects comma-separated integers")


def _parse_pair(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if text.count(";") != 1:
        raise click.UsageError('--pair expects "CSV;CSV" with one semicolon')
    left, right = text.split(";")
    return _csv_ints(left, "--pair"), _csv_ints(right, "--pair")


def _load_graph(
    path: str, block_a: str | None, block_b: str | None
) -> RootedWeightedGraph:
    g = parse_graph_text(_read_text(path))
    if (block_a is None) != (block_b is None):
        raise click.UsageError("--A and --B must be given together")
    if block_a is not None:
        g, _ = relabel_for_blocks(
            g, _csv_ints(block_a, "--A"), _csv_ints(block_b, "--B")
        )
    return g


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ShapeMismatch(f"input file is not UTF-8 text: {exc}") from None


def _read_grid_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ShapeMismatch(f"grid file is not valid JSON: {exc}") from None


def _load_grid_file(path: str) -> WeightGrid:
    return load_grid(_read_grid_json(path))


def _guarded(pretty: bool, produce) -> None:
    try:
        result = produce()
    except DomainError as exc:
        _emit({"error": exc.to_json()}, pretty)
        sys.exit(1)
    _emit(result, pretty)


input_file = click.Path(exists=True, dir_okay=False)
graph_option = click.option("--graph", "graph_path", required=True, type=input_file)
grid_option = click.option("--grid", "grid_path", required=True, type=input_file)
block_options = (
    click.option("--A", "block_a", default=None, help="first block labels"),
    click.option("--B", "block_b", default=None, help="second block labels"),
)
pretty_option = click.option("--pretty", is_flag=True, default=False)


def _with_blocks(fn):
    for opt in block_options:
        fn = opt(fn)
    return fn


@click.group()
def main() -> None:
    """Parking functions on weighted graphs and weighted lattice grids."""


@main.command("pf")
@graph_option
@_with_blocks
@click.option("--max-set", type=int, default=None, help="enumeration guard")
@pretty_option
def pf_cmd(graph_path, block_a, block_b, max_set, pretty) -> None:
    """List every parking function of the graph."""

    def produce():
        g = _load_graph(graph_path, block_a, block_b)
        elements = enumerate_pf(g, max_set=max_set)
        return {"count": len(elements), "elements": [list(b) for b in elements]}

    _guarded(pretty, produce)


@main.command("mpf")
@graph_option
@_with_blocks
@pretty_option
def mpf_cmd(graph_path, block_a, block_b, pretty) -> None:
    """List the maximal parking functions of the graph."""

    def produce():
        g = _load_graph(graph_path, block_a, block_b)
        elements = enumerate_mpf(g)
        return {"count": len(elements), "elements": [list(b) for b in elements]}

    _guarded(pretty, produce)


@main.command("check")
@graph_option
@_with_blocks
@click.option("--vector", required=True, help="candidate vector, CSV")
@click.option("--max-n", type=int, default=None, help="size guard")
@pretty_option
def check_cmd(graph_path, block_a, block_b, vector, max_n, pretty) -> None:
    """Test one vector for membership and maximality."""

    def produce():
        g = _load_graph(graph_path, block_a, block_b)
        b = _csv_ints(vector, "--vector")
        parking = is_g_pf(g, b, max_n=max_n)
        maximal = is_maximal(g, b) if parking else False
        return {"parking_function": parking, "maximal": maximal}

    _guarded(pretty, produce)


@main.command("orientations")
@graph_option
@_with_blocks
@pretty_option
def orientations_cmd(graph_path, block_a, block_b, pretty) -> None:
    """List the acyclic unique-source orientations with their vectors."""

    def produce():
        g = _load_graph(graph_path, block_a, block_b)
        items = []
        for o in enumerate_A(g):
            items.append(
                {
                    "edges": list(o.tokens()),
                    "mpf": list(orientation_to_mpf(o)),
                }
            )
        return {"count": len(items), "orientations": items}

    _guarded(pretty, produce)


@main.command("upf")
@grid_option
@click.option("--pair", "pair_text", required=True, help='pair "CSV;CSV"')
@pretty_option
def upf_cmd(grid_path, pair_text, pretty) -> None:
    """Test one pair against the grid; report the first bounding path."""

    def produce():
        grid = _load_grid_file(grid_path)
        pair = _parse_pair(pair_text)
        member = is_upf(pair, grid)
        return {
            "upf": member,
            "witness_path": witness_path(pair, grid) if member else None,
        }

    _guarded(pretty, produce)


def _orbit_size(pair) -> int:
    size = 1
    for block in pair:
        perms = math.factorial(len(block))
        for mult in Counter(block).values():
            perms //= math.factorial(mult)
        size *= perms
    return size


@main.command("grid")
@grid_option
@pretty_option
def grid_cmd(grid_path, pretty) -> None:
    """Normalize a grid description and summarize its maximal pairs."""

    def produce():
        grid = _load_grid_file(grid_path)
        increasing = increasing_maximal_pairs(grid)
        east, north = maximal_upf_sum_witness(grid)
        out = grid.to_json()
        out["maximal_increasing"] = [
            [list(a), list(b)] for a, b in increasing
        ]
        out["maximal_count"] = sum(_orbit_size(pair) for pair in increasing)
        out["sum_witness"] = {"east_first": east, "north_first": north}
        return out

    _guarded(pretty, produce)


@main.command("classify")
@graph_option
@_with_blocks
@pretty_option
def classify_cmd(graph_path, block_a, block_b, pretty) -> None:
    """Test invariance and report every matching structural case."""

    def produce():
        g = _load_graph(graph_path, block_a, block_b)
        report = is_invariant(g)
        out = report.to_json()
        out["family"] = recognize_family(g).to_json()
        return out

    _guarded(pretty, produce)


@main.command("construct-u")
@graph_option
@_with_blocks
@pretty_option
def construct_u_cmd(graph_path, block_a, block_b, pretty) -> None:
    """Build the weight grid prescribed for a matched graph."""

    def produce():
        g = _load_graph(graph_path, block_a, block_b)
        return construct_u_for_graph(g).to_json()

    _guarded(pretty, produce)


@main.command("construct-graph")
@grid_option
@pretty_option
def construct_graph_cmd(grid_path, pretty) -> None:
    """Build the graph matching an affine grid description."""

    def produce():
        raw = _read_grid_json(grid_path)
        if not isinstance(raw, dict) or not {"affine", "p", "q"} <= raw.keys():
            raise InvalidParameters(
                "construct-graph needs p, q, and an affine block"
            )
        g = graph_from_affine_u(**affine_coefficients(raw))
        out = g.to_json()
        out["text"] = format_graph_text(g)
        return out

    _guarded(pretty, produce)


@main.command("verify")
@graph_option
@grid_option
@_with_blocks
@pretty_option
def verify_cmd(graph_path, grid_path, block_a, block_b, pretty) -> None:
    """Compare the graph's parking functions against the grid's pairs."""

    def produce():
        g = _load_graph(graph_path, block_a, block_b)
        grid = _load_grid_file(grid_path)
        equal = verify_equality(g, grid)
        return {"equal": equal}

    _guarded(pretty, produce)


@main.command("sweep")
@click.option("--max-n", type=int, required=True, help="largest vertex count")
@click.option("--max-w", type=int, default=2, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@pretty_option
def sweep_cmd(max_n, max_w, jobs, pretty) -> None:
    """Exhaustively check the classification within a size budget."""

    def produce():
        return sweep_classification(max_n, max_w, jobs=jobs).to_json()

    _guarded(pretty, produce)


if __name__ == "__main__":
    main()

"""Batch command line emitting canonical JSON for every library operation.

Every subcommand reads its inputs from files and flags, runs exactly one
library operation, and returns one JSON document. One wrapper, `command`,
owns the output policy: it prints that document with keys sorted (sets
come in lexicographic order, so output is byte-identical across runs),
indents it under --pretty, and turns a domain error into
{"error": {"type", "message"}} with exit code 1; usage errors exit with
code 2. verify and sweep exit 0 even when the verdict is negative,
because the verdict is the data.

Each subcommand imports the library functions it runs inside its body,
so one call loads only the modules that subcommand uses.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .errors import DomainError, InvalidParameters, ShapeMismatch

if TYPE_CHECKING:
    from .graph import RootedWeightedGraph


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


def _load_graph(
    path: str, block_a: str | None, block_b: str | None
) -> RootedWeightedGraph:
    from .graph import parse_graph_text, relabel_for_blocks

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
    text = _read_text(path)
    # JSONDecodeError is a ValueError, as is an integer longer than the
    # interpreter's digit limit; nesting past the recursion limit raises
    # RecursionError
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ShapeMismatch(f"grid file is not valid JSON: {exc}") from None


input_file = click.Path(exists=True, dir_okay=False)
graph_option = click.option("--graph", "graph_path", required=True, type=input_file)
grid_option = click.option("--grid", "grid_path", required=True, type=input_file)
# in the order --help shows them
block_options = (
    click.option("--B", "block_b", default=None, help="second block labels"),
    click.option("--A", "block_a", default=None, help="first block labels"),
)


@click.group()
def main() -> None:
    """Parking functions on weighted graphs and weighted lattice grids."""


def command(name: str, *options):
    """Register a subcommand whose function returns its JSON document.

    The options show in the order given, then --pretty. A DomainError
    prints {"error": ...} and exits 1; click's usage errors pass through.
    """

    def register(fn):
        @functools.wraps(fn)
        def run(pretty: bool, **kwargs) -> None:
            try:
                result = fn(**kwargs)
            except DomainError as exc:
                _emit({"error": exc.to_json()}, pretty)
                sys.exit(1)
            _emit(result, pretty)

        for opt in reversed((*options, click.option("--pretty", is_flag=True))):
            run = opt(run)
        return main.command(name)(run)

    return register


@command(
    "pf",
    graph_option,
    *block_options,
    click.option("--max-set", type=int, default=None, help="enumeration guard"),
)
def pf_cmd(graph_path, block_a, block_b, max_set):
    """List every parking function of the graph."""
    from .parking import enumerate_pf

    g = _load_graph(graph_path, block_a, block_b)
    elements = enumerate_pf(g, max_set=max_set)
    return {"count": len(elements), "elements": [list(b) for b in elements]}


@command("mpf", graph_option, *block_options)
def mpf_cmd(graph_path, block_a, block_b):
    """List the maximal parking functions of the graph."""
    from .parking import enumerate_mpf

    g = _load_graph(graph_path, block_a, block_b)
    elements = enumerate_mpf(g)
    return {"count": len(elements), "elements": [list(b) for b in elements]}


@command(
    "check",
    graph_option,
    *block_options,
    click.option("--vector", required=True, help="candidate vector, CSV"),
)
def check_cmd(graph_path, block_a, block_b, vector):
    """Test one vector for membership and maximality."""
    from .parking import is_g_pf, is_maximal

    g = _load_graph(graph_path, block_a, block_b)
    b = _csv_ints(vector, "--vector")
    parking = is_g_pf(g, b)
    maximal = is_maximal(g, b) if parking else False
    return {"parking_function": parking, "maximal": maximal}


@command("orientations", graph_option, *block_options)
def orientations_cmd(graph_path, block_a, block_b):
    """List the acyclic unique-source orientations with their vectors."""
    from .orientations import enumerate_A, orientation_to_mpf

    g = _load_graph(graph_path, block_a, block_b)
    items = [
        {"edges": list(o.tokens()), "mpf": list(orientation_to_mpf(o))}
        for o in enumerate_A(g)
    ]
    return {"count": len(items), "orientations": items}


@command(
    "upf",
    grid_option,
    click.option("--pair", "pair_text", required=True, help='pair "CSV;CSV"'),
)
def upf_cmd(grid_path, pair_text):
    """Test one pair against the grid; report the first bounding path."""
    from .lattice import load_grid, witness_path

    grid = load_grid(_read_grid_json(grid_path))
    if pair_text.count(";") != 1:
        raise click.UsageError('--pair expects "CSV;CSV" with one semicolon')
    left, right = pair_text.split(";")
    pair = (_csv_ints(left, "--pair"), _csv_ints(right, "--pair"))
    path = witness_path(pair, grid)
    return {"upf": path is not None, "witness_path": path}


@command("grid", grid_option)
def grid_cmd(grid_path):
    """Normalize a grid description and summarize its maximal pairs."""
    from .lattice import (
        _orbit_size,
        increasing_maximal_pairs,
        load_grid,
        maximal_upf_sum_witness,
    )

    grid = load_grid(_read_grid_json(grid_path))
    increasing = increasing_maximal_pairs(grid)
    east, north = maximal_upf_sum_witness(grid)
    out = grid.to_json()
    out["maximal_increasing"] = [[list(a), list(b)] for a, b in increasing]
    out["maximal_count"] = sum(_orbit_size(pair) for pair in increasing)
    out["sum_witness"] = {"east_first": east, "north_first": north}
    return out


@command("classify", graph_option, *block_options)
def classify_cmd(graph_path, block_a, block_b):
    """Test invariance and report every matching structural case."""
    from .classify import is_invariant
    from .graph import recognize_family

    g = _load_graph(graph_path, block_a, block_b)
    out = is_invariant(g).to_json()
    out["family"] = recognize_family(g).to_json()
    return out


@command("construct-u", graph_option, *block_options)
def construct_u_cmd(graph_path, block_a, block_b):
    """Build the weight grid prescribed for a matched graph."""
    from .classify import construct_u_for_graph

    return construct_u_for_graph(_load_graph(graph_path, block_a, block_b)).to_json()


@command("construct-graph", grid_option)
def construct_graph_cmd(grid_path):
    """Build the graph matching an affine grid description."""
    from .graph import format_graph_text, graph_from_affine_u
    from .lattice import affine_coefficients

    raw = _read_grid_json(grid_path)
    if not isinstance(raw, dict) or not {"affine", "p", "q"} <= raw.keys():
        raise InvalidParameters("construct-graph needs p, q, and an affine block")
    g = graph_from_affine_u(**affine_coefficients(raw))
    out = g.to_json()
    out["text"] = format_graph_text(g)
    return out


@command("verify", graph_option, grid_option, *block_options)
def verify_cmd(graph_path, grid_path, block_a, block_b):
    """Compare the graph's parking functions against the grid's pairs."""
    from .classify import verify_equality
    from .lattice import load_grid

    g = _load_graph(graph_path, block_a, block_b)
    grid = load_grid(_read_grid_json(grid_path))
    return {"equal": verify_equality(g, grid)}


@command(
    "sweep",
    click.option("--max-n", type=int, required=True, help="largest vertex count"),
    click.option("--max-w", type=int, default=2, show_default=True),
    click.option("--jobs", type=int, default=1, show_default=True),
)
def sweep_cmd(max_n, max_w, jobs):
    """Exhaustively check the classification within a size budget."""
    from .classify import sweep_classification

    return sweep_classification(max_n, max_w, jobs=jobs).to_json()


if __name__ == "__main__":
    main()

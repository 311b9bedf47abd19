"""Parking functions on weighted graphs, lattice grids, and their equivalences.

The namespace is lazy (PEP 562): `import parklab` loads no submodule, and
a public name imports its home module on first access, so a caller pays
only for the modules it uses.
"""

from importlib import import_module as _import_module

# each module's public names; __all__ keeps this order
_EXPORTS = {
    "errors": ("DomainError",),
    "graph": (
        "ROOT",
        "FamilyTag",
        "RootedWeightedGraph",
        "build_graph",
        "cut_vertices",
        "d_U",
        "format_graph_text",
        "graph_from_affine_u",
        "induced_subgraph",
        "match_theorem61",
        "matching_invariant_cases",
        "parse_graph_text",
        "quotient_graph",
        "recognize_family",
        "relabel_for_blocks",
        "swap_blocks",
    ),
    "lattice": (
        "WeightGrid",
        "enumerate_mupf",
        "enumerate_upf",
        "grid_from_affine",
        "grid_from_vectors",
        "grid_transpose",
        "is_bounded_by",
        "is_upf",
        "load_grid",
        "maximal_upf_sum_witness",
        "orientation_from_path",
        "path_from_orientation",
        "paths",
        "witness_path",
    ),
    "orientations": (
        "Orientation",
        "enumerate_A",
        "indegree",
        "mpf_to_orientation",
        "orientation_to_mpf",
    ),
    "parking": (
        "enumerate_mpf",
        "enumerate_pf",
        "is_classical_pf",
        "is_g_pf",
        "is_g_pf_by_subsets",
        "is_maximal",
        "is_vector_pf",
        "order_statistics",
    ),
    "classify": (
        "GridConstruction",
        "InvarianceReport",
        "SweepReport",
        "check_lemma61",
        "connected_block_graphs",
        "construct_u_for_graph",
        "is_invariant",
        "search_graph_matching_grid",
        "sweep_classification",
        "verify_equality",
        "wedge",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import a public name's home module on first access and keep the value."""
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return _import_module(f".{name}", __name__)
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})

"""Parking functions on weighted graphs, lattice grids, and their equivalences."""

from types import ModuleType as _ModuleType

from .errors import DomainError
from .graph import (
    ROOT,
    FamilyTag,
    RootedWeightedGraph,
    build_graph,
    cut_vertices,
    d_U,
    format_graph_text,
    induced_subgraph,
    matching_invariant_cases,
    parse_graph_text,
    quotient_graph,
    recognize_family,
    relabel_for_blocks,
    swap_blocks,
)
from .lattice import (
    WeightGrid,
    enumerate_mupf,
    enumerate_upf,
    grid_from_affine,
    grid_from_vectors,
    grid_transpose,
    is_bounded_by,
    is_upf,
    load_grid,
    maximal_upf_sum_witness,
    orientation_from_path,
    path_from_orientation,
    paths,
    witness_path,
)
from .orientations import (
    Orientation,
    enumerate_A,
    indegree,
    mpf_to_orientation,
    orientation_to_mpf,
)
from .parking import (
    enumerate_mpf,
    enumerate_pf,
    is_classical_pf,
    is_g_pf,
    is_g_pf_by_subsets,
    is_maximal,
    is_vector_pf,
    order_statistics,
)
from .classify import (
    GridConstruction,
    InvarianceReport,
    SweepReport,
    check_lemma61,
    connected_block_graphs,
    construct_u_for_graph,
    graph_from_affine_u,
    is_invariant,
    match_theorem61,
    search_graph_matching_grid,
    sweep_classification,
    verify_equality,
    wedge,
)

__version__ = "0.1.0"

# the import statements above are the one list of public names
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]

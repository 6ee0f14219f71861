"""Potential-number analysis for degree sequences of small graphs.

Computes the potential-function profile of a graph, builds the extremal
target sequences and non-stability witnesses, classifies stability with
respect to the potential number, and verifies everything at desk scale
against exact brute-force oracles.
"""

from .sequences import (
    DegreeSequence,
    degree_sufficient,
    is_graphic,
    l1_distance,
    layoff,
    layoff_batch_below,
    parse_sequence,
)
from .graphs import (
    SmallGraph,
    complement,
    complete_bipartite,
    complete_graph,
    complete_split,
    cycle_graph,
    deleted_family,
    disjoint_union,
    double_star,
    empty_graph,
    find_embedding,
    friendship_graph,
    independence_number,
    is_isomorphic,
    join,
    nabla,
    one_edge_set_exists,
    parse_graph_file,
    path_graph,
    spanning_subgraph_of,
)
from .generators import GraphExpr, build, graph_from_text, parse_graph_expr
from .potential import (
    ExtremalWitness,
    PotentialProfile,
    TargetSequence,
    asymptotic_degree_sufficient_rho,
    best_deleted_subgraph,
    profile,
    rho,
    target_family,
    target_sequence,
)
from .oracle import (
    CapExceededError,
    PotentialCertificate,
    Realization,
    SigmaExact,
    canonical_realization,
    enumerate_graphic_sequences,
    potentially,
    sigma_exact,
)
from .stability import (
    StabilityVerdict,
    WeakVerdict,
    classify_sigma,
    classify_weak,
    double_star_cover,
)
from .probe import ProbeConfig, ProbeTrace, ProbeVerdict, run_probe

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

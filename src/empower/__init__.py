"""Exact solvers for the maximum empower problem on emergy graphs."""

from .compat import (
    CompatibilityGraph,
    build_compatibility_graph,
    compatible,
    find_induced_p4,
    is_p4_free,
    longest_common_prefix,
    pairwise_compatible,
)
from .dag import GraphCycleError, solve_dag
from .graph import (
    EmergyGraph,
    NodeKind,
    ParseError,
    TopoResult,
    Violation,
    parse_graph,
    reachability_to_target,
    serialize_graph,
    topological_order,
    validate_graph,
)
from .hardness import (
    Digraph,
    PathCountVector,
    ReductionInstance,
    build_reduction,
    count_simple_paths,
    decode_counts,
    dfs_counts,
    enumerate_simple_paths,
    parse_digraph,
    reduction_counts,
    serialize_digraph,
    simple_path_bound,
)
from .paths import EmergyPath, concat_paths, enumerate_emergy_paths, path_value
from .solver import (
    ArcSearch,
    EmergyState,
    SolveResult,
    SolveStats,
    brute_force_solve,
    solve_general,
)

__all__ = [
    "ArcSearch", "CompatibilityGraph", "Digraph", "EmergyGraph", "EmergyPath",
    "EmergyState", "GraphCycleError", "NodeKind", "ParseError", "PathCountVector",
    "ReductionInstance", "SolveResult", "SolveStats", "TopoResult", "Violation",
    "brute_force_solve", "build_compatibility_graph", "build_reduction",
    "compatible", "concat_paths", "count_simple_paths", "decode_counts",
    "dfs_counts", "enumerate_emergy_paths", "enumerate_simple_paths",
    "find_induced_p4", "is_p4_free", "longest_common_prefix", "pairwise_compatible",
    "parse_digraph", "parse_graph", "path_value", "reachability_to_target",
    "reduction_counts", "serialize_digraph", "serialize_graph",
    "simple_path_bound", "solve_dag", "solve_general", "topological_order",
    "validate_graph",
]

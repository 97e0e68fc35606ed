"""Exact solvers for the maximum empower problem on emergy graphs: the entry
points and the types they return here, every other name in its submodule."""

from .compat import build_compatibility_graph, find_induced_p4
from .dag import GraphCycleError, solve_dag
from .graph import EmergyGraph, NodeKind, ParseError, parse_graph, serialize_graph, validate_graph
from .hardness import Digraph, count_simple_paths, parse_digraph
from .paths import EmergyPath, enumerate_emergy_paths
from .solver import SolveResult, brute_force_solve, solve_general

__all__ = [
    "EmergyGraph", "NodeKind", "ParseError", "parse_graph", "serialize_graph", "validate_graph",
    "EmergyPath", "enumerate_emergy_paths",
    "SolveResult", "solve_general", "brute_force_solve", "solve_dag", "GraphCycleError",
    "build_compatibility_graph", "find_induced_p4",
    "Digraph", "parse_digraph", "count_simple_paths",
]

"""Exact solvers for the maximum empower problem on emergy graphs: the entry
points and the types they return here, every other name in its submodule.

The names below are loaded from their submodules on first access, so a
process imports only the submodules it uses: `empower solve` never compiles
the hardness reduction, the generators or the compatibility graph.
"""

from importlib import import_module

_SUBMODULE = {
    "EmergyGraph": "graph", "NodeKind": "graph", "ParseError": "graph",
    "parse_graph": "graph", "serialize_graph": "graph", "validate_graph": "graph",
    "EmergyPath": "solver", "enumerate_emergy_paths": "paths",
    "SolveResult": "solver", "solve_general": "solver", "brute_force_solve": "solver",
    "solve_dag": "dag", "GraphCycleError": "dag",
    "build_compatibility_graph": "compat", "find_induced_p4": "compat",
    "Digraph": "hardness", "parse_digraph": "hardness", "count_simple_paths": "hardness",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

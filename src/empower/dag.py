"""Maximum empower on acyclic graphs.

On a DAG the memoized search of `empower.solver` enters each node once,
so its cost is linear in the graph. `solve_dag` is that search behind an
acyclicity guard (`EmergyGraph.acyclic`): it refuses a cyclic graph before
searching, naming a cycle, and returns the value only.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import EmergyGraph, require_arc, topological_order
from .solver import solve_general


class GraphCycleError(ValueError):
    """Raised when the DAG solver is handed a cyclic graph."""

    def __init__(self, cycle: tuple[int, ...]):
        super().__init__(f"graph has a cycle: {'->'.join(map(str, cycle))}")
        self.cycle = cycle


def solve_dag(g: EmergyGraph, arc: tuple[int, int]) -> Fraction:
    """Maximum empower of `arc` on an acyclic graph, without a witness."""
    require_arc(g, arc)
    if not g.acyclic:
        raise GraphCycleError(topological_order(g).cycle)
    return solve_general(g, arc).value

"""Maximum empower on acyclic graphs.

On a DAG the memoized search of `empower.solver` enters each node once,
so its cost is linear in the graph. `solve_dag` is that search behind an
acyclicity guard: it refuses a cyclic graph before searching and returns
the value only.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import EmergyGraph
from .solver import ArcSearch


class GraphCycleError(ValueError):
    """Raised when the DAG solver is handed a cyclic graph."""

    def __init__(self, cycle: tuple[int, ...]):
        super().__init__(f"graph has a cycle: {'->'.join(map(str, cycle))}")
        self.cycle = cycle


def solve_dag(g: EmergyGraph, arc: tuple[int, int]) -> Fraction:
    """Maximum empower of `arc` on an acyclic graph, without a witness."""
    search = ArcSearch(g, arc)
    if not search.acyclic:
        raise GraphCycleError(search.cycle)
    return search.solve().value

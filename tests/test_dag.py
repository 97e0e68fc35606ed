"""Per-node values of the search, reachability, and the acyclic solver."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empower.dag import GraphCycleError, solve_dag
from empower.generators import diamond_chain, random_dag
from empower.graph import EmergyGraph, NodeKind
from empower.solver import brute_force_solve, solve_general
from helpers import (
    arc_with_most_paths,
    best_compatible_value,
    reachability_to_target,
    rooted_simple_paths,
    search_value_table,
)


def chain_graph() -> EmergyGraph:
    """source 1 -> 2 -> 3 -> output 4."""
    return EmergyGraph(
        {1: NodeKind.SOURCE, 2: NodeKind.SPLIT, 3: NodeKind.SPLIT, 4: NodeKind.OUTPUT},
        {1: Fraction(3)},
        {(1, 2): Fraction(1), (2, 3): Fraction(1), (3, 4): Fraction(1)})


def two_way_graph(merge_kind: NodeKind) -> EmergyGraph:
    """source 1 (emergy 10) -> 2 -> {3, 4} -> output 5; node 2 kind varies."""
    two_way = {(2, 3): Fraction(1, 3), (2, 4): Fraction(2, 3)} \
        if merge_kind is NodeKind.SPLIT else {(2, 3): Fraction(1), (2, 4): Fraction(1)}
    return EmergyGraph(
        {1: NodeKind.SOURCE, 2: merge_kind, 3: NodeKind.SPLIT,
         4: NodeKind.SPLIT, 5: NodeKind.OUTPUT},
        {1: Fraction(10)},
        {(1, 2): Fraction(1), (3, 5): Fraction(1), (4, 5): Fraction(1), **two_way})


class TestReachability:
    def test_chain(self):
        assert reachability_to_target(chain_graph(), (2, 3)) == {1, 2}

    def test_excludes_nodes_without_a_route(self):
        g = two_way_graph(NodeKind.SPLIT)
        assert reachability_to_target(g, (3, 5)) == {1, 2, 3}

    def test_diamond(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.SPLIT, 3: NodeKind.SPLIT,
             4: NodeKind.SPLIT, 5: NodeKind.OUTPUT},
            {1: Fraction(1)},
            {(1, 2): Fraction(1), (2, 3): Fraction(1, 2), (2, 4): Fraction(1, 2),
             (3, 5): Fraction(1), (4, 5): Fraction(1)})
        assert reachability_to_target(g, (3, 5)) == {1, 2, 3}

    def test_works_on_cyclic_graphs_too(self, textbook):
        reach = reachability_to_target(textbook, (4, 7))
        assert reach == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}


class TestValueTable:
    def test_split_example(self):
        values = search_value_table(two_way_graph(NodeKind.SPLIT), (3, 5))
        assert values == {1: Fraction(10, 3), 2: Fraction(1, 3),
                          3: Fraction(1), 4: Fraction(0), 5: Fraction(0)}

    def test_coproduct_example(self):
        values = search_value_table(two_way_graph(NodeKind.COPRODUCT), (3, 5))
        assert values[2] == 1
        assert values[1] == 10

    def test_arc_tail_is_a_source(self, trivial):
        assert search_value_table(trivial, (1, 2))[1] == 5

    def test_arc_tail_is_a_coproduct(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.COPRODUCT, 3: NodeKind.OUTPUT,
             4: NodeKind.OUTPUT},
            {1: Fraction(7)},
            {(1, 2): Fraction(1), (2, 3): Fraction(1), (2, 4): Fraction(1)})
        assert search_value_table(g, (2, 3))[2] == 1
        assert solve_dag(g, (2, 3)) == 7

    def test_cyclic_graph_raises(self, textbook):
        assert not textbook.acyclic
        with pytest.raises(GraphCycleError) as caught:
            solve_dag(textbook, (4, 7))
        cycle = caught.value.cycle
        assert cycle[0] == cycle[-1]
        assert all(arc in textbook.arcs for arc in zip(cycle, cycle[1:]))


class TestSolveDag:
    def test_split_example(self):
        g = two_way_graph(NodeKind.SPLIT)
        assert solve_dag(g, (3, 5)) == Fraction(10, 3)
        assert brute_force_solve(g, (3, 5)).value == Fraction(10, 3)

    def test_coproduct_example(self):
        g = two_way_graph(NodeKind.COPRODUCT)
        assert solve_dag(g, (3, 5)) == 10
        assert brute_force_solve(g, (3, 5)).value == 10

    def test_diamond_chain_telescopes(self):
        for layers in (1, 4, 9, 15):
            g, arc = diamond_chain(layers, Fraction(7, 3))
            assert solve_dag(g, arc) == Fraction(7, 3)
        g, arc = diamond_chain(8, Fraction(7, 3))
        assert solve_general(g, arc).value == Fraction(7, 3)

    def test_unreachable_arc_gives_zero(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.OUTPUT, 3: NodeKind.SPLIT, 4: NodeKind.OUTPUT},
            {1: Fraction(2)},
            {(1, 2): Fraction(1), (3, 4): Fraction(1)})
        assert solve_dag(g, (3, 4)) == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_agreement_with_general_solver(self, seed):
        g = random_dag(4 + seed % 9, 0.5, seed)
        arc = arc_with_most_paths(g)
        assert solve_dag(g, arc) == solve_general(g, arc).value

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_value_never_exceeds_total_emergy(self, seed):
        g = random_dag(4 + seed % 9, 0.5, seed)
        budget = sum(g.source_emergy.values())
        for arc in sorted(g.arcs):
            assert 0 <= solve_dag(g, arc) <= budget

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_table_matches_rooted_brute_force(self, seed):
        g = random_dag(4 + seed % 7, 0.5, seed)
        arc = arc_with_most_paths(g)
        values = search_value_table(g, arc)
        for i in g.nodes:
            rooted = rooted_simple_paths(g, i, arc)
            assert values[i] == best_compatible_value(g, rooted)

"""Compatibility relation, compatibility graph, and the induced-path check."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empower.compat import (
    CompatibilityGraph,
    build_compatibility_graph,
    compatible,
    find_induced_p4,
    longest_common_prefix,
)
from empower.generators import random_cyclic, random_dag
from empower.graph import EmergyGraph, NodeKind
from empower.paths import EmergyPath, enumerate_emergy_paths
from helpers import arc_with_most_paths, is_p4_free, naive_find_p4, pairwise_compatible


class TestLongestCommonPrefix:
    def test_divergence_at_coproduct_nine(self):
        a = (1, 2, 3, 7, 8, 9, 4, 7)
        b = (1, 2, 3, 7, 8, 9, 10, 6, 4, 7)
        assert longest_common_prefix(a, b) == (1, 2, 3, 7, 8, 9)

    def test_identity(self):
        p = (1, 2, 4, 7)
        assert longest_common_prefix(p, p) == p

    def test_distinct_first_nodes(self):
        assert longest_common_prefix((1, 2, 4), (5, 6, 4)) == ()


class TestCompatible:
    def test_split_divergence_is_compatible(self, textbook):
        assert compatible(textbook, (3, 7, 8, 6, 4), (3, 7, 8, 9, 10, 6, 4))

    def test_coproduct_divergence_is_incompatible(self, textbook):
        assert not compatible(textbook, (8, 9, 4, 7), (8, 9, 10, 6, 4, 7))

    def test_distinct_sources_are_compatible(self, textbook):
        assert compatible(textbook, (1, 2, 4, 7), (5, 6, 4, 7))

    def test_reflexive(self, textbook):
        assert compatible(textbook, (1, 2, 4, 7), (1, 2, 4, 7))

    def test_symmetric_on_textbook_paths(self, textbook):
        paths = [p.nodes for p in enumerate_emergy_paths(textbook, (4, 7))]
        for a, b in combinations(paths, 2):
            assert compatible(textbook, a, b) == compatible(textbook, b, a)

    def test_divergence_at_source_raises(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.OUTPUT, 3: NodeKind.OUTPUT},
            {1: Fraction(1)},
            {(1, 2): Fraction(1, 2), (1, 3): Fraction(1, 2)})
        with pytest.raises(ValueError, match="diverge at source"):
            compatible(g, (1, 2), (1, 3))

    def test_divergence_criterion_matches_prefix_kind(self, textbook):
        paths = [p.nodes for p in enumerate_emergy_paths(textbook, (4, 7))]
        for a, b in combinations(paths, 2):
            if a[0] != b[0]:
                assert compatible(textbook, a, b)
                continue
            fork = longest_common_prefix(a, b)[-1]
            expected = textbook.kind[fork] is NodeKind.SPLIT
            assert compatible(textbook, a, b) == expected


def single_source_coproduct_graph() -> EmergyGraph:
    """Both paths to the final arc part ways at a co-product."""
    return EmergyGraph(
        {1: NodeKind.SOURCE, 2: NodeKind.COPRODUCT, 3: NodeKind.SPLIT,
         4: NodeKind.SPLIT, 5: NodeKind.SPLIT, 6: NodeKind.OUTPUT},
        {1: Fraction(9)},
        {(1, 2): Fraction(1), (2, 3): Fraction(1), (2, 4): Fraction(1),
         (3, 5): Fraction(1), (4, 5): Fraction(1), (5, 6): Fraction(1)})


class TestCompatibilityGraph:
    def test_textbook_counts(self, textbook):
        cg = build_compatibility_graph(textbook, (4, 7))
        assert len(cg.vertices) == 6
        assert len(cg.edges) == 14

    def test_textbook_missing_pair_is_the_coproduct_fork(self, textbook):
        cg = build_compatibility_graph(textbook, (4, 7))
        index = {p.nodes: i for i, p in enumerate(cg.vertices)}
        missing = [frozenset(pair) for pair in combinations(range(6), 2)
                   if tuple(sorted(pair)) not in cg.edges]
        expected = frozenset({
            index[(1, 2, 3, 7, 8, 9, 4, 7)],
            index[(1, 2, 3, 7, 8, 9, 10, 6, 4, 7)]})
        assert missing == [expected]

    def test_cross_source_pairs_are_all_edges(self, textbook):
        cg = build_compatibility_graph(textbook, (4, 7))
        for i, j in combinations(range(len(cg.vertices)), 2):
            if cg.vertices[i].source != cg.vertices[j].source:
                assert (i, j) in cg.edges

    def test_trivial_graph(self, trivial):
        cg = build_compatibility_graph(trivial, (1, 2))
        assert len(cg.vertices) == 1 and not cg.edges

    def test_all_coproduct_divergence_gives_edgeless_graph(self):
        cg = build_compatibility_graph(single_source_coproduct_graph(), (5, 6))
        assert len(cg.vertices) == 2 and not cg.edges


def dummy_graph(n: int, edges: set[tuple[int, int]]) -> CompatibilityGraph:
    vertices = tuple(EmergyPath((i,), Fraction(1)) for i in range(n))
    return CompatibilityGraph(vertices, frozenset(edges))


class TestInducedPathCheck:
    def test_textbook_is_p4_free(self, textbook):
        assert is_p4_free(build_compatibility_graph(textbook, (4, 7)))

    def test_explicit_four_path(self):
        cg = dummy_graph(4, {(0, 1), (1, 2), (2, 3)})
        witness = find_induced_p4(cg)
        assert witness is not None and set(witness) == {0, 1, 2, 3}

    def test_small_graphs_are_always_free(self):
        assert is_p4_free(dummy_graph(3, {(0, 1), (1, 2)}))
        assert is_p4_free(dummy_graph(0, set()))

    def test_cycle_of_four_is_free(self):
        assert is_p4_free(dummy_graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}))

    def test_cap_guard(self):
        with pytest.raises(ValueError, match="cap"):
            find_induced_p4(dummy_graph(401, set()))
        assert is_p4_free(dummy_graph(401, set()), cap=500)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_quadruple_scan(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        edges = {(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.5}
        cg = dummy_graph(n, edges)
        assert (find_induced_p4(cg) is None) == (naive_find_p4(cg) is None)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_compatibility_graphs_are_cographs(self, seed):
        if seed % 2:
            g = random_dag(5 + seed % 6, 0.5, seed)
        else:
            try:
                g = random_cyclic(6 + seed % 5, 0.5, 1 + seed % 2, seed)
            except ValueError:
                g = random_dag(6 + seed % 5, 0.5, seed)
        arc = arc_with_most_paths(g, max_paths=150)
        if arc is None:
            return
        assert is_p4_free(build_compatibility_graph(g, arc))


class TestPairwiseCompatible:
    def test_on_witness_and_on_conflicting_pair(self, textbook):
        paths = enumerate_emergy_paths(textbook, (4, 7))
        by_nodes = {p.nodes: p for p in paths}
        good = [by_nodes[(1, 2, 4, 7)], by_nodes[(5, 6, 4, 7)],
                by_nodes[(1, 2, 3, 7, 8, 9, 4, 7)]]
        assert pairwise_compatible(textbook, good)
        bad = good + [by_nodes[(1, 2, 3, 7, 8, 9, 10, 6, 4, 7)]]
        assert not pairwise_compatible(textbook, bad)

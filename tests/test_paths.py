"""Path enumeration, the path value function, and the path algebra."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empower.generators import random_cyclic, random_dag
from empower.paths import enumerate_emergy_paths, iter_emergy_paths
from helpers import (
    concat_paths,
    cyclic_core_graphs,
    emergy_graphs,
    family_instances,
    listed_emergy_paths,
    oracle_emergy_paths,
    path_value,
    satisfies_path_definition,
    successors,
)

TEXTBOOK_INVENTORY = {
    (1, 2, 4, 7): Fraction(70),
    (1, 2, 3, 7, 8, 6, 4, 7): Fraction(45, 4),
    (1, 2, 3, 7, 8, 9, 4, 7): Fraction(15),
    (1, 2, 3, 7, 8, 9, 10, 6, 4, 7): Fraction(45, 8),
    (5, 6, 4, 7): Fraction(375, 2),
    (5, 6, 3, 7, 8, 9, 4, 7): Fraction(125, 4),
}


class TestEnumeration:
    def test_textbook_inventory(self, textbook):
        paths = enumerate_emergy_paths(textbook, (4, 7))
        assert [p.nodes for p in paths] == sorted(TEXTBOOK_INVENTORY)
        assert {p.nodes: p.value for p in paths} == TEXTBOOK_INVENTORY
        assert [p.source for p in paths].count(1) == 4
        assert [p.source for p in paths].count(5) == 2

    def test_trivial_instance(self, trivial):
        paths = enumerate_emergy_paths(trivial, (1, 2))
        assert [(p.nodes, p.value) for p in paths] == [((1, 2), Fraction(5))]

    def test_arc_behind_the_coproduct(self, textbook):
        # the arc into output 11; frozen after checking the walk-filter oracle
        paths = enumerate_emergy_paths(textbook, (7, 11))
        assert [p.nodes for p in paths] == [
            (1, 2, 3, 7, 11), (1, 2, 4, 7, 11),
            (5, 6, 3, 7, 11), (5, 6, 4, 7, 11)]
        assert [p.nodes for p in paths] == oracle_emergy_paths(textbook, (7, 11))

    def test_bad_arc_raises(self, textbook):
        with pytest.raises(ValueError, match="not an arc"):
            enumerate_emergy_paths(textbook, (1, 7))

    def test_listing_raises_on_its_first_next(self, textbook):
        paths = iter_emergy_paths(textbook, (1, 7))
        with pytest.raises(ValueError, match="not an arc"):
            next(paths)

    def test_cached_values_match_recomputation(self, textbook):
        for arc in textbook.arcs:
            for p in enumerate_emergy_paths(textbook, arc):
                assert p.value == path_value(textbook, p.nodes)

    def test_deterministic(self, textbook):
        first = enumerate_emergy_paths(textbook, (4, 7))
        assert first == enumerate_emergy_paths(textbook, (4, 7))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_completeness_against_walk_filter_oracle(self, seed):
        if seed % 2:
            g = random_dag(4 + seed % 6, 0.5, seed)
        else:
            try:
                g = random_cyclic(6 + seed % 4, 0.5, 1, seed)
            except ValueError:
                g = random_dag(6 + seed % 4, 0.5, seed)
        self.check_against_walk_filter_oracle(g)

    @given(emergy_graphs())
    @settings(max_examples=60, deadline=None)
    def test_drawn_graphs_against_walk_filter_oracle(self, g):
        """The listing on drawn graphs: cycles, shared nodes and heads on
        the path, against both oracles."""
        self.check_against_walk_filter_oracle(g)
        self.check_against_backtracking(g)

    @staticmethod
    def check_against_walk_filter_oracle(g):
        for arc in sorted(g.arcs):
            enum = [p.nodes for p in enumerate_emergy_paths(g, arc)]
            assert enum == oracle_emergy_paths(g, arc)
            assert enum == sorted(enum)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_every_generator_family_against_backtracking(self, seed):
        for g in family_instances(seed):
            self.check_against_backtracking(g)

    def test_cyclic_core_shape_against_backtracking(self):
        for g in cyclic_core_graphs():
            self.check_against_backtracking(g)

    @staticmethod
    def check_against_backtracking(g):
        """The listing, the search's expansion with every branch kept,
        against the tests' own backtracking walk: nodes, values and order."""
        for arc in sorted(g.arcs):
            assert enumerate_emergy_paths(g, arc) == listed_emergy_paths(g, arc)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_outputs_satisfy_the_definition(self, seed):
        try:
            g = random_cyclic(7 + seed % 4, 0.5, 2, seed)
        except ValueError:
            g = random_dag(7 + seed % 4, 0.5, seed)
        for arc in sorted(g.arcs):
            for p in enumerate_emergy_paths(g, arc):
                assert satisfies_path_definition(g, p.nodes, arc)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_dag_paths_are_plain_simple_paths(self, seed):
        g = random_dag(5 + seed % 8, 0.5, seed)
        for arc in sorted(g.arcs):
            for p in enumerate_emergy_paths(g, arc):
                assert len(set(p.nodes)) == len(p.nodes)


class TestPathValue:
    def test_edge_cases(self, textbook):
        assert path_value(textbook, None) == 0
        assert path_value(textbook, ()) == 1
        assert path_value(textbook, (6,)) == 1

    def test_textbook_values(self, textbook):
        for nodes, expected in TEXTBOOK_INVENTORY.items():
            assert path_value(textbook, nodes) == expected

    def test_fragment_value(self, textbook):
        assert path_value(textbook, (3, 7, 8, 6, 4)) == Fraction(3, 8)

    def test_non_arc_pair_raises(self, textbook):
        with pytest.raises(ValueError, match="not an arc"):
            path_value(textbook, (1, 2, 7))


class TestConcat:
    def test_joins_on_matching_endpoints(self):
        assert concat_paths((1, 2, 3), (3, 7)) == (1, 2, 3, 7)

    def test_mismatch_gives_no_path(self):
        assert concat_paths((1, 2), (3, 7)) is None

    def test_neutral_and_absorbing(self):
        assert concat_paths((1, 2), ()) == (1, 2)
        assert concat_paths((), (1, 2)) == (1, 2)
        assert concat_paths(None, (1, 2)) is None
        assert concat_paths((1, 2), None) is None
        assert concat_paths(None, None) is None

    def test_anchored_single_node(self):
        assert concat_paths((1, 2), (2,)) == (1, 2)
        assert concat_paths((1, 2), (3,)) is None

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_value_is_multiplicative_over_concat(self, seed):
        g = random_dag(6 + seed % 6, 0.6, seed)
        succ = successors(g)
        rng = random.Random(seed)
        for _ in range(20):
            # random arc walk, cut anywhere; the tail piece never starts at a source
            node = rng.choice([n for n in g.nodes if succ[n]])
            walk = [node]
            while succ[walk[-1]] and len(walk) < 8:
                walk.append(rng.choice(succ[walk[-1]]))
            if len(walk) < 3:
                continue
            cut = rng.randrange(1, len(walk) - 1)
            left, right = tuple(walk[:cut + 1]), tuple(walk[cut:])
            joined = concat_paths(left, right)
            assert joined == tuple(walk)
            assert path_value(g, joined) == path_value(g, left) * path_value(g, right)

"""Generator determinism, validity, and family shapes."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empower.generators import (
    diamond_chain,
    random_cyclic,
    random_dag,
    random_digraph,
)
from empower.graph import NodeKind, serialize_graph, topological_order, validate_graph
from empower.paths import enumerate_emergy_paths
from helpers import random_no_split_graph


class TestDiamondChain:
    def test_path_count_doubles_per_layer(self):
        for layers in (0, 1, 3):
            g, arc = diamond_chain(layers)
            assert validate_graph(g) == []
            assert len(enumerate_emergy_paths(g, arc)) == 2 ** layers

    def test_node_and_arc_counts(self):
        g, arc = diamond_chain(10)
        assert len(g.nodes) == 3 * 10 + 3
        assert len(g.arcs) == 4 * 10 + 2
        assert topological_order(g).order is not None

    def test_rejects_negative_layers(self):
        with pytest.raises(ValueError):
            diamond_chain(-1)


class TestRandomFamilies:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_dag_family(self, seed):
        g = random_dag(2 + seed % 12, 0.4, seed)
        assert validate_graph(g) == []
        assert topological_order(g).order is not None

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_cyclic_family_has_a_back_arc(self, seed):
        g = random_cyclic(6 + seed % 7, 0.4, 1 + seed % 3, seed)
        assert validate_graph(g) == []
        assert any(a > b for a, b in g.arcs)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_no_split_family(self, seed):
        g = random_no_split_graph(2 + seed % 9, seed)
        assert validate_graph(g) == []
        assert all(k is not NodeKind.SPLIT for k in g.kind.values())

    def test_determinism(self):
        a = serialize_graph(random_cyclic(10, 0.4, 2, 77))
        b = serialize_graph(random_cyclic(10, 0.4, 2, 77))
        assert a == b
        assert serialize_graph(random_dag(12, 0.4, 7)) == \
            serialize_graph(random_dag(12, 0.4, 7))

    def test_cyclic_family_output_is_pinned(self):
        """The texts (or refusals) of 1,200 cyclic instances hash to what the
        generator emitted when it searched each candidate back arc's cycle
        afresh; `gen` prints exactly these texts."""
        digest = hashlib.sha256()
        for seed in range(5):
            for nodes in range(4, 44):
                for density in (0.1, 0.3, 0.6):
                    for back_arcs in (1, 3):
                        try:
                            text = serialize_graph(random_cyclic(nodes, density, back_arcs, seed))
                        except ValueError as exc:
                            text = f"error: {exc}\n"
                        digest.update(text.encode())
        assert digest.hexdigest() == \
            "4e2885ae78083c689b39b8670ebc8903bb24b244d58993a43da9bf788f8d2d14"

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            random_dag(1, 0.5, 0)
        with pytest.raises(ValueError):
            random_cyclic(10, 0.5, 0, 0)
        with pytest.raises(ValueError):
            random_cyclic(3, 0.5, 1, 0)

    @pytest.mark.parametrize("density", [-0.1, 1.5, 5.0, float("nan")])
    def test_rejects_density_outside_unit_interval(self, density):
        with pytest.raises(ValueError, match="arc density"):
            random_dag(10, density, 0)
        with pytest.raises(ValueError, match="arc density"):
            random_cyclic(10, density, 1, 0)


class TestRandomDigraph:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_shape(self, seed):
        n = 2 + seed % 6
        d = random_digraph(n, 0.5, seed)
        assert len(d.vertices) == n
        assert d.start == 1 and d.target == n

    def test_probability_extremes(self):
        assert random_digraph(4, 0.0, 1).arcs == frozenset()
        assert len(random_digraph(4, 1.0, 1).arcs) == 12

    def test_determinism(self):
        assert random_digraph(6, 0.5, 3) == random_digraph(6, 0.5, 3)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_digraph(1, 0.5, 0)

    @pytest.mark.parametrize("prob", [-1.0, 1.01, float("nan")])
    def test_rejects_probability_outside_unit_interval(self, prob):
        with pytest.raises(ValueError, match="arc probability"):
            random_digraph(4, prob, 1)

"""The counting reduction, digit decoding, and the differential cross-check."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empower.generators import random_digraph
from empower.graph import ParseError, topological_order, validate_graph
from empower.hardness import (
    Digraph,
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
from empower.paths import enumerate_emergy_paths
from empower.solver import solve_general


def digraph(n: int, arcs: set[tuple[int, int]], start=1, target=None) -> Digraph:
    return Digraph(frozenset(range(1, n + 1)), frozenset(arcs), start, target or n)


def line(n: int) -> Digraph:
    return digraph(n, {(i, i + 1) for i in range(1, n)})


SINGLE_ARC = digraph(2, {(1, 2)})
TRIANGLE = digraph(3, {(1, 2), (2, 3), (1, 3)})


class TestDigraph:
    def test_invariants(self):
        with pytest.raises(ValueError, match="differ"):
            digraph(2, set(), start=1, target=1)
        with pytest.raises(ValueError, match="self-loop"):
            digraph(2, {(1, 1)})
        with pytest.raises(ValueError, match="undeclared"):
            digraph(2, {(1, 3)})

    def test_start_and_target_must_be_declared(self):
        with pytest.raises(ValueError, match="vertex 3 not declared"):
            Digraph(frozenset({1, 2}), frozenset(), 1, 3)

    def test_adjacency(self):
        d = digraph(4, {(1, 3), (1, 2), (3, 4), (1, 4)})
        assert [d.succ[v] for v in (1, 2, 3, 4)] == [(2, 3, 4), (), (4,), ()]
        assert [len(d.succ[v]) for v in (1, 2, 3, 4)] == [3, 0, 1, 0]

    def test_parse_round_trip(self):
        text = serialize_digraph(TRIANGLE)
        assert parse_digraph(text) == TRIANGLE

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="duplicate vertex"):
            parse_digraph("vertex 1\nvertex 1\nstart 1\ntarget 2\n")
        with pytest.raises(ParseError, match="duplicate edge"):
            parse_digraph("vertex 1\nvertex 2\nedge 1 2\nedge 1 2\nstart 1\ntarget 2\n")
        with pytest.raises(ParseError, match="missing start"):
            parse_digraph("vertex 1\nvertex 2\n")
        with pytest.raises(ParseError, match="undeclared"):
            parse_digraph("vertex 1\nstart 1\ntarget 9\n")
        with pytest.raises(ParseError, match="unrecognized"):
            parse_digraph("node 1 split\n")

    @pytest.mark.parametrize("token", ["\u00b2", "\uff13"])
    def test_non_ascii_vertex_ids_are_parse_errors(self, token):
        with pytest.raises(ParseError, match="expected a vertex id"):
            parse_digraph(f"vertex 1\nvertex {token}\nstart 1\ntarget 2\n")


class TestBound:
    def test_small_counts(self):
        assert simple_path_bound(SINGLE_ARC) == 4
        assert simple_path_bound(TRIANGLE) == 15

    def test_single_vertex_formula(self):
        # the formula itself is defined down to one vertex
        one = Digraph(frozenset({1, 2}), frozenset(), 1, 2)
        assert simple_path_bound(one) == 4
        import math
        assert sum(math.factorial(1) // math.factorial(1 - i) for i in range(1, 2)) == 1


class TestBuildReduction:
    def test_single_arc_instance(self):
        inst = build_reduction(SINGLE_ARC)
        assert inst.bound == 4
        g = inst.graph
        assert g.arcs == {
            (inst.source, 1): Fraction(1),
            (1, 2): Fraction(1, 4),
            (1, inst.drain): Fraction(3, 4),
            (2, inst.sink): Fraction(1)}
        assert inst.target_arc == (2, inst.sink)
        assert g.source_emergy[inst.source] == 1
        assert validate_graph(g) == []

    def test_vertex_without_successors_drains_fully(self):
        inst = build_reduction(digraph(3, {(1, 3)}))
        assert inst.graph.arcs[(2, inst.drain)] == 1

    def test_no_coproducts_anywhere(self):
        from empower.graph import NodeKind
        inst = build_reduction(TRIANGLE)
        assert all(k is not NodeKind.COPRODUCT for k in inst.graph.kind.values())

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_reduction_always_validates(self, seed):
        d = random_digraph(2 + seed % 5, 0.5, seed)
        assert validate_graph(build_reduction(d).graph) == []

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_path_value_shape(self, seed):
        d = random_digraph(2 + seed % 4, 0.5, seed)
        inst = build_reduction(d)
        exit_weight = inst.graph.arcs[inst.target_arc]
        for p in enumerate_emergy_paths(inst.graph, inst.target_arc):
            assert p.value == exit_weight / inst.bound ** (p.arc_count - 2)


@st.composite
def expansions(draw):
    """A base, the digits for lengths 2 upward, and the value they spell."""
    base = draw(st.integers(2, 2 ** 64))
    digit = st.one_of(st.sampled_from([0, base - 1]), st.integers(0, base - 1))
    digits = draw(st.lists(digit, min_size=1, max_size=60))
    return base, digits, sum(Fraction(n, base ** j) for j, n in enumerate(digits))


class TestDecode:
    @given(expansions(), st.integers(0, 2 ** 64), st.integers(2, 2 ** 64))
    @settings(deadline=None)
    def test_round_trip(self, expansion, excess, split):
        base, digits, value = expansion
        max_arcs = len(digits) + 1
        assert decode_counts(value, base, max_arcs).counts == tuple(enumerate(digits, start=2))
        for leading in (base + excess, -1 - excess):
            with pytest.raises(ValueError, match="outside"):
                decode_counts(value - digits[0] + leading, base, max_arcs)
        below_last_digit = Fraction(1, base ** (max_arcs - 2) * split)
        with pytest.raises(ValueError, match="residue"):
            decode_counts(value + below_last_digit, base, max_arcs)

    def test_two_digits(self):
        vec = decode_counts(Fraction(2) + Fraction(3, 15), 15, 3)
        assert vec.counts == ((2, 2), (3, 3))
        assert vec.total == 5

    def test_single_arc_expansion(self):
        vec = decode_counts(Fraction(1, 4), 4, 3)
        assert vec.counts == ((2, 0), (3, 1))

    def test_zero(self):
        vec = decode_counts(Fraction(0), 4, 4)
        assert vec.counts == ((2, 0), (3, 0), (4, 0))
        assert vec.total == 0

    def test_digit_too_large(self):
        with pytest.raises(ValueError, match="outside"):
            decode_counts(Fraction(9), 4, 3)

    def test_negative_value(self):
        with pytest.raises(ValueError, match="outside"):
            decode_counts(Fraction(-1, 2), 4, 3)

    def test_nonzero_residue(self):
        with pytest.raises(ValueError, match="residue"):
            decode_counts(Fraction(1, 3), 4, 3)


class TestCounting:
    def test_single_arc(self):
        assert count_simple_paths(SINGLE_ARC, "reduction") == 1
        assert count_simple_paths(SINGLE_ARC, "dfs") == 1

    def test_triangle(self):
        assert count_simple_paths(TRIANGLE, "reduction") == 2
        assert count_simple_paths(TRIANGLE, "dfs") == 2

    def test_disconnected(self):
        d = digraph(2, set())
        assert count_simple_paths(d, "reduction") == 0
        assert count_simple_paths(d, "dfs") == 0
        inst = build_reduction(d)
        assert solve_general(inst.graph, inst.target_arc).value == 0

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            count_simple_paths(SINGLE_ARC, "guess")

    def test_enumeration_is_sorted_and_simple(self):
        d = digraph(4, {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)})
        paths = list(enumerate_simple_paths(d))
        assert paths == sorted(paths)
        for p in paths:
            assert len(set(p)) == len(p)
            assert p[0] == 1 and p[-1] == 4

    def test_long_line_needs_no_recursion(self):
        assert list(enumerate_simple_paths(line(1200))) == [tuple(range(1, 1201))]
        assert count_simple_paths(line(1200), "dfs") == 1

    # the reduction's numbers grow like B^n with the bound B about n!, so its
    # lines are shorter than the DFS's; B^399 has about 350,000 digits
    @pytest.mark.parametrize("d", [
        pytest.param(line(100), id="line-100"),
        pytest.param(line(200), id="line-200"),
        pytest.param(line(400), id="line-400"),
        pytest.param(random_digraph(12, 0.6, 1), id="random-digraph-12"),  # 96,625 paths
    ])
    def test_reduction_decodes_long_instances(self, d):
        assert reduction_counts(d) == dfs_counts(d)

    def test_dfs_count_lists_no_paths(self):
        # 13,700 simple paths from 1 to 9 in the complete digraph on 9 vertices;
        # as a list of tuples they take about 1.5 MB
        d = digraph(9, {(a, b) for a in range(1, 10) for b in range(1, 10) if a != b})
        tracemalloc.start()
        try:
            assert count_simple_paths(d, "dfs") == 13_700
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_reduction_matches_dfs_per_length(self, seed):
        d = random_digraph(2 + seed % 5, 0.5, seed)
        assert reduction_counts(d) == dfs_counts(d)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_acyclic_digraphs_agree_across_solvers(self, seed):
        d = random_digraph(2 + seed % 5, 0.4, seed)
        inst = build_reduction(d)
        if topological_order(inst.graph).order is None:
            return
        from empower.dag import solve_dag
        assert solve_dag(inst.graph, inst.target_arc) == \
            solve_general(inst.graph, inst.target_arc).value

"""Parser, validator, topological order, and rational arithmetic basics."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from empower.generators import random_cyclic, random_dag
from empower.graph import (
    EmergyGraph,
    NodeKind,
    ParseError,
    TopoResult,
    parse_graph,
    serialize_graph,
    topological_order,
    validate_graph,
)
from empower.hardness import parse_digraph
from helpers import (
    emergy_graphs,
    reference_parse_digraph,
    reference_parse_graph,
    reference_validate_graph,
)

MINIMAL = "node 1 source 5\nnode 2 output\narc 1 2 1\n"


class TestParse:
    def test_textbook_instance(self, textbook):
        assert len(textbook.nodes) == 12
        assert len(textbook.arcs) == 16
        assert textbook.sources == (1, 5)
        assert textbook.source_emergy[5] == 250
        assert textbook.kind[7] is NodeKind.COPRODUCT
        assert textbook.arcs[(2, 3)] == Fraction(3, 10)
        assert [textbook.nodes[w] for w, _, _ in textbook.options[textbook.index[8]]] == [6, 9]
        assert [textbook.nodes[u] for u in textbook.pred[textbook.index[6]]] == [5, 8, 10]

    @given(emergy_graphs())
    @settings(max_examples=80, deadline=None)
    def test_derived_facts_follow_the_arcs(self, g):
        """Every fact the graph derives at construction, against `g.arcs` alone."""
        assert g.nodes == tuple(sorted(g.kind))
        # each node's successors, grown below to every node it reaches
        reach = {i: {b for (a, b) in g.arcs if a == i} for i in g.nodes}
        for i in g.nodes:
            todo = list(reach[i])
            while todo:
                new = reach[todo.pop()] - reach[i]
                reach[i] |= new
                todo.extend(new)
        for v, i in enumerate(g.nodes):
            out = sorted((b, w) for (a, b), w in g.arcs.items() if a == i)
            assert g.index[i] == v and g.kinds[v] is g.kind[i]
            assert g.options[v] == [(g.index[b], w.numerator, w.denominator) for b, w in out]
            assert [g.nodes[u] for u in g.pred[v]] == sorted(a for (a, b) in g.arcs if b == i)
            for w, j in enumerate(g.nodes):
                assert (g.comp[v] == g.comp[w]) == (i == j or i in reach[j] and j in reach[i])
        assert g.acyclic == all(i not in reach[i] for i in g.nodes)
        assert g.acyclic == (topological_order(g).order is not None)

    def test_minimal_instance(self):
        g = parse_graph(MINIMAL)
        assert g.nodes == (1, 2)
        assert g.arcs == {(1, 2): Fraction(1)}

    def test_comments_and_blanks(self):
        g = parse_graph("# header\n\nnode 1 source 5   # theta\nnode 2 output\n\narc 1 2 1\n")
        assert g.arcs == {(1, 2): Fraction(1)}

    def test_undeclared_node(self):
        with pytest.raises(ParseError, match="undeclared node"):
            parse_graph("arc 1 3 1\n")

    def test_duplicate_node(self):
        with pytest.raises(ParseError, match="duplicate node"):
            parse_graph("node 1 split\nnode 1 output\n")

    def test_duplicate_arc(self):
        with pytest.raises(ParseError, match="duplicate arc"):
            parse_graph(MINIMAL + "arc 1 2 1\n")

    def test_theta_missing_on_source(self):
        with pytest.raises(ParseError, match="emergy value"):
            parse_graph("node 1 source\n")

    def test_theta_on_non_source(self):
        with pytest.raises(ParseError, match="takes no value"):
            parse_graph("node 1 split 3\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph("node 1 split\narc 1 1 1\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown node kind"):
            parse_graph("node 1 tank 3\n")

    def test_bad_rational(self):
        with pytest.raises(ParseError, match="rational"):
            parse_graph("node 1 source x\n")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="positive integer"):
            parse_graph("node 1 source 1/0\n")

    def test_unknown_line(self):
        with pytest.raises(ParseError, match="expected 'node' or 'arc'"):
            parse_graph("edge 1 2\n")

    @pytest.mark.parametrize("text", [
        "node \u00b2 source 1\n",              # superscript two: int() refuses it
        "node \uff13 source 1\n",              # fullwidth three: int() reads it as 3
        "node 1 source \uff13\n",
        "node 1 source 1/\u00b2\n",
        "node 1 source 1\nnode 2 output\narc 1 \u0662 1\n",  # Arabic-Indic two
    ])
    def test_non_ascii_digits_are_parse_errors(self, text):
        with pytest.raises(ParseError, match="expected a"):
            parse_graph(text)

    def test_overlong_number_is_a_parse_error(self):
        with pytest.raises(ParseError, match="too long"):
            parse_graph("node 1 source " + "7" * 5000 + "\n")
        with pytest.raises(ParseError, match="too long"):
            parse_graph("node " + "7" * 5000 + " output\n")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_graph("node 1 source 5\nnode 2 wat\n")
        assert err.value.line == 2
        assert err.value.column == 8

    def test_constructor_rejects_structural_garbage(self):
        with pytest.raises(ValueError, match="self-loop"):
            EmergyGraph({1: NodeKind.SPLIT}, {}, {(1, 1): Fraction(1)})
        with pytest.raises(ValueError, match="undeclared"):
            EmergyGraph({1: NodeKind.SPLIT}, {}, {(1, 2): Fraction(1)})
        with pytest.raises(ValueError, match="non-source"):
            EmergyGraph({1: NodeKind.SPLIT}, {1: Fraction(1)}, {})
        with pytest.raises(ValueError, match="no emergy"):
            EmergyGraph({1: NodeKind.SOURCE}, {}, {})


def graph_with(weights: dict[tuple[int, int], Fraction | int | str] | None = None,
               kinds: dict[int, NodeKind] | None = None) -> EmergyGraph:
    """Small two-way split instance with override hooks for mutation tests."""
    base_kinds = {1: NodeKind.SOURCE, 2: NodeKind.SPLIT,
                  3: NodeKind.OUTPUT, 4: NodeKind.OUTPUT}
    base_arcs: dict[tuple[int, int], Fraction | int | str] = {
        (1, 2): 1, (2, 3): Fraction(1, 2), (2, 4): Fraction(1, 2)}
    if kinds:
        base_kinds.update(kinds)
    if weights:
        base_arcs.update(weights)
    return EmergyGraph(base_kinds, {1: Fraction(3)}, base_arcs)


class TestValidate:
    def test_textbook_is_valid(self, textbook):
        assert validate_graph(textbook) == []

    def test_split_sum_violation(self):
        report = validate_graph(graph_with({(2, 4): Fraction(2, 5)}))
        assert [v.code for v in report] == ["split-sum"]
        assert "9/10" in report[0].message

    def test_coproduct_weight_violation(self):
        g = graph_with({(2, 3): 1, (2, 4): Fraction(1, 2)},
                       kinds={2: NodeKind.COPRODUCT})
        report = validate_graph(g)
        assert [v.code for v in report] == ["coproduct-weight"]
        assert report[0].subject == (2, 4)

    def test_source_with_two_successors(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.OUTPUT, 3: NodeKind.OUTPUT},
            {1: Fraction(3)},
            {(1, 2): Fraction(1, 2), (1, 3): Fraction(1, 2)})
        assert "source-degree" in [v.code for v in validate_graph(g)]

    def test_source_with_predecessor(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.SOURCE, 3: NodeKind.OUTPUT},
            {1: Fraction(1), 2: Fraction(1)},
            {(1, 2): Fraction(1), (2, 3): Fraction(1)})
        assert "source-pred" in [v.code for v in validate_graph(g)]

    def test_output_with_successor(self):
        g = graph_with(kinds={3: NodeKind.SPLIT, 4: NodeKind.SPLIT},
                       weights={(3, 4): 1, (4, 3): 1})
        # 3 and 4 now feed each other; flip 4 back to output to isolate the rule
        g2 = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.OUTPUT, 3: NodeKind.OUTPUT},
            {1: Fraction(3)},
            {(1, 2): Fraction(1), (2, 3): Fraction(1)})
        assert "output-succ" in [v.code for v in validate_graph(g2)]
        assert validate_graph(g) == []

    def test_dead_intermediate(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.OUTPUT, 3: NodeKind.SPLIT},
            {1: Fraction(3)},
            {(1, 2): Fraction(1)})
        assert [v.code for v in validate_graph(g)] == ["dead-intermediate"]

    def test_coproduct_needs_two_successors(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.COPRODUCT, 3: NodeKind.OUTPUT},
            {1: Fraction(3)},
            {(1, 2): Fraction(1), (2, 3): Fraction(1)})
        assert [v.code for v in validate_graph(g)] == ["coproduct-degree"]

    def test_weight_out_of_range(self):
        report = validate_graph(graph_with({(2, 3): Fraction(3, 2)}))
        codes = sorted(v.code for v in report)
        assert codes == ["split-sum", "weight-range"]
        report = validate_graph(graph_with({(2, 3): Fraction(3, 2), (2, 4): Fraction(-1, 2)}))
        assert sorted(v.code for v in report) == ["weight-range", "weight-range"]

    def test_nonpositive_emergy(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.OUTPUT},
            {1: Fraction(0)},
            {(1, 2): Fraction(1)})
        assert [v.code for v in validate_graph(g)] == ["emergy-range"]

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_generated_instances_are_valid(self, seed):
        g = random_dag(4 + seed % 9, 0.4, seed)
        assert validate_graph(g) == []


def one_arc(weight: Fraction) -> EmergyGraph:
    return EmergyGraph({1: NodeKind.SOURCE, 2: NodeKind.OUTPUT}, {1: Fraction(1)},
                       {(1, 2): weight})


class TestSerialize:
    def test_round_trip_textbook(self, textbook):
        assert parse_graph(serialize_graph(textbook)) == textbook

    def test_longest_number_round_trips(self):
        g = one_arc(Fraction(1, 10 ** 4299 + 1))  # a 4,300-digit denominator
        assert parse_graph(serialize_graph(g)) == g

    @pytest.mark.parametrize("weight", [Fraction(1, 10 ** 4300), Fraction(-10 ** 4300 - 1, 3)])
    def test_longer_number_is_refused(self, weight):
        # refused by the bound `parse_graph` reads with, also where the
        # interpreter's own int-string limit is lifted, as `cli.main` does
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(ValueError, match="more than 4300 digits"):
                serialize_graph(one_arc(weight))
        finally:
            sys.set_int_max_str_digits(limit)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_generated(self, seed):
        g = random_dag(4 + seed % 9, 0.5, seed)
        assert parse_graph(serialize_graph(g)) == g


class TestTopologicalOrder:
    def test_minimal_order(self):
        assert topological_order(parse_graph(MINIMAL)).order == (1, 2)

    def test_textbook_cycle_witness(self, textbook):
        result = topological_order(textbook)
        assert result.order is None
        cycle = result.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {3, 6, 7, 8}
        for a, b in zip(cycle, cycle[1:]):
            assert (a, b) in textbook.arcs

    def test_pinned_outputs(self, textbook):
        """The smallest node of a cyclic component, then the smallest
        successor inside it; on a DAG with several valid orders, the reversed
        finishing order of a search by ascending ids."""
        assert topological_order(textbook) == TopoResult(None, (3, 7, 8, 6, 3))
        g = random_dag(12, 0.5, 3)
        order = (4, 2, 5, 3, 6, 9, 8, 11, 7, 1, 10, 12)
        # consecutive nodes with no arc between them could swap places
        assert any((a, b) not in g.arcs for a, b in zip(order, order[1:]))
        assert topological_order(g) == TopoResult(order, None)
        assert topological_order(parse_graph("")) == TopoResult((), None)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_order_respects_arcs(self, seed):
        g = random_dag(4 + seed % 10, 0.5, seed)
        order = topological_order(g).order
        assert (order is None) == (not g.acyclic)
        assert order is not None and sorted(order) == list(g.nodes)
        position = {n: k for k, n in enumerate(order)}
        for a, b in g.arcs:
            assert position[a] < position[b]

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_cycle_witness_is_a_cycle(self, seed):
        g = random_cyclic(6 + seed % 6, 0.5, 1 + seed % 2, seed)
        result = topological_order(g)
        assert (result.order is None) == (not g.acyclic)
        if result.cycle is None:
            return  # a back arc does not always close a cycle
        cycle = result.cycle
        assert cycle[0] == cycle[-1] and len(cycle) >= 3
        for a, b in zip(cycle, cycle[1:]):
            assert (a, b) in g.arcs


GRAMMAR_TOKENS = ["source", "split", "coproduct", "output", "#", "/", "1", "2", "3",
                  "1/2", "-1", "0", "1/0", "\u00b2", "\uff13", "1/\u00b2", "x"]
grammar_like = st.lists(
    st.tuples(st.sampled_from(["node", "arc", ""]),
              st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=4))
    .map(lambda line: " ".join([line[0], *line[1]])),
    max_size=8).map("\n".join)


class TestParseTotality:
    """Any text either parses or raises ParseError, never anything else."""

    @staticmethod
    def parses_or_refuses(text: str):
        try:
            parse_graph(text)
        except ParseError:
            pass

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, text):
        self.parses_or_refuses(text)

    @given(grammar_like)
    @settings(max_examples=300, deadline=None)
    def test_grammar_like_text(self, text):
        self.parses_or_refuses(text)


# whitespace that `str.split` and `re`'s `\\s` split at, among them the
# separators U+001C-U+001F and NEL (which `str.splitlines` also breaks at)
ODD_SPACES = [" ", "  ", "\t", "\u00a0", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", "\x85"]
LONG = "7" * 4301  # one digit more than a file's number may have
ODD_TOKENS = ["\uff13", "\u00b2", "\u0662", "1\u00b2", "+1", "-1", "+", "-", "+-1", "1/", "1/2/3",
              "/0", "/", "0/1", "-0", "+3/4", "-3/4", "01", "1/0", "1/00", "1_0", LONG, "1/" + LONG,
              "-" + LONG, "7" * 4300, "#", "1#2", "arc#", "x", "1", "2", "3", "1/2", "3/2"]


def mostly(good: list[str]):
    """One of `good`, 19 times in 20; else one of `ODD_TOKENS`."""
    return st.tuples(st.integers(0, 19), st.sampled_from(good), st.sampled_from(ODD_TOKENS)).map(
        lambda pick: pick[1] if pick[0] else pick[2])


def token_text(shapes: list[list]):
    """Lines of tokens drawn slot by slot from one of `shapes` (the last
    shape a fifth as often as each other), a slot sometimes dropped or a
    token added, joined by whitespace of every kind and by every line break
    `str.splitlines` knows, with comments."""
    tokens = st.one_of(*[st.tuples(*shape) for shape in shapes[:-1]] * 4,
                       st.tuples(*shapes[-1])).flatmap(
        lambda line: st.sampled_from([list(line)] * 18 + [list(line[:-1]), [*line, "1"]]))
    spaces = st.sampled_from([" "] * 20 + ODD_SPACES)
    line = st.tuples(tokens, st.lists(spaces, min_size=6, max_size=6),
                     st.sampled_from(["", "", " # note", "#", "\t#1 2"]))
    return st.lists(line.map(lambda t: t[1][0] + "".join(
        sep + tok for sep, tok in zip(t[1][1:], t[0])) + t[2]), max_size=8).flatmap(
        lambda lines: st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\u2028"]),
                               min_size=len(lines), max_size=len(lines)).map(
            lambda breaks: "".join(line + br for line, br in zip(lines, breaks))))


IDS, WEIGHTS = ["1", "2", "3", "4", "01"], ["1", "1/2", "2/4", "3/4", "0", "-1"]
graph_tokens = token_text([
    [mostly(["node"]), mostly(IDS), mostly(["source"]), mostly(WEIGHTS)],
    [mostly(["node"]), mostly(IDS), mostly(["split", "coproduct", "output", "tank"])],
    [mostly(["arc"]), mostly(IDS), mostly(IDS), mostly(WEIGHTS)],
    [st.sampled_from(["", "edge", "node", "arc"]), st.sampled_from(ODD_TOKENS)],
])
digraph_tokens = token_text([
    [mostly(["vertex"]), mostly(IDS)],
    [mostly(["edge"]), mostly(IDS), mostly(IDS)],
    [mostly(["start", "target"]), mostly(IDS)],
    [st.sampled_from(["", "node", "edge"]), st.sampled_from(ODD_TOKENS)],
])


def assert_same_outcome(parse, reference, text: str):
    """`parse` gives what `reference` gives, or the same ParseError: its
    line, column and message."""
    try:
        expected = reference(text)
    except ParseError as refusal:
        with pytest.raises(ParseError) as got:
            parse(text)
        assert (got.value.line, got.value.column, str(got.value)) == \
            (refusal.line, refusal.column, str(refusal))
    else:
        assert parse(text) == expected


class TestParseAgainstReference:
    """The one-pass parsers against the regex-tokenizer ones they replace
    (`helpers.reference_parse_graph`, `helpers.reference_parse_digraph`)."""

    @given(st.one_of(grammar_like, graph_tokens, st.text()))
    @settings(max_examples=600, deadline=None)
    def test_graph_text(self, text):
        assert_same_outcome(parse_graph, reference_parse_graph, text)

    @given(st.one_of(digraph_tokens, st.text()))
    @settings(max_examples=300, deadline=None)
    def test_digraph_text(self, text):
        assert_same_outcome(parse_digraph, reference_parse_digraph, text)

    @given(emergy_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_serialized_graph_with_one_token_changed(self, g, data):
        """A valid file with one token replaced or deleted: every error one
        token can cause, in a file the parser otherwise reads through."""
        lines = [line.split() for line in serialize_graph(g).splitlines()]
        n = data.draw(st.integers(0, len(lines) - 1))
        k = data.draw(st.integers(0, len(lines[n]) - 1))
        lines[n][k:k + 1] = data.draw(st.sampled_from([[], ["7"], ["0"], ["1/0"], ["-1/2"],
                                                       ["split"], ["99"], ["1"], ["\uff13"]]))
        assert_same_outcome(parse_graph, reference_parse_graph,
                            "\n".join(" ".join(line) for line in lines))

    @pytest.mark.parametrize("text", [
        "node 1 source 1\nnode 2 output\narc 1 3 1\narc 5 2 1\n",  # the first undeclared arc
        "arc 9 1 1\nnode 1 source 1\narc 1 8 1\n",  # an arc before the nodes it names
        "node 1 split\narc\t1 2\u3000 1/2 # c\nnode 2 output\narc 1 3 x\n",
        "node 1 source 1/2/3\n", "node 1 source " + LONG + "\n",
        "node 1 source 1/" + LONG + "\n", "node 1 source -" + LONG + "/0\n",
    ])
    def test_pinned_errors(self, text):
        assert_same_outcome(parse_graph, reference_parse_graph, text)


def mutated(g: EmergyGraph, data) -> EmergyGraph:
    """`g` with up to four changes a validator must report: a weight
    halved, above 1, 0 or negative, a co-product weight other than 1, a
    non-positive emergy, an arc removed or added, a split made a co-product."""
    kind, emergy, arcs = dict(g.kind), dict(g.source_emergy), dict(g.arcs)
    for _ in range(data.draw(st.integers(1, 4))):
        change = data.draw(st.sampled_from(["halve", "above", "zero", "negative", "co-product",
                                            "emergy", "remove", "add", "kind"]))
        arc = data.draw(st.sampled_from(sorted(arcs))) if arcs else None
        if change == "halve" and arc:
            arcs[arc] /= 2
        elif change in ("above", "zero", "negative") and arc:
            arcs[arc] = {"above": Fraction(3, 2), "zero": Fraction(0),
                         "negative": -arcs[arc]}[change]
        elif change == "co-product":
            at = [a for a in arcs if kind[a[0]] is NodeKind.COPRODUCT]
            if at:
                arcs[data.draw(st.sampled_from(at))] = data.draw(st.sampled_from(
                    [Fraction(1, 2), Fraction(2), Fraction(2, 3)]))
        elif change == "emergy":
            emergy[data.draw(st.sampled_from(sorted(emergy)))] = data.draw(
                st.sampled_from([Fraction(0), Fraction(-1, 3)]))
        elif change == "remove" and arc:
            del arcs[arc]
        elif change == "add":
            a, b = data.draw(st.lists(st.sampled_from(sorted(kind)), min_size=2, max_size=2,
                                      unique=True))
            arcs[a, b] = data.draw(st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(5, 4)]))
        elif change == "kind":
            v = data.draw(st.sampled_from(sorted(kind)))
            if kind[v] in (NodeKind.SPLIT, NodeKind.COPRODUCT):
                kind[v] = NodeKind.COPRODUCT if kind[v] is NodeKind.SPLIT else NodeKind.SPLIT
    return EmergyGraph(kind, emergy, arcs)


def wide_split(weights: list[Fraction]) -> EmergyGraph:
    """A source feeding one split with an output per weight."""
    kind = {1: NodeKind.SOURCE, 2: NodeKind.SPLIT}
    kind.update({3 + j: NodeKind.OUTPUT for j in range(len(weights))})
    arcs = {(1, 2): Fraction(1), **{(2, 3 + j): w for j, w in enumerate(weights)}}
    return EmergyGraph(kind, {1: Fraction(1)}, arcs)


class TestValidateAgainstReference:
    """`validate_graph` on integer pairs against the `Fraction` validator it
    replaces (`helpers.reference_validate_graph`): the same reports."""

    @given(emergy_graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_graphs(self, g, data):
        assert validate_graph(g) == reference_validate_graph(g) == []
        broken = mutated(g, data)
        assert validate_graph(broken) == reference_validate_graph(broken)

    def test_split_of_two_hundred_denominators(self):
        """1/(k(k+1)) for k = 1..199 telescopes to 1 - 1/200: with 1/200
        the sum is exactly 1, every denominator distinct."""
        weights = [Fraction(1, k * (k + 1)) for k in range(1, 200)] + [Fraction(1, 200)]
        assert len({w.denominator for w in weights}) == 200
        assert validate_graph(wide_split(weights)) == []
        weights[-1] = Fraction(1, 201)
        report = validate_graph(wide_split(weights))
        assert report == reference_validate_graph(wide_split(weights))
        assert [v.message for v in report] == ["split 2 outgoing weights sum to 40199/40200, not 1"]

    @pytest.mark.parametrize("g", [
        graph_with({(2, 3): Fraction(3, 2), (2, 4): Fraction(-1, 2)}),
        graph_with({(2, 3): 0, (2, 4): Fraction(1, 2)}, kinds={2: NodeKind.COPRODUCT}),
        EmergyGraph({1: NodeKind.SOURCE, 2: NodeKind.COPRODUCT, 3: NodeKind.SOURCE},
                    {1: Fraction(-2), 3: Fraction(0)}, {(1, 2): Fraction(1), (1, 3): Fraction(2)}),
    ], ids=["two-ranges", "co-product", "sources"])
    def test_pinned_reports(self, g):
        assert validate_graph(g) == reference_validate_graph(g)
        assert validate_graph(g)


rationals = st.fractions(min_value=-10**8, max_value=10**8, max_denominator=10**6)


class TestRationalArithmetic:
    @given(rationals, rationals, rationals)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
    def test_floor_bracketing(self, p, q):
        f = math.floor(Fraction(p, q))
        assert f * q <= p < (f + 1) * q

    @given(rationals)
    def test_canonical_form(self, a):
        assert a.denominator > 0
        assert math.gcd(abs(a.numerator), a.denominator) == 1

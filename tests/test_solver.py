"""The memoized search, its trie and brute-force oracles, and the solver properties."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from empower.compat import build_compatibility_graph, compatible
from empower.generators import (
    diamond_chain,
    random_cyclic,
    random_dag,
    random_digraph,
)
import empower.graph
import empower.solver
from empower.fixtures import load_textbook
from empower.graph import (
    EmergyGraph,
    NodeKind,
    components,
    parse_graph,
    serialize_graph,
    topological_order,
    validate_graph,
)
from empower.hardness import build_reduction, count_simple_paths
from empower.paths import EmergyPath, enumerate_emergy_paths, iter_emergy_paths
from empower.solver import TailSearch, brute_force_solve, solve_general
from helpers import (
    TrieNode,
    arc_with_most_paths,
    best_compatible_value,
    build_source_trie,
    check_witness,
    cyclic_core_graphs,
    emergy_graphs,
    evaluate_trie,
    family_instances,
    listed_emergy_paths,
    pairwise_compatible,
    path_value,
    random_no_split_graph,
    reachability_to_target,
    successors,
    trie_solve,
)


def chain_graph(length: int, emergy: Fraction) -> tuple[EmergyGraph, tuple[int, int]]:
    """Source 1, splits 2..length-1 in a line, output `length`: one path."""
    kinds = {1: NodeKind.SOURCE, length: NodeKind.OUTPUT}
    kinds.update({i: NodeKind.SPLIT for i in range(2, length)})
    arcs = {(i, i + 1): Fraction(1) for i in range(1, length)}
    return EmergyGraph(kinds, {1: emergy}, arcs), (length - 1, length)


def diamond_chain_into_cycle(layers: int) -> tuple[EmergyGraph, dict]:
    """`diamond_chain(layers)` whose last merge feeds a co-product x on the
    two-node cycle x <-> y instead of the output: x -> y and x -> o1 weigh 1,
    y -> x and y -> o2 weigh 1/2. Returns the graph and the value of every
    arc from the last merge on, each of which carries 2**layers paths."""
    g, (merge, x) = diamond_chain(layers)
    y, o1, o2 = x + 1, x + 2, x + 3
    kinds = {**g.kind, x: NodeKind.COPRODUCT, y: NodeKind.SPLIT,
             o1: NodeKind.OUTPUT, o2: NodeKind.OUTPUT}
    half = Fraction(1, 2)
    arcs = {**g.arcs, (x, y): Fraction(1), (x, o1): Fraction(1), (y, x): half, (y, o2): half}
    values = {(merge, x): 1, (x, y): 1, (x, o1): 1, (y, x): half, (y, o2): half}
    return EmergyGraph(kinds, g.source_emergy, arcs), values


def head_on_path(g: EmergyGraph) -> bool:
    """Some emergy path ends at a node it already passed through."""
    return any(p.nodes[-1] in p.nodes[:-1]
               for arc in g.arcs for p in enumerate_emergy_paths(g, arc))


def sources_share_a_node(g: EmergyGraph) -> bool:
    """Two sources feed the same node."""
    succ = successors(g)
    return len({succ[s] for s in g.sources}) < len(g.sources)


def source_feeds_a_tail(g: EmergyGraph) -> bool:
    """The node some source feeds has successors of its own."""
    succ = successors(g)
    return any(succ[succ[s][0]] for s in g.sources)


def coproduct_branches_meet_in_a_cycle(g: EmergyGraph) -> bool:
    """Some co-product has two successors that both reach a node from which
    the co-product can be reached again."""
    succ = successors(g)
    below = {v: descendants(succ, v) for v in succ}
    return any(c in below[m]
               for c in succ if g.kind[c] is NodeKind.COPRODUCT
               for a, b in combinations(succ[c], 2)
               for m in below[a] & below[b])


def descendants(succ: dict[int, tuple[int, ...]], v: int) -> set[int]:
    """The nodes `v` reaches under the successor map `succ`, itself included."""
    seen, todo = {v}, [v]
    while todo:
        for w in succ[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def refuse_listing(*args):
    raise AssertionError("enumerate_emergy_paths called")


def textbook_source_paths(textbook, source):
    return [p for p in enumerate_emergy_paths(textbook, (4, 7)) if p.source == source]


def branching_nodes(node: TrieNode, acc=None) -> list[int]:
    acc = [] if acc is None else acc
    if len(node.children) > 1:
        acc.append(node.node_id)
    for child in node.children.values():
        branching_nodes(child, acc)
    return acc


def leaves(node: TrieNode, acc=None) -> list[EmergyPath]:
    acc = [] if acc is None else acc
    if node.leaf is not None:
        acc.append(node.leaf)
    for child in node.children.values():
        leaves(child, acc)
    return acc


class TestTrieConstruction:
    def test_textbook_source_one_structure(self, textbook):
        trie = build_source_trie(textbook_source_paths(textbook, 1))
        assert sorted(branching_nodes(trie)) == [2, 8, 9]
        assert len(leaves(trie)) == 4

    def test_single_path_is_a_unary_chain(self, trivial):
        trie = build_source_trie(enumerate_emergy_paths(trivial, (1, 2)))
        assert branching_nodes(trie) == []
        assert len(leaves(trie)) == 1

    def test_divergence_at_second_node(self):
        a = EmergyPath((1, 2, 3, 9), Fraction(1))
        b = EmergyPath((1, 2, 4, 9), Fraction(2))
        trie = build_source_trie([a, b])
        assert branching_nodes(trie) == [2]
        assert sorted(p.nodes for p in leaves(trie)) == [a.nodes, b.nodes]

    def test_rejects_prefix_related_paths(self):
        a = EmergyPath((1, 2, 3), Fraction(1))
        b = EmergyPath((1, 2, 3, 4), Fraction(2))
        with pytest.raises(ValueError, match="prefix"):
            build_source_trie([a, b])
        with pytest.raises(ValueError, match="prefix"):
            build_source_trie([b, a])

    def test_rejects_duplicates_and_mixed_roots(self):
        a = EmergyPath((1, 2, 3), Fraction(1))
        with pytest.raises(ValueError, match="duplicates"):
            build_source_trie([a, a])
        with pytest.raises(ValueError, match="first node"):
            build_source_trie([a, EmergyPath((5, 2, 3), Fraction(1))])
        with pytest.raises(ValueError, match="zero paths"):
            build_source_trie([])


class TestTrieEvaluation:
    def test_textbook_source_one(self, textbook):
        trie = build_source_trie(textbook_source_paths(textbook, 1))
        value, selected = evaluate_trie(textbook, trie)
        assert value == Fraction(385, 4)
        assert sorted(p.nodes for p in selected) == [
            (1, 2, 3, 7, 8, 6, 4, 7), (1, 2, 3, 7, 8, 9, 4, 7), (1, 2, 4, 7)]

    def test_textbook_source_five(self, textbook):
        trie = build_source_trie(textbook_source_paths(textbook, 5))
        value, selected = evaluate_trie(textbook, trie)
        assert value == Fraction(875, 4)
        assert len(selected) == 2

    def test_single_leaf(self, trivial):
        trie = build_source_trie(enumerate_emergy_paths(trivial, (1, 2)))
        assert evaluate_trie(trivial, trie) == (Fraction(5), leaves(trie))

    def test_branching_at_wrong_kind_raises(self, trivial):
        root = TrieNode(1)
        root.children = {2: TrieNode(2, leaf=EmergyPath((1, 2), Fraction(1))),
                         3: TrieNode(3, leaf=EmergyPath((1, 3), Fraction(1)))}
        with pytest.raises(ValueError, match="branches at source"):
            evaluate_trie(trivial, root)


class TestSolveGeneral:
    def test_textbook_optimum(self, textbook):
        result = solve_general(textbook, (4, 7))
        assert result.value == 315
        assert result.stats.path_count == 6
        assert [p.nodes for p in result.witness.paths] == [
            (1, 2, 3, 7, 8, 6, 4, 7), (1, 2, 3, 7, 8, 9, 4, 7), (1, 2, 4, 7),
            (5, 6, 3, 7, 8, 9, 4, 7), (5, 6, 4, 7)]
        assert result.witness.value == result.value
        assert pairwise_compatible(textbook, result.witness.paths)

    def test_trivial(self, trivial):
        assert solve_general(trivial, (1, 2)).value == 5

    def test_trie_work_is_bounded_by_total_path_length(self, textbook):
        result = solve_general(textbook, (4, 7))
        total_nodes = sum(
            len(p.nodes) for p in enumerate_emergy_paths(textbook, (4, 7)))
        assert result.stats.tree_nodes <= total_nodes
        # on a DAG the search keeps one memo entry per node
        g, arc = diamond_chain(30)
        result = solve_general(g, arc)
        assert result.stats.tree_nodes <= len(g.nodes)
        assert result.stats.path_count == result.stats.witness_count == 2 ** 30

    def test_unreachable_arc_gives_zero(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.OUTPUT, 3: NodeKind.SPLIT, 4: NodeKind.OUTPUT},
            {1: Fraction(2)},
            {(1, 2): Fraction(1), (3, 4): Fraction(1)})
        result = solve_general(g, (3, 4))
        assert result.value == 0 and result.witness.paths == ()

    def test_cross_source_additivity(self, textbook):
        def without_source(g, s):
            return EmergyGraph(
                {i: k for i, k in g.kind.items() if i != s},
                {i: v for i, v in g.source_emergy.items() if i != s},
                {a: w for a, w in g.arcs.items() if a[0] != s})
        full = solve_general(textbook, (4, 7)).value
        only1 = solve_general(without_source(textbook, 5), (4, 7)).value
        only5 = solve_general(without_source(textbook, 1), (4, 7)).value
        assert (only1, only5) == (Fraction(385, 4), Fraction(875, 4))
        assert full == only1 + only5

    def test_scaling_linearity(self, textbook):
        base = solve_general(textbook, (4, 7))
        for c in (Fraction(2), Fraction(1, 3)):
            scaled = EmergyGraph(
                dict(textbook.kind),
                {i: c * v for i, v in textbook.source_emergy.items()},
                dict(textbook.arcs))
            result = solve_general(scaled, (4, 7))
            assert result.value == c * base.value
            assert [p.nodes for p in result.witness.paths] == \
                   [p.nodes for p in base.witness.paths]

    def test_monotone_above_every_single_path(self, textbook):
        best = solve_general(textbook, (4, 7)).value
        for p in enumerate_emergy_paths(textbook, (4, 7)):
            assert best >= p.value

    def test_cycle_downstream_of_a_dag_memoizes_the_dag(self):
        """A cycle below a diamond chain leaves the chain's nodes memoized:
        each of them starts its own strongly connected component."""
        g, values = diamond_chain_into_cycle(16)
        assert validate_graph(g) == []
        for arc in sorted(g.arcs):
            result = solve_general(g, arc)
            assert result.stats.tree_nodes <= 60
            if arc in values:
                assert result.value == values[arc]
                assert result.stats.path_count == result.stats.witness_count == 2 ** 16

    def test_dead_nodes_stay_closed_while_their_path_stands(self):
        """Under the prefix 1 -> 2, nodes 4 and 5 only lead back to 2: 2 is
        4's immediate post-dominator and 4 is 5's. With 2 on the path the
        branch 2 -> 4 gets no frame, and 5 gets one and enters neither 4
        nor anything else. The frames are those of 1, 2 and 5."""
        g, arc = random_cyclic(7, 0.5, 2, 127), (3, 6)
        assert {(2, 4), (2, 5), (4, 2), (4, 5), (5, 4)} <= g.arcs.keys()
        ipdom, index = TailSearch(g, 3).ipdom, g.index
        assert (ipdom[index[4]], ipdom[index[5]]) == (index[2], index[4])
        result = solve_general(g, arc)
        value, witness, _ = trie_solve(g, arc)
        assert (result.value, result.witness.paths) == (value, witness)
        assert result.stats.tree_nodes == 3

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_no_split_graphs_sum_reaching_sources(self, seed):
        g = random_no_split_graph(4 + seed % 7, seed)
        assert all(k is not NodeKind.SPLIT for k in g.kind.values())
        for arc in sorted(g.arcs):
            reach = reachability_to_target(g, arc)
            expected = sum((g.source_emergy[s] for s in g.sources if s in reach),
                           Fraction(0))
            assert solve_general(g, arc).value == expected


class TestAgainstOracles:
    """The search against the trie oracle and brute force, arc by arc."""

    def check(self, g, arc):
        result = solve_general(g, arc)
        value, witness, path_count = trie_solve(g, arc)
        assert result.value == value
        assert result.witness.paths == witness
        assert result.stats.path_count == path_count
        assert result.stats.witness_count == len(witness)
        check_witness(g, arc, result)
        if path_count <= 16:
            brute = brute_force_solve(g, arc)
            assert brute.value == result.value
            assert brute.witness.paths == result.witness.paths
            assert brute.stats.path_count == result.stats.path_count
        return result

    def test_textbook_every_arc(self, textbook):
        for arc in sorted(textbook.arcs):
            self.check(textbook, arc)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_every_generator_family(self, seed):
        for g in family_instances(seed):
            for arc in sorted(g.arcs):
                self.check(g, arc)

    def test_dense_dags(self):
        """`random_dag(26, 0.45, seed)`, seeds 0-9, the shape of the
        acyclic-explosion workload: witnesses through co-products and
        entries shared between branches and sources, up to 41 paths."""
        for seed in range(10):
            g = random_dag(26, 0.45, seed)
            for arc in sorted(g.arcs):
                self.check(g, arc)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_cyclic_entries_per_source(self, seed):
        """On a cyclic graph every source's fresh search is its own trie."""
        graphs = [build_reduction(random_digraph(3 + seed % 4, 0.6, seed)).graph]
        try:
            graphs.append(random_cyclic(6 + seed % 6, 0.5, 1 + seed % 3, seed))
        except ValueError:
            pass
        for g in graphs:
            if g.acyclic:
                continue
            for arc in sorted(g.arcs):
                search, weight = TailSearch(g, arc[0]), g.arcs[arc]
                paths = enumerate_emergy_paths(g, arc)
                for s in g.sources:
                    own = [p for p in paths if p.source == s]
                    entry = search.entry(s)
                    assert entry[2] == len(own)
                    if not own:
                        continue
                    value, selected = evaluate_trie(g, build_source_trie(own))
                    start = g.source_emergy[s] * weight
                    assert start * Fraction(entry[0], entry[1]) == value
                    assert entry[3] == len(selected)
                    expanded = search.expand(s, entry, *start.as_integer_ratio(), arc[1])
                    assert list(expanded) == selected

    def test_cyclic_graphs_list_no_paths(self, textbook, monkeypatch):
        monkeypatch.setattr("empower.paths.enumerate_emergy_paths", refuse_listing)
        monkeypatch.setattr("empower.compat.enumerate_emergy_paths", refuse_listing)
        result = solve_general(textbook, (4, 7))
        assert (result.value, result.stats.path_count, len(result.witness.paths)) == (315, 6, 5)

    def test_long_chain_needs_no_recursion(self):
        g, arc = chain_graph(3000, Fraction(7, 3))
        result = solve_general(g, arc)
        assert result.value == Fraction(7, 3)
        assert [p.nodes for p in result.witness.paths] == [tuple(range(1, 3001))]
        assert [p.nodes for p in enumerate_emergy_paths(g, arc)] == [tuple(range(1, 3001))]

    @given(emergy_graphs())
    @settings(max_examples=80, deadline=None)
    def test_shared_search_matches_fresh_searches(self, g):
        """Nodes a search leaves closed never change a later entry of the
        same search: entering every node in turn on one `TailSearch`, as
        `search_value_table` does, gives what a fresh search gives."""
        for tail, head in sorted(g.arcs):
            shared = TailSearch(g, tail)
            for i in g.nodes:
                fresh = TailSearch(g, tail)
                got, want = shared.entry(i), fresh.entry(i)
                assert got[:4] == want[:4]
                if i in g.source_emergy:
                    start = (g.source_emergy[i] * g.arcs[tail, head]).as_integer_ratio()
                    assert list(shared.expand(i, got, *start, head)) == \
                        list(fresh.expand(i, want, *start, head))

    @given(emergy_graphs())
    @settings(max_examples=80, deadline=None)
    def test_drawn_graphs(self, g):
        """Every arc of a drawn graph; a failure shrinks to a small graph."""
        assert validate_graph(g) == []
        for arc in sorted(g.arcs):
            result = self.check(g, arc)
            witness = result.witness.paths
            assert pairwise_compatible(g, witness)
            assert sum((p.value for p in witness), Fraction(0)) == result.value
            assert result.stats.path_count == len(enumerate_emergy_paths(g, arc))

    @pytest.mark.parametrize("shape", [
        sources_share_a_node,
        coproduct_branches_meet_in_a_cycle,
        head_on_path,
        source_feeds_a_tail,
    ], ids=["sources-share-a-node", "coproduct-branches-meet-in-a-cycle",
            "head-on-path", "source-feeds-a-tail"])
    def test_drawn_graphs_have_shape(self, shape):
        """The strategy draws the shapes the generator families never make."""
        find(emergy_graphs(), shape,
             settings=settings(max_examples=500, database=None, phases=[Phase.generate]))

    def test_witness_streams_lazily(self):
        g, arc = diamond_chain(40)
        result = solve_general(g, arc)
        assert result.stats.witness_count == 2 ** 40
        first = next(result.witness_paths())
        assert first.nodes[:4] == (1, 2, 3, 5)
        assert first.value == Fraction(1, 2 ** 40)

    def test_witness_expansion_streams(self):
        """The expansion keeps runs, never paths: streaming 2^16 paths of a
        2^40-path witness holds what one path and the 40 splits' runs take,
        where a table of those paths would take tens of MB."""
        g, arc = diamond_chain(40)
        paths = solve_general(g, arc).witness_paths()
        tracemalloc.start()
        try:
            for _ in islice(paths, 2 ** 16):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_listing_streams_on_acyclic_graphs(self):
        """On an acyclic graph the listing's search holds one entry per
        node, never the paths: streaming 2^16 of a diamond chain's 2^40
        paths holds what one path and the 40 splits' runs take."""
        g, arc = diamond_chain(40)
        tracemalloc.start()
        try:
            for _ in islice(iter_emergy_paths(g, arc), 2 ** 16):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_split_only_chain_witness_is_its_listing(self):
        """Every path of a diamond chain coexists, so its witness is the
        arc's whole listing, values included; the backtracking listing of
        the tests checks the runs up to 4,096 paths, through entries above
        and below the most paths the expansion splices (`_SMALL`, 64), and
        the package's listing, which expands the same way."""
        for layers in range(1, 13):
            g, arc = diamond_chain(layers)
            expected = tuple(listed_emergy_paths(g, arc))
            assert tuple(solve_general(g, arc).witness_paths()) == expected
            assert tuple(iter_emergy_paths(g, arc)) == expected


class TestBeyondTheOracles:
    """Checks that need no oracle, so they also run where brute force and
    the trie oracle cannot."""

    def check_scaling(self, g):
        """An emergy path of arc (t, h) is a path to t followed by h, so for
        heads h and h' of one tail: value(t, h) w(t, h') = value(t, h')
        w(t, h), the stats are equal and the witnesses agree up to the last
        node and that weight."""
        heads = {}
        for tail, head in sorted(g.arcs):
            heads.setdefault(tail, []).append(head)
        for tail, (first, *rest) in heads.items():
            base, w = solve_general(g, (tail, first)), g.arcs[tail, first]
            for head in rest:
                result, v = solve_general(g, (tail, head)), g.arcs[tail, head]
                assert result.value * w == base.value * v
                assert result.stats == base.stats
                for p, q in zip(result.witness_paths(), base.witness_paths(), strict=True):
                    assert p.nodes[:-1] == q.nodes[:-1]
                    assert p.value * w == q.value * v

    @given(emergy_graphs())
    @settings(max_examples=60, deadline=None)
    def test_scaling_on_drawn_graphs(self, g):
        self.check_scaling(g)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_scaling_on_every_generator_family(self, seed):
        for g in family_instances(seed):
            self.check_scaling(g)

    @pytest.mark.parametrize("make", [
        cyclic_core_graphs, lambda: [diamond_chain_into_cycle(12)[0]]],
        ids=["cyclic-core-shape", "diamond-chain-into-cycle"])
    def test_scaling_beyond_the_oracles(self, make):
        for g in make():
            self.check_scaling(g)

    def test_witness_certificate_beyond_the_oracles(self):
        instances = [diamond_chain(14)]
        reduction = build_reduction(random_digraph(9, 0.6, 1))
        instances.append((reduction.graph, reduction.target_arc))
        instances += [(g, arc) for g in cyclic_core_graphs() for arc in sorted(g.arcs)]
        for g, arc in instances:
            check_witness(g, arc, solve_general(g, arc))

    def test_witness_certificate_at_dag_scale(self):
        """The largest witness of `random_dag(50, 0.5, seed)`, seeds 0-9:
        37,337 paths through entries shared between branches and sources and
        through co-products, where the expansion reuses runs."""
        total = 0
        for seed in range(10):
            g = random_dag(50, 0.5, seed)
            results = {arc: solve_general(g, arc) for arc in sorted(g.arcs)}
            arc = max(results, key=lambda a: results[a].stats.witness_count)  # ties low
            check_witness(g, arc, results[arc])
            total += results[arc].stats.witness_count
        assert total == 37_337

    # Metamorphic relations: a change of the input whose effect on every
    # answer is known in advance (Chen, Cheung and Yiu 1998). Each check
    # takes `before`, the solves of g it compares against, by arc.

    def check_relabel(self, g, before, orders):
        """Renaming the node ids by a permutation (sorted ids to each of
        `orders`) moves no value and no path count. The witness may move:
        co-product ties go to the smallest id."""
        for order in orders:
            to = dict(zip(sorted(g.kind), order))
            h = EmergyGraph({to[v]: k for v, k in g.kind.items()},
                            {to[s]: e for s, e in g.source_emergy.items()},
                            {(to[a], to[b]): w for (a, b), w in g.arcs.items()})
            for (a, b), old in before.items():
                new = solve_general(h, (to[a], to[b]))
                assert (new.value, new.stats.path_count) == \
                    (old.value, old.stats.path_count), ((a, b), order)

    def check_subdivide(self, g, before, arc):
        """Arc (a, b) of weight w becomes a -> x -> b through a new split x
        (weights w and 1). Every other arc keeps its value and path count,
        and its witness count unless a is a co-product: x takes the largest
        id, so a tie at a may go the other way. Arcs (a, x) and (x, b) each
        answer as (a, b) did."""
        (a, b), x = arc, max(g.kind) + 1
        arcs = dict(g.arcs)
        arcs[a, x], arcs[x, b] = arcs.pop(arc), Fraction(1)
        h = EmergyGraph({**g.kind, x: NodeKind.SPLIT}, g.source_emergy, arcs)
        assert validate_graph(h) == []
        ties_may_move = g.kind[a] is NodeKind.COPRODUCT
        for other, old in before.items():
            if other == arc:
                for new in (solve_general(h, (a, x)), solve_general(h, (x, b))):
                    assert (new.value, new.stats[:2]) == (old.value, old.stats[:2]), arc
                continue
            new = solve_general(h, other)
            assert (new.value, new.stats.path_count) == \
                (old.value, old.stats.path_count), (arc, other)
            if not ties_may_move:
                assert new.stats.witness_count == old.stats.witness_count, (arc, other)

    def check_source_split(self, g, before, s):
        """Source s of emergy e keeps e/3 and a new source t, feeding s's
        successor v, takes 2e/3. Every arc keeps its value but those out of
        s and t, whose values sum to the old value of (s, v)."""
        (v,) = [b for a, b in g.arcs if a == s]
        t, e = max(g.kind) + 1, g.source_emergy[s]
        h = EmergyGraph({**g.kind, t: NodeKind.SOURCE},
                        {**g.source_emergy, s: e / 3, t: 2 * e / 3},
                        {**g.arcs, (t, v): g.arcs[s, v]})
        assert validate_graph(h) == []
        for arc, old in before.items():
            new = solve_general(h, arc).value
            if arc == (s, v):
                new += solve_general(h, (t, v)).value
            assert new == old.value, (s, arc)

    @staticmethod
    def solved(g, arcs=None):
        """The solve of each of `arcs` (default: every arc of g), by arc."""
        return {arc: solve_general(g, arc) for arc in (sorted(g.arcs) if arcs is None else arcs)}

    @staticmethod
    def shuffled(g, seed):
        """Two permutations of g's node ids, picked by `seed`."""
        ids, rng = sorted(g.kind), random.Random(seed)
        return [rng.sample(ids, len(ids)) for _ in range(2)]

    def check_relations(self, g, seed):
        """Two relabelings, one subdivided arc and one split source, picked
        by `seed`, on every arc."""
        before, rng = self.solved(g), random.Random(seed)
        self.check_relabel(g, before, self.shuffled(g, seed))
        self.check_subdivide(g, before, rng.choice(sorted(g.arcs)))
        self.check_source_split(g, before, rng.choice(g.sources))

    @given(emergy_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_relations_on_drawn_graphs(self, g, data):
        before, ids = self.solved(g), sorted(g.kind)
        self.check_relabel(g, before, [data.draw(st.permutations(ids)) for _ in range(2)])
        self.check_subdivide(g, before, data.draw(st.sampled_from(sorted(g.arcs))))
        self.check_source_split(g, before, data.draw(st.sampled_from(g.sources)))

    def test_relations_on_every_generator_family(self):
        for seed in range(30):
            for g in family_instances(seed):
                self.check_relations(g, seed)

    def test_relations_beyond_the_oracles(self):
        for seed, g in enumerate(cyclic_core_graphs()):
            self.check_relations(g, seed)
        for seed in range(3):
            g = random_dag(50, 0.5, seed)
            self.check_relabel(g, self.solved(g), self.shuffled(g, seed))

    def test_relabel_on_reductions(self):
        """Every arc of the reductions of `random_digraph(8-10, 0.6, seed)`,
        but at 10 vertices, where every arc takes seconds, the target arc."""
        for seed in range(2):
            for n in (8, 9, 10):
                reduction = build_reduction(random_digraph(n, 0.6, seed))
                g = reduction.graph
                before = self.solved(g, None if n < 10 else [reduction.target_arc])
                self.check_relabel(g, before, self.shuffled(g, seed))


def dead_region_graph(k: int) -> tuple[EmergyGraph, tuple[int, int]]:
    """Source 1 feeds split 2, which feeds split 3 and split 4, the query
    arc's tail, with weight 1/2 each; 3 feeds 4 and split 5 alike. Splits 5
    to k + 4 feed each other, and each feeds 2 (odd ids) or 3 (even ids)
    back, with weight 1/k each; 4 feeds output k + 5. The arc's paths are
    1,2,4 and 1,2,3,4, so its value is 3/4, and under the prefix 1,2,3 the
    region is dead. Every way on from the region leaves through 2 or
    through 3, so no node of it post-dominates another."""
    region = range(5, k + 5)
    out = k + 5
    kinds = {1: NodeKind.SOURCE, out: NodeKind.OUTPUT,
             **{v: NodeKind.SPLIT for v in (2, 3, 4, *region)}}
    half, share = Fraction(1, 2), Fraction(1, k)
    arcs = {(1, 2): Fraction(1), (2, 3): half, (2, 4): half, (3, 4): half, (3, 5): half,
            (4, out): Fraction(1)}
    for v in region:
        arcs[v, 2 if v % 2 else 3] = share
        arcs.update({(v, w): share for w in region if w != v})
    return EmergyGraph(kinds, {1: Fraction(1)}, arcs), (4, out)


def post_dominators(g: EmergyGraph, tail: int, w: int) -> set[int]:
    """The nodes d != w of w's strongly connected component, among the nodes
    that reach `tail` with the tail's own arcs cut, that every way from w to
    the tail passes through: a search back from the tail without d does not
    find w."""
    succ = {v: () if v == tail else out for v, out in successors(g).items()}

    def reaching(without: int | None) -> set[int]:
        seen, todo = {tail}, [tail]
        while todo:
            x = todo.pop()
            for v in succ:
                if x in succ[v] and v not in seen and v != without:
                    seen.add(v)
                    todo.append(v)
        return seen

    live = reaching(None)
    below = descendants({v: tuple(x for x in succ[v] if x in live) for v in live}, w)
    comp = {v for v in below if w in descendants(succ, v)}
    return {d for d in comp - {w} if w not in reaching(d)}


class TestTailRules:
    """The two rules the search reads from the tail's table (`tail_table`):
    skip a successor whose post-dominator is closed, and share entries
    inside dense components."""

    def check_post_dominators(self, g: EmergyGraph):
        for tail in sorted({t for t, _ in g.arcs}):
            search = TailSearch(g, tail)
            if search.ipdom is None:
                assert g.acyclic or len(set(search.comp)) == len(search.comp)
                continue
            for v, d in enumerate(search.ipdom):
                if search.comp.count(search.comp[v]) < 2:
                    assert d == g.index[tail]
                    continue
                node, near = g.nodes[v], g.nodes[d]
                found = post_dominators(g, tail, node)
                if not found:
                    assert near == tail
                else:
                    assert near in found and found - {near} <= post_dominators(g, tail, near)

    @given(emergy_graphs())
    @settings(max_examples=40, deadline=None)
    def test_post_dominators_on_drawn_graphs(self, g):
        self.check_post_dominators(g)

    def test_post_dominators_on_cyclic_graphs(self):
        graphs = cyclic_core_graphs()[:4] + [dead_region_graph(4)[0], load_textbook()]
        graphs += [g for seed in range(12) for g in family_instances(seed) if not g.acyclic]
        for g in graphs:
            self.check_post_dominators(g)

    def test_post_dominators_of_a_long_two_way_ring(self):
        """Co-products 2 to 2,001 in a ring with arcs both ways, fed by
        source 1: every way on from a node leaves through either neighbour
        of the tail, so none has a post-dominator. An iterative dominator
        algorithm takes a pass per node here."""
        n = 2001
        kinds = {1: NodeKind.SOURCE, **{v: NodeKind.COPRODUCT for v in range(2, n + 1)}}
        arcs = {(1, 2): Fraction(1)}
        for v in range(2, n + 1):
            arcs[v, v + 1 if v < n else 2] = arcs[v, v - 1 if v > 2 else n] = Fraction(1, 2)
        g = EmergyGraph(kinds, {1: Fraction(1)}, arcs)
        tail = 1000
        search = TailSearch(g, tail)
        assert len(set(search.comp)) == 3
        assert search.ipdom == [g.index[tail]] * len(g.nodes)
        result = solve_general(g, (tail, tail + 1))
        assert (result.stats.path_count, result.stats.witness_count) == (2, 1)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_dead_marks_close_a_region_without_a_post_dominator(self, k):
        """The dead marks, not the post-dominators, keep the region to one
        frame per node: without them the search would enter every simple
        path through it."""
        g, arc = dead_region_graph(k)
        assert validate_graph(g) == []
        search = TailSearch(g, arc[0])
        assert all(search.ipdom[g.index[v]] == g.index[arc[0]] for v in range(5, k + 5))
        result = solve_general(g, arc)
        value, witness, path_count = trie_solve(g, arc)
        assert (result.value, result.witness.paths) == (value, witness)
        assert (value, path_count) == (Fraction(3, 4), 2)
        assert result.stats.tree_nodes <= k + 5

    def test_dead_marks_close_a_large_region(self):
        k = 60
        g, arc = dead_region_graph(k)
        result = solve_general(g, arc)
        assert (result.value, result.stats.path_count) == (Fraction(3, 4), 2)
        assert result.stats.tree_nodes <= k + 5

    def test_dense_components_share_entries(self):
        """The reduction of a dense digraph: 96,625 simple paths; without
        the shared entries the search takes 101,547 frames."""
        d = random_digraph(12, 0.6, 1)
        inst = build_reduction(d)
        search = TailSearch(inst.graph, d.target)
        assert search.entry(inst.source)[2] == 96_625
        assert search.frame_count < 4_000 and search.shared
        assert count_simple_paths(d, "reduction") == count_simple_paths(d, "dfs")

    @pytest.mark.parametrize("make", [
        lambda: diamond_chain(12)[0], lambda: random_dag(30, 0.4, 0),
        lambda: EmergyGraph({1: NodeKind.SOURCE, **{v: NodeKind.SPLIT for v in range(2, 200)}},
                            {1: Fraction(1)},
                            {(1, 2): Fraction(1), (199, 2): Fraction(1, 2),
                             **{(v, v + 1): Fraction(1, 2) for v in range(2, 199)}})],
        ids=["diamond-chain", "random-dag", "cycle"])
    def test_tails_without_components_derive_nothing(self, make):
        """An acyclic graph, and a cycle whose tail tables cut it open."""
        g = make()
        for arc in sorted(g.arcs):
            solve_general(g, arc)
        assert set(g.tails) == {g.index[tail] for tail, _ in g.arcs}
        assert {(table.ipdom, table.bits) for table in g.tails.values()} == {(None, None)}


class TestPerGraphTables:
    """What depends on the graph alone is derived once per graph and shared
    by every arc query on it."""

    @pytest.mark.parametrize("make", [
        load_textbook, lambda: random_cyclic(12, 0.4, 3, 4),
        lambda: build_reduction(random_digraph(5, 0.6, 2)).graph,
        lambda: diamond_chain_into_cycle(6)[0]],
        ids=["textbook", "random-cyclic", "reduction", "diamond-chain-into-cycle"])
    def test_one_topological_order_per_graph(self, make, monkeypatch):
        """Construction makes the one structural pass (`components`) over
        the whole graph; solving every arc twice adds one per arc tail, one
        dominator pass per component of several nodes in each tail's table,
        and no topological order. A node that keeps every option shares the
        graph's list. The answers and stats are those of a freshly parsed
        graph."""
        calls, tables, dominated = [], [], []

        def counted(g):
            calls.append(g)
            return topological_order(g)

        def counted_components(options):
            tables.append(options)
            return components(options)

        def counted_dominators(out, root):
            dominated.append(root)
            return dominators(out, root)

        made = make()
        dominators = empower.solver._dominators
        monkeypatch.setattr(empower.graph, "topological_order", counted)
        monkeypatch.setattr(empower.graph, "components", counted_components)
        monkeypatch.setattr(empower.solver, "components", counted_components)
        monkeypatch.setattr(empower.solver, "_dominators", counted_dominators)
        g = EmergyGraph(made.kind, made.source_emergy, made.arcs)
        assert len(tables) == 1 and tables[0] is g.options
        arcs = sorted(g.arcs)
        shared = [solve_general(g, arc) for arc in arcs]
        first = len(dominated)
        shared += [solve_general(g, arc) for arc in arcs]
        assert calls == []
        multi = sum(sum(table.comp.count(c) > 1 for c in set(table.comp))
                    for table in g.tails.values())
        assert first == len(dominated) == multi
        tails = {g.index[tail] for tail, _ in arcs}
        assert len(tables) == 1 + len(tails) and set(g.tails) == tails
        for table in g.tails.values():
            for mine, whole in zip(table.options, g.options):
                assert mine is whole or len(mine) < len(whole)
        text = serialize_graph(g)
        for arc, result in zip(arcs * 2, shared):
            fresh = solve_general(parse_graph(text), arc)
            assert result.value == fresh.value
            assert result.witness.paths == fresh.witness.paths
            assert result.stats == fresh.stats

    def test_equal_path_values_share_one_fraction(self):
        g, arc = diamond_chain(6, Fraction(7, 3))
        paths = solve_general(g, arc).witness.paths
        assert len(paths) == 2 ** 6
        assert paths[0].value == Fraction(7, 3) / 2 ** 6
        assert all(p.value is paths[0].value for p in paths)

    def test_distinct_path_values_stay_exact(self):
        g = random_dag(10, 0.5, 2)
        distinct = 0
        for arc in sorted(g.arcs):
            paths = solve_general(g, arc).witness.paths
            for p in paths:
                assert p.value == path_value(g, p.nodes)
            if len(paths) > 1 and len({p.value for p in paths}) == len(paths):
                distinct += 1
        assert distinct


class TestBruteForce:
    def test_agrees_on_textbook(self, textbook):
        trie = solve_general(textbook, (4, 7))
        brute = brute_force_solve(textbook, (4, 7))
        assert brute.value == trie.value == 315
        assert brute.witness == trie.witness

    def test_cap_guard(self):
        g, arc = diamond_chain(5)
        with pytest.raises(ValueError, match="cap"):
            brute_force_solve(g, arc)
        assert brute_force_solve(g, arc, cap=32).value == 1

    def test_cap_is_checked_before_listing_paths(self, monkeypatch):
        monkeypatch.setattr("empower.compat.enumerate_emergy_paths", refuse_listing)
        g, arc = diamond_chain(16)
        with pytest.raises(ValueError, match="^65536 paths exceed the brute-force cap 20$"):
            brute_force_solve(g, arc)

    def test_edgeless_compatibility_keeps_the_best_path(self, textbook):
        from test_compat import single_source_coproduct_graph
        g = single_source_coproduct_graph()
        result = brute_force_solve(g, (5, 6))
        assert len(result.witness.paths) == 1
        assert result.value == Fraction(9)

    def test_empty_path_set(self):
        g = EmergyGraph(
            {1: NodeKind.SOURCE, 2: NodeKind.OUTPUT, 3: NodeKind.SPLIT, 4: NodeKind.OUTPUT},
            {1: Fraction(2)},
            {(1, 2): Fraction(1), (3, 4): Fraction(1)})
        result = brute_force_solve(g, (3, 4))
        assert result.value == 0 and result.witness.paths == ()

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_oracle_equivalence_random_instances(self, seed):
        if seed % 2:
            g = random_dag(5 + seed % 7, 0.5, seed)
        else:
            try:
                g = random_cyclic(6 + seed % 6, 0.5, 1 + seed % 2, seed)
            except ValueError:
                g = random_dag(6 + seed % 6, 0.5, seed)
        arc = arc_with_most_paths(g, max_paths=20)
        if arc is None:
            return
        trie = solve_general(g, arc)
        brute = brute_force_solve(g, arc)
        assert trie.value == brute.value
        assert trie.witness.value == brute.witness.value
        assert pairwise_compatible(g, trie.witness.paths)

    def test_witness_is_a_maximum_weight_clique(self, textbook):
        cg = build_compatibility_graph(textbook, (4, 7))
        witness = {p.nodes for p in solve_general(textbook, (4, 7)).witness.paths}
        # maximal: every excluded path conflicts with something chosen
        for p in cg.vertices:
            if p.nodes not in witness:
                assert any(not compatible(textbook, p.nodes, w) for w in witness)
        # maximum: no compatible subset weighs more (direct subset growth)
        best = best_compatible_value(textbook, [p.nodes for p in cg.vertices])
        assert best == 315

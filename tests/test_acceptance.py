"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
Every numeric claim is checked with exact rational arithmetic; the stated
time budgets are asserted with wall-clock measurements.
"""

from __future__ import annotations

import time
from fractions import Fraction

from empower.cli import main
from empower.compat import build_compatibility_graph, compatible
from empower.dag import solve_dag
from empower.generators import (
    random_cyclic,
    random_dag,
    random_digraph,
)
from empower.graph import EmergyGraph
from empower.hardness import (
    Digraph,
    build_reduction,
    decode_counts,
    dfs_counts,
    reduction_counts,
)
from empower.paths import enumerate_emergy_paths
from empower.solver import brute_force_solve, solve_general
from helpers import (
    arc_with_most_paths,
    best_compatible_value,
    is_p4_free,
    random_no_split_graph,
    reachability_to_target,
    rooted_simple_paths,
    search_value_table,
)

PAPER_ORDER = [
    (1, 2, 4, 7),
    (1, 2, 3, 7, 8, 6, 4, 7),
    (1, 2, 3, 7, 8, 9, 4, 7),
    (1, 2, 3, 7, 8, 9, 10, 6, 4, 7),
    (5, 6, 4, 7),
    (5, 6, 3, 7, 8, 9, 4, 7),
]
PAPER_VALUES = [Fraction(70), Fraction(45, 4), Fraction(15), Fraction(45, 8),
                Fraction(375, 2), Fraction(125, 4)]


def report(tag: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} {tag}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def mixed_instance(seed: int, max_nodes: int, density: float = 0.5) -> EmergyGraph:
    size = 4 + seed % (max_nodes - 3)
    if seed % 2 == 0:
        try:
            return random_cyclic(max(size, 6), density, 1 + seed % 3, seed)
        except ValueError:
            pass
    return random_dag(size, density, seed)


def test_criterion_01_path_inventory(textbook):
    started = time.perf_counter()
    paths = enumerate_emergy_paths(textbook, (4, 7))
    elapsed = time.perf_counter() - started
    ok = (sorted(p.nodes for p in paths) == sorted(PAPER_ORDER)
          and sum(p.source == 1 for p in paths) == 4
          and sum(p.source == 5 for p in paths) == 2
          and elapsed < 0.1)
    report("1 path inventory at arc 4,7", ok,
           f"6 paths (4 + 2) in {elapsed * 1000:.1f} ms")


def test_criterion_02_path_values(textbook):
    values = {p.nodes: p.value for p in enumerate_emergy_paths(textbook, (4, 7))}
    ok = all(values[nodes] == expected
             for nodes, expected in zip(PAPER_ORDER, PAPER_VALUES))
    report("2 path values", ok,
           "70, 45/4, 15, 45/8, 375/2, 125/4 all exact")


def test_criterion_03_compatibility_fixtures(textbook):
    ok = (compatible(textbook, (3, 7, 8, 6, 4), (3, 7, 8, 9, 10, 6, 4))
          and not compatible(textbook, (8, 9, 4, 7), (8, 9, 10, 6, 4, 7)))
    report("3 compatibility fixtures", ok,
           "split fork accepted, co-product fork rejected")


def test_criterion_04_textbook_optimum(textbook):
    brute = brute_force_solve(textbook, (4, 7))  # the oracle over all 2**6 subsets
    cotree = solve_general(textbook, (4, 7))
    witness = [p.nodes for p in cotree.witness.paths]
    ok = (brute.value == cotree.value == 315
          and brute.witness == cotree.witness
          and len(witness) == 5
          and (1, 2, 3, 7, 8, 6, 4, 7) in witness)
    report("4 optimum at arc 4,7", ok,
           "solve_general = brute_force = 315 with a 5-path witness; the "
           "published account of this example gives 1215/4 = 303.75 by also "
           "excluding the pair of cycle paths that part ways at split node 8, "
           "which the split-divergence rule accepts (difference 45/4)")


def test_criterion_05_cograph_property():
    started = time.perf_counter()
    checked = 0
    seed = 0
    largest = 0
    while checked < 200:
        seed += 1
        g = mixed_instance(6 + seed, max_nodes=10, density=0.85)
        arc = arc_with_most_paths(g, max_paths=200)
        if arc is None:
            continue
        cg = build_compatibility_graph(g, arc)
        largest = max(largest, len(cg.vertices))
        assert is_p4_free(cg)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 200 and elapsed < 60
    report("5 cograph property", ok,
           f"200 instances P4-free in {elapsed:.1f} s, "
           f"largest compatibility graph {largest} paths")


def test_criterion_06_solver_equivalence():
    started = time.perf_counter()
    brute_runs = 0
    biggest = 0
    for k in range(100):
        g = random_dag(4 + k % 9, 0.5 + 0.04 * (k % 10), 9_000 + k)
        arc = arc_with_most_paths(g)
        value = solve_dag(g, arc)
        assert value == solve_general(g, arc).value
        count = len(enumerate_emergy_paths(g, arc))
        biggest = max(biggest, count)
        if count <= 20:
            assert value == brute_force_solve(g, arc).value
            brute_runs += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30
    report("6 solver equivalence", ok,
           f"100 DAGs (up to {biggest} paths), dag = cotree everywhere, "
           f"brute agreed on {brute_runs} small ones, {elapsed:.1f} s")


def test_criterion_07_value_table_check():
    for k in range(20):
        g = random_dag(4 + k % 7, 0.5, 21_000 + k)
        arc = arc_with_most_paths(g)
        values = search_value_table(g, arc)
        for i in g.nodes:
            rooted = rooted_simple_paths(g, i, arc)
            assert values[i] == best_compatible_value(g, rooted)
    report("7 per-node value table", True,
           "the search's f(i) matches the rooted brute-force optimum on 20 DAGs")


def test_criterion_08_linear_time_dag_scaling(tmp_path, capsys):
    timings = {}
    for layers in (10, 20, 30):
        assert main(["gen", "--family", "diamond-chain", "--length", str(layers),
                     "--source-emergy", "7/3"]) == 0
        f = tmp_path / f"dc{layers}.eg"
        f.write_text(capsys.readouterr().out)
        arc = f"{3 * layers + 2},{3 * layers + 3}"
        started = time.perf_counter()
        assert main(["solve", str(f), "--arc", arc, "--method", "dag"]) == 0
        timings[layers] = time.perf_counter() - started
        assert "Em = 7/3" in capsys.readouterr().out
    ok = all(t < 1.0 for t in timings.values()) \
        and timings[30] <= 6 * (timings[10] + 0.05)
    with capsys.disabled():
        report("8 linear-time scaling", ok,
               "layers 10/20/30 (2**30 paths at the top) solved in "
               + "/".join(f"{timings[n] * 1000:.0f}ms" for n in (10, 20, 30)))


def test_criterion_09_counting_reduction():
    started = time.perf_counter()
    micro = Digraph(frozenset({1, 2}), frozenset({(1, 2)}), 1, 2)
    inst = build_reduction(micro)
    assert inst.bound == 4
    assert decode_counts(Fraction(1, 4), 4, 3).total == 1
    assert reduction_counts(micro).total == 1
    for k in range(100):
        d = random_digraph(2 + k % 5, 0.5, 33_000 + k)
        assert reduction_counts(d) == dfs_counts(d)
    elapsed = time.perf_counter() - started
    ok = elapsed < 60
    report("9 counting reduction", ok,
           f"micro instance plus 100 digraphs, per-length digits equal, "
           f"{elapsed:.1f} s")


def test_criterion_10_no_split_instances():
    for k in range(50):
        g = random_no_split_graph(4 + k % 7, 41_000 + k)
        for arc in sorted(g.arcs):
            reach = reachability_to_target(g, arc)
            expected = sum((g.source_emergy[s] for s in g.sources if s in reach),
                           Fraction(0))
            assert solve_general(g, arc).value == expected
    report("10 no-split instances", True,
           "50 instances, empower equals the sum of reaching source emergies")


def test_criterion_11_scaling_linearity():
    for k in range(50):
        g = mixed_instance(52_000 + k, max_nodes=10)
        arc = arc_with_most_paths(g, max_paths=60)
        if arc is None:
            continue
        base = solve_general(g, arc)
        for c in (Fraction(2), Fraction(1, 3)):
            scaled = EmergyGraph(
                dict(g.kind),
                {i: c * v for i, v in g.source_emergy.items()},
                dict(g.arcs))
            result = solve_general(scaled, arc)
            assert result.value == c * base.value
            assert [p.nodes for p in result.witness.paths] == \
                   [p.nodes for p in base.witness.paths]
    report("11 scaling linearity", True,
           "emergy scales by 2 and by 1/3 with unchanged witnesses on 50 instances")

#!/usr/bin/env python3
"""Walk through the path-counting pipeline on one random digraph.

Shows the wrapped emergy instance, the value at the target vertex (the
empower of the target arc divided by its exit weight, read as
`reduction_counts` reads it) and that empower, the decoded per-length
digits, and the direct enumeration they must match.
"""

from __future__ import annotations

import argparse

from empower.generators import random_digraph
from empower.graph import serialize_graph
from empower.hardness import build_reduction, decode_counts, dfs_counts
from empower.solver import solve_general


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=5)
    parser.add_argument("--arc-prob", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    d = random_digraph(args.vertices, args.arc_prob, args.seed)
    print(f"digraph: {len(d.vertices)} vertices, {len(d.arcs)} arcs, "
          f"start {d.start}, target {d.target}")
    inst = build_reduction(d)
    print(f"bound B = {inst.bound}")
    print("wrapped instance:")
    print("  " + serialize_graph(inst.graph).replace("\n", "\n  ").rstrip())
    result = solve_general(inst.graph, inst.target_arc)
    value = result.value / inst.graph.arcs[inst.target_arc]
    # one search frame per node entered from another strongly connected
    # component, one per path prefix entered inside a component
    print(f"value at the target = {value} ({result.stats.path_count} emergy paths, "
          f"{result.stats.tree_nodes} search frames)")
    print(f"Em(target arc) = value x exit weight = {result.value}")
    decoded = decode_counts(value, inst.bound, len(d.vertices) + 1)
    direct = dfs_counts(d)
    print(f"decoded digits : {dict(decoded.counts)}")
    print(f"direct digits  : {dict(direct.counts)}")
    status = "AGREE" if decoded == direct else "MISMATCH"
    print(f"simple paths: {decoded.total} ({status})")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Measure the memoized search against the path-count explosion.

Diamond chains double their emergy-path count per layer but stay acyclic,
so `solve_general` keeps one memo entry per node and its time grows
linearly with the layers. This prints the
solve time (value, path count and witness size, no witness expansion) next
to the path count, up to the 2^30-path chain, and checks the closed forms:
the value is the source emergy and every path is in the witness.
"""

from __future__ import annotations

import time
from fractions import Fraction

from empower.generators import diamond_chain
from empower.solver import solve_general


def main():
    theta = Fraction(7, 3)
    print(f"{'layers':>6} {'nodes':>6} {'paths':>12} {'memo':>6} {'solve [ms]':>11}")
    for layers in (2, 5, 10, 15, 20, 25, 30):
        g, arc = diamond_chain(layers, theta)
        started = time.perf_counter()
        result = solve_general(g, arc)
        elapsed = time.perf_counter() - started
        assert result.value == theta
        assert result.stats.path_count == result.stats.witness_count == 2 ** layers
        print(f"{layers:>6} {len(g.nodes):>6} {2 ** layers:>12} "
              f"{result.stats.tree_nodes:>6} {elapsed * 1000:>11.2f}")


if __name__ == "__main__":
    main()

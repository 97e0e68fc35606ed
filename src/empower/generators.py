"""Seeded instance generators for benchmarks and property tests.

Every family is deterministic for a fixed seed and emits instances that pass
`validate_graph`. Weights on splits are built by normalizing random positive
integers, so they stay exact rationals summing to one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from .graph import EmergyGraph, NodeKind

if TYPE_CHECKING:
    from .hardness import Digraph


def diamond_chain(layers: int, source_emergy: Fraction | int = 1) -> tuple[EmergyGraph, tuple[int, int]]:
    """A source feeding `layers` stacked two-way diamonds, then one output.

    Each diamond halves the flow and re-merges it, so the number of emergy
    paths to the final arc is 2**layers while the empower there is exactly
    the source emergy. Returns the graph and that final arc.
    """
    if layers < 0:
        raise ValueError("layers must be nonnegative")
    kinds = {1: NodeKind.SOURCE, 2: NodeKind.SPLIT}
    arcs: dict[tuple[int, int], Fraction] = {(1, 2): Fraction(1)}
    entry = 2
    for k in range(layers):
        left, right, merge = 3 * k + 3, 3 * k + 4, 3 * k + 5
        kinds[left] = kinds[right] = kinds[merge] = NodeKind.SPLIT
        arcs[(entry, left)] = Fraction(1, 2)
        arcs[(entry, right)] = Fraction(1, 2)
        arcs[(left, merge)] = Fraction(1)
        arcs[(right, merge)] = Fraction(1)
        entry = merge
    out = entry + 1
    kinds[out] = NodeKind.OUTPUT
    arcs[(entry, out)] = Fraction(1)
    g = EmergyGraph(kinds, {1: Fraction(source_emergy)}, arcs)
    return g, (entry, out)


def _check_probability(name: str, p: float) -> None:
    # out of range, a probability would act as 0 or 1; NaN fails both comparisons
    if not 0 <= p <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")


def _split_weights(rng: random.Random, successors: list[int]) -> dict[int, Fraction]:
    raw = [rng.randint(1, 9) for _ in successors]
    total = sum(raw)
    return {j: Fraction(r, total) for j, r in zip(successors, raw)}


def _assemble(rng: random.Random,
              sources: list[int], inner: list[int], outs: list[int],
              succ: dict[int, list[int]]) -> EmergyGraph:
    """Assign kinds and weights once the successor sets are final."""
    kinds: dict[int, NodeKind] = {}
    emergy: dict[int, Fraction] = {}
    arcs: dict[tuple[int, int], Fraction] = {}
    for s in sources:
        kinds[s] = NodeKind.SOURCE
        emergy[s] = Fraction(rng.randint(1, 60), rng.randint(1, 5))
        arcs[(s, succ[s][0])] = Fraction(1)
    for o in outs:
        kinds[o] = NodeKind.OUTPUT
    for i in inner:
        targets = sorted(succ[i])
        if len(targets) >= 2 and rng.random() < 0.4:
            kinds[i] = NodeKind.COPRODUCT
            for j in targets:
                arcs[(i, j)] = Fraction(1)
        else:
            kinds[i] = NodeKind.SPLIT
            arcs.update({(i, j): w for j, w in _split_weights(rng, targets).items()})
    return EmergyGraph(kinds, emergy, arcs)


def _forward_layout(rng: random.Random, nodes: int, arc_density: float):
    """Pick source/inner/output id ranges and forward successor sets."""
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    _check_probability("arc density", arc_density)
    n_src = 1 if nodes < 5 else rng.randint(1, 2)
    n_out = 1 if nodes < 4 else 2
    sources = list(range(1, n_src + 1))
    outs = list(range(nodes - n_out + 1, nodes + 1))
    inner = list(range(n_src + 1, nodes - n_out + 1))
    succ: dict[int, list[int]] = {}
    for s in sources:
        succ[s] = [rng.choice(inner) if inner else rng.choice(outs)]
    for i in inner:
        later = [j for j in inner if j > i] + outs
        chosen = [j for j in later if rng.random() < arc_density]
        if not chosen:
            chosen = [rng.choice(later)]
        succ[i] = chosen
    return sources, inner, outs, succ


def random_dag(nodes: int, arc_density: float, seed: int) -> EmergyGraph:
    """A valid acyclic instance; arcs only run toward higher ids."""
    rng = random.Random(seed)
    sources, inner, outs, succ = _forward_layout(rng, nodes, arc_density)
    return _assemble(rng, sources, inner, outs, succ)


def random_cyclic(nodes: int, arc_density: float, back_arcs: int, seed: int) -> EmergyGraph:
    """A valid instance with at least one backward arc among the inner nodes.

    Back arcs that close a directed cycle are preferred when any forward path
    supports one. Needs enough nodes for two inner nodes to exist.
    """
    if back_arcs < 1:
        raise ValueError("need at least one back arc")
    rng = random.Random(seed)
    sources, inner, outs, succ = _forward_layout(rng, nodes, arc_density)
    if len(inner) < 2:
        raise ValueError("too few nodes for a cyclic instance")
    # every arc so far points forward, so no back arc is an arc already
    candidates = [(j, i) for i in inner for j in inner if i < j]
    if not candidates:
        raise ValueError("no room for a back arc")
    below = [0] * (nodes + 1)  # bit v of below[u]: u reaches v, or u == v
    for u in range(nodes, 0, -1):  # successors have higher ids
        reach = 1 << u
        for v in succ.get(u, ()):
            reach |= below[v]
        below[u] = reach

    cycle_closing = [(j, i) for j, i in candidates if below[i] >> j & 1]
    pool = cycle_closing if cycle_closing else candidates
    rng.shuffle(pool)
    for j, i in pool[:back_arcs]:
        succ[j].append(i)
    return _assemble(rng, sources, inner, outs, succ)


def random_digraph(vertices: int, arc_prob: float, seed: int) -> Digraph:
    """A counting instance: start 1, target `vertices`, each arc kept with `arc_prob`."""
    from .hardness import Digraph

    if vertices < 2:
        raise ValueError("need at least 2 vertices")
    _check_probability("arc probability", arc_prob)
    rng = random.Random(seed)
    arcs = {(a, b)
            for a in range(1, vertices + 1)
            for b in range(1, vertices + 1)
            if a != b and rng.random() < arc_prob}
    return Digraph(frozenset(range(1, vertices + 1)), frozenset(arcs), 1, vertices)

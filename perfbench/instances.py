"""Seeded instance families for the benchmark.

The families follow the package's generators (diamond chains, random DAGs
with co-products, random cyclic instances, random digraphs) but live here,
so a change to the package cannot change what the benchmark feeds it. Each
function takes a `random.Random`, so one `--seed` fixes every input.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import COPRODUCT, OUTPUT, SOURCE, SPLIT, Digraph, Instance


def _forward(rng: random.Random, nodes: int, sources: int, density: float):
    """Source, inner and output ids, with arcs that only run forward."""
    src = list(range(1, sources + 1))
    outs = [nodes - 1, nodes]
    inner = list(range(sources + 1, nodes - 1))
    succ = {s: [rng.choice(inner[:3])] for s in src}
    for i in inner:
        later = [j for j in inner if j > i] + outs
        chosen = [j for j in later if rng.random() < density]
        succ[i] = chosen or [rng.choice(later)]
    return src, inner, outs, succ


def _assemble(rng: random.Random, src, inner, outs, succ) -> Instance:
    """Give kinds and exact weights once the successor sets are final."""
    kind, emergy, arcs = {}, {}, {}
    for s in src:
        kind[s] = SOURCE
        emergy[s] = Fraction(rng.randint(1, 60), rng.randint(1, 5))
        arcs[(s, succ[s][0])] = Fraction(1)
    for o in outs:
        kind[o] = OUTPUT
    for i in inner:
        targets = sorted(succ[i])
        if len(targets) >= 2 and rng.random() < 0.4:
            kind[i] = COPRODUCT
            arcs.update({(i, j): Fraction(1) for j in targets})
        else:
            kind[i] = SPLIT
            raw = [rng.randint(1, 9) for _ in targets]
            arcs.update({(i, j): Fraction(r, sum(raw)) for j, r in zip(targets, raw)})
    return Instance(kind, emergy, arcs)


def random_dag(rng: random.Random, nodes: int, density: float) -> Instance:
    """Two sources and acyclic arcs toward higher ids; about 40% co-products."""
    return _assemble(rng, *_forward(rng, nodes, 2, density))


def random_cyclic(rng: random.Random, nodes: int, density: float, back_arcs: int) -> Instance:
    """`random_dag`'s layout plus `back_arcs` arcs that each close a cycle."""
    src, inner, outs, succ = _forward(rng, nodes, 2, density)

    def reaches(a: int, b: int) -> bool:
        frontier, seen = [a], {a}
        while frontier:
            u = frontier.pop()
            if u == b:
                return True
            for v in succ.get(u, []):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return False

    closing = [(j, i) for i in inner for j in inner
               if i < j and i not in succ[j] and reaches(i, j)]
    rng.shuffle(closing)
    for j, i in closing[:back_arcs]:
        succ[j].append(i)
    return _assemble(rng, src, inner, outs, succ)


def random_digraph(rng: random.Random, vertices: int, prob: float) -> Digraph:
    """Start 1, target `vertices`, each ordered pair an arc with `prob`."""
    arcs = frozenset((a, b) for a in range(1, vertices + 1)
                     for b in range(1, vertices + 1) if a != b and rng.random() < prob)
    return Digraph(vertices, arcs, 1, vertices)


def chain(length: int, emergy: Fraction) -> tuple[Instance, tuple[int, int]]:
    """A source, `length - 2` splits in a line, and an output: one path."""
    kind = {1: SOURCE, length: OUTPUT}
    kind.update({i: SPLIT for i in range(2, length)})
    arcs = {(i, i + 1): Fraction(1) for i in range(1, length)}
    return Instance(kind, {1: Fraction(emergy)}, arcs), (length - 1, length)

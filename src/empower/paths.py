"""Emergy path enumeration and the path value function.

An emergy path for a query arc (l, l') starts at a source, ends with the arc
itself, and is simple except that the final node l' may coincide with one
earlier node (that is how a path may close a cycle exactly once).

`path_value` prices any node sequence: `None` (no path) is worth 0, a
path of no arcs is worth 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graph import EmergyGraph, NodeKind, require_arc


@dataclass(frozen=True, order=True)
class EmergyPath:
    """A node sequence with its value cached at enumeration time."""

    nodes: tuple[int, ...]
    value: Fraction

    @property
    def source(self) -> int:
        return self.nodes[0]

    @property
    def arc_count(self) -> int:
        return len(self.nodes) - 1

    def __str__(self) -> str:
        return ",".join(str(n) for n in self.nodes)


def path_value(g: EmergyGraph, path: Sequence[int] | None) -> Fraction:
    """Value of a path: 0 for no path, 1 for a zero-arc path, otherwise the
    product of its arc weights, scaled by the source emergy when the path
    starts at a source."""
    if path is None:
        return Fraction(0)
    path = tuple(path)
    if len(path) <= 1:
        return Fraction(1)
    value = Fraction(1)
    for tail, head in zip(path, path[1:]):
        try:
            value *= g.arcs[(tail, head)]
        except KeyError:
            raise ValueError(f"({tail}, {head}) is not an arc") from None
    if g.kind.get(path[0]) is NodeKind.SOURCE:
        value *= g.source_emergy[path[0]]
    return value


def enumerate_emergy_paths(g: EmergyGraph, arc: tuple[int, int]) -> list[EmergyPath]:
    """All emergy paths ending with `arc`, sorted lexicographically.

    Runs an iterative backtracking search from each source in ascending id
    order, expanding successors ascending, so the output order is the
    lexicographic order of the node sequences. A branch completes exactly
    when it reaches the arc tail; the head is then appended without a visited
    check, which is the one permitted repetition. Path values are carried as
    an integer numerator and denominator and become one `Fraction` per path.

    This is the plain enumeration the compatibility graph and the
    brute-force oracle are built on; `solve_general` never materialises
    the paths. Assumes a valid graph (sources have no predecessors, so
    interior nodes are never sources). Returns an empty list when no source
    reaches the arc.
    """
    tail, head = require_arc(g, arc)
    arc_weight = g.arcs[(tail, head)]
    last_num, last_den = arc_weight.numerator, arc_weight.denominator
    results: list[EmergyPath] = []
    for s in g.sources:
        emergy = g.source_emergy[s]
        if s == tail:
            results.append(EmergyPath((s, head), emergy * arc_weight))
            continue
        path = [s]
        seen = {s}
        frames = [(iter(g.successors(s)), emergy.numerator, emergy.denominator)]
        while frames:
            successors, num, den = frames[-1]
            nxt = next(successors, None)
            if nxt is None:
                frames.pop()
                seen.discard(path.pop())
                continue
            if nxt in seen:
                continue
            weight = g.arcs[(path[-1], nxt)]
            step_num, step_den = num * weight.numerator, den * weight.denominator
            if nxt == tail:
                value = Fraction(step_num * last_num, step_den * last_den)
                results.append(EmergyPath((*path, tail, head), value))
                continue
            path.append(nxt)
            seen.add(nxt)
            frames.append((iter(g.successors(nxt)), step_num, step_den))
    return results

"""Emergy path enumeration.

An emergy path for a query arc (l, l') starts at a source, ends with the arc
itself, and is simple except that the final node l' may coincide with one
earlier node (that is how a path may close a cycle exactly once). Its value
is the product of its arc weights times the emergy of its source.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from .graph import EmergyGraph, require_arc


class EmergyPath(NamedTuple):
    """A node sequence with its value cached at enumeration time; paths
    order by their node sequences, then by value."""

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


def enumerate_emergy_paths(g: EmergyGraph, arc: tuple[int, int]) -> list[EmergyPath]:
    """All emergy paths ending with `arc`, sorted lexicographically.

    This is the plain enumeration the compatibility graph and the
    brute-force oracle are built on; `solve_general` never materialises
    the paths. Returns an empty list when no source reaches the arc.
    """
    return list(iter_emergy_paths(g, arc))


def iter_emergy_paths(g: EmergyGraph, arc: tuple[int, int]) -> Iterator[EmergyPath]:
    """The emergy paths ending with `arc`, yielded one at a time in
    lexicographic order, so a listing holds one path at a time.

    Runs an iterative backtracking search from each source in ascending id
    order, expanding successors ascending, so the output order is the
    lexicographic order of the node sequences. A branch completes exactly
    when it reaches the arc tail; the head is then appended without a visited
    check, which is the one permitted repetition. Path values are carried as
    an integer numerator and denominator and become one `Fraction` per path.
    Assumes a valid graph (sources have no predecessors, so interior nodes
    are never sources). An unknown arc raises on the first `next`.
    """
    tail, head = require_arc(g, arc)
    arc_weight = g.arcs[(tail, head)]
    last_num, last_den = arc_weight.numerator, arc_weight.denominator
    for s in g.sources:
        emergy = g.source_emergy[s]
        if s == tail:
            yield EmergyPath((s, head), emergy * arc_weight)
            continue
        path = [s]
        seen = {s}
        frames = [(iter(g.succ[s]), emergy.numerator, emergy.denominator)]
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
                yield EmergyPath((*path, tail, head), value)
                continue
            path.append(nxt)
            seen.add(nxt)
            frames.append((iter(g.succ[nxt]), step_num, step_den))

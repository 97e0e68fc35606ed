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

    It backtracks from each source, ascending, over the table the path
    search walks toward the arc tail (`EmergyGraph.tail_table`), whose
    options ascend by id; so it never enters a node that cannot reach the
    tail, and on an acyclic graph its work follows its output. A branch
    completes on entering the tail, which has no options there, and the
    head is appended without an on-path check: the one permitted
    repetition. Values are integer pairs until one `Fraction` per path.
    Assumes a valid graph (interior nodes are never sources). An unknown
    arc raises on the first `next`.
    """
    tail, head = require_arc(g, arc)
    w_num, w_den = g.arcs[tail, head].as_integer_ratio()
    t = g.index[tail]
    options, _ = g.tail_table(t)
    ids = g.nodes
    on_path = [False] * len(ids)
    for s in g.sources:
        num, den = g.source_emergy[s].as_integer_ratio()
        v = g.index[s]
        # a frame is (node index, its options not yet tried, the path's value)
        path, frames = [s], [(v, iter(options[v]), num, den)]
        on_path[v] = True
        while frames:
            v, untried, num, den = frames[-1]
            if v == t:
                yield EmergyPath((*path, head), Fraction(num * w_num, den * w_den))
            for w, step_num, step_den in untried:
                if not on_path[w]:
                    on_path[w] = True
                    path.append(ids[w])
                    frames.append((w, iter(options[w]), num * step_num, den * step_den))
                    break
            else:
                frames.pop()
                on_path[v] = False
                path.pop()

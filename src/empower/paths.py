"""Emergy path enumeration.

An emergy path for a query arc (l, l') starts at a source, ends with the arc
itself, and is simple except that the final node l' may coincide with one
earlier node (that is how a path may close a cycle exactly once). Its value
is the product of its arc weights times the emergy of its source.

The listing is the solver's path search toward the arc tail, expanded with
every branch kept, a co-product's too. So it enters only nodes that can
reach the tail and closes dead nodes as the search does. It holds the
search's entries: one per node on an acyclic graph, where the paths stream
(`empower paths` peaks near 15 MB on the 262,144 paths of an 18-layer
diamond chain), and on a graph with a cycle each source's tree of live
prefixes, which on a split-only graph is the tree `solve --state` keeps.
In a dense component the tree shares an entry between the prefixes that
hold the same nodes of the component, so on the 751,690 paths of the
split-only reduction of `random_digraph(13, 0.6, 1)` it peaks at 17 MB.

A listed path is an `EmergyPath`, defined in `empower.solver` next to the
expansion that builds every one and imported here, so this module depends
on the solver and the solver not on it.
"""

from __future__ import annotations

from typing import Iterator

from .graph import EmergyGraph, require_arc
from .solver import EmergyPath, ListingSearch


def enumerate_emergy_paths(g: EmergyGraph, arc: tuple[int, int]) -> list[EmergyPath]:
    """All emergy paths ending with `arc`, sorted lexicographically.

    This is the plain enumeration the compatibility graph and the
    brute-force oracle are built on; `solve_general` never materialises
    the paths. Returns an empty list when no source reaches the arc.
    """
    return list(iter_emergy_paths(g, arc))


def iter_emergy_paths(g: EmergyGraph, arc: tuple[int, int]) -> Iterator[EmergyPath]:
    """The emergy paths ending with `arc`, yielded one at a time in
    lexicographic order.

    It runs the path search toward the arc tail and expands each source's
    entry, ascending, as `solve_general` does, but the search keeps every
    live branch (`solver.ListingSearch`). Assumes a valid graph (interior
    nodes are never sources). An unknown arc raises on the first `next`.
    """
    tail, head = require_arc(g, arc)
    w_num, w_den = g.arcs[tail, head].as_integer_ratio()
    search = ListingSearch(g, tail)
    for s in g.sources:
        num, den = g.source_emergy[s].as_integer_ratio()
        yield from search.expand(s, search.entry(s), num * w_num, den * w_den, head)

"""Path compatibility and the induced compatibility graph.

Two paths ending with the same arc are compatible when they are equal, start
at different nodes, or part ways at a split. Parting ways at a co-product is
the one incompatible case: only the largest co-product branch may be counted,
never both. The graph induced by this relation on the emergy paths of a query
arc contains no induced four-vertex path, which is what the search in
`solver` exploits; `find_induced_p4` is kept as the independent witness of
that fact.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from .graph import EmergyGraph, NodeKind
from .paths import EmergyPath, enumerate_emergy_paths


def longest_common_prefix(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Longest common initial node segment; empty when the first nodes differ."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return tuple(a[:n])


def compatible(g: EmergyGraph, a: Sequence[int], b: Sequence[int]) -> bool:
    """Decide compatibility of two paths ending with the same arc.

    True when the paths are equal, start at different nodes, or the last node
    of their longest common prefix is a split. False when that node is a
    co-product. Any other divergence kind is impossible for paths of a valid
    graph and raises.
    """
    a, b = tuple(a), tuple(b)
    if a == b:
        return True
    if a[0] != b[0]:
        return True
    fork = longest_common_prefix(a, b)[-1]
    kind = g.kind[fork]
    if kind is NodeKind.SPLIT:
        return True
    if kind is NodeKind.COPRODUCT:
        return False
    raise ValueError(
        f"paths diverge at {kind.value} node {fork}; not paths of a valid graph")


class CompatibilityGraph(NamedTuple):
    """Undirected graph over emergy paths; edges join compatible pairs.

    Edges are stored as index pairs (i, j) with i < j into `vertices`, which
    is sorted lexicographically and carries the path values as weights.
    """

    vertices: tuple[EmergyPath, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def adjacency(self) -> list[int]:
        """Per-vertex neighbour bitmasks."""
        masks = [0] * len(self.vertices)
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks


def build_compatibility_graph(g: EmergyGraph, arc: tuple[int, int]) -> CompatibilityGraph:
    """One vertex per emergy path of the arc, one edge per compatible pair."""
    vertices = tuple(enumerate_emergy_paths(g, arc))
    edges = frozenset(
        (i, j) for i, j in combinations(range(len(vertices)), 2)
        if compatible(g, vertices[i].nodes, vertices[j].nodes))
    return CompatibilityGraph(vertices, edges)


def find_induced_p4(cg: CompatibilityGraph, cap: int = 400) -> tuple[int, int, int, int] | None:
    """Search every four-vertex candidate for an induced path, or None.

    This is a checking oracle, not a solver component, so it simply scans all
    quadruples that could form a path a-b-c-d around each edge {b, c}. The
    `cap` guards against feeding it graphs it was never meant for.
    """
    n = len(cg.vertices)
    if n > cap:
        raise ValueError(f"{n} vertices exceed the induced-path check cap {cap}")
    adj = cg.adjacency
    for b, c in cg.edges:
        left = adj[b] & ~adj[c] & ~(1 << c)
        right = adj[c] & ~adj[b] & ~(1 << b)
        if not left or not right:
            continue
        rest = left
        while rest:
            bit = rest & -rest
            rest ^= bit
            a = bit.bit_length() - 1
            ends = right & ~adj[a] & ~bit
            if ends:
                d = (ends & -ends).bit_length() - 1
                return (a, b, c, d)
    return None

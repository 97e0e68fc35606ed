"""Counting simple paths through the maximum empower solver.

Counting the simple paths between two vertices of a digraph reduces to one
empower query: wrap the digraph in an emergy instance where every original
vertex is a split, every original arc carries weight 1/B for a bound B on
the number of simple paths, and leak the remaining weight of each vertex to
a drain output. With no co-products present, every set of emergy paths is
compatible, so the optimum is the plain sum over all paths. The search
toward the target vertex, the query arc's tail, gives that sum without the
exit weight: a path with i arcs contributes exactly 1/B^(i-2). Its base-B
digits are the per-length path counts, read by integer division once one
power of B makes it an integer; a direct backtracking counter serves as
the independent cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from .graph import EmergyGraph, NodeKind, ParseError, TokenError, read_id, token_lines


_ARITY = {"vertex": 1, "edge": 2, "start": 1, "target": 1}


class Digraph:
    """A counting instance: directed graph with start and target vertices,
    with successor lists precomputed and sorted ascending. Two digraphs are
    equal when their vertices, arcs, start and target are."""

    def __init__(self, vertices: frozenset[int], arcs: frozenset[tuple[int, int]],
                 start: int, target: int):
        if start == target:
            raise ValueError("start and target must differ")
        for v in (start, target):
            if v not in vertices:
                raise ValueError(f"vertex {v} not declared")
        succ: dict[int, list[int]] = {v: [] for v in vertices}
        for a, b in arcs:
            if a == b:
                raise ValueError(f"self-loop arc ({a}, {b})")
            if a not in vertices or b not in vertices:
                raise ValueError(f"arc ({a}, {b}) touches an undeclared vertex")
            succ[a].append(b)
        self.vertices = vertices
        self.arcs = arcs
        self.start = start
        self.target = target
        self.succ = {v: tuple(sorted(w)) for v, w in succ.items()}

    def _key(self) -> tuple:
        return self.vertices, self.arcs, self.start, self.target

    def __eq__(self, other):
        if other.__class__ is not Digraph:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Digraph(vertices={self.vertices!r}, arcs={self.arcs!r}, "
                f"start={self.start!r}, target={self.target!r})")


class ReductionInstance(NamedTuple):
    """The emergy instance wrapping a digraph, plus its decoding parameters."""

    graph: EmergyGraph
    bound: int
    source: int
    sink: int
    drain: int
    target_arc: tuple[int, int]


class PathCountVector(NamedTuple):
    """Simple-path counts keyed by emergy-path arc count (2 upward)."""

    counts: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, mapping: dict[int, int]) -> "PathCountVector":
        return cls(tuple(sorted(mapping.items())))

    @property
    def total(self) -> int:
        return sum(n for _, n in self.counts)

    def count(self, arcs: int) -> int:
        return dict(self.counts).get(arcs, 0)


def parse_digraph(text: str) -> Digraph:
    """Parse the digraph format: vertex/edge lines plus one start and target."""
    vertices: set[int] = set()
    arcs: set[tuple[int, int]] = set()
    start: int | None = None
    target: int | None = None
    # the line and token where an edge, start or target line first names each vertex
    sites: dict[int, tuple[int, int]] = {}
    try:
        for lineno, raw, tokens in token_lines(text):
            word = tokens[0]
            arity = _ARITY.get(word)
            if arity is None:
                raise TokenError(f"unrecognized line {word!r}", 0)
            if len(tokens) != arity + 1:
                raise TokenError(f"{word} line needs {arity} vertex id(s)", 0)
            ids = [read_id(tokens[k], "vertex id", k) for k in range(1, arity + 1)]
            if word == "vertex":
                if ids[0] in vertices:
                    raise TokenError(f"duplicate vertex {ids[0]}", 0)
                vertices.add(ids[0])
                continue
            for k, v in enumerate(ids, start=1):
                sites.setdefault(v, (lineno, k))
            if word == "edge":
                pair = (ids[0], ids[1])
                if pair[0] == pair[1]:
                    raise TokenError(f"self-loop edge ({pair[0]}, {pair[1]})", 0)
                if pair in arcs:
                    raise TokenError(f"duplicate edge {pair}", 0)
                arcs.add(pair)
            elif word == "start":
                if start is not None:
                    raise TokenError("duplicate start line", 0)
                start = ids[0]
            elif word == "target":
                if target is not None:
                    raise TokenError("duplicate target line", 0)
                target = ids[0]
            if start is not None and start == target:
                raise TokenError("start and target must differ", 1)
    except TokenError as error:
        raise error.at(lineno, raw) from None
    if start is None or target is None:
        raise ParseError("missing start or target line", 1)
    undeclared = min(sites.keys() - vertices, default=None)
    if undeclared is not None:
        lineno, k = sites[undeclared]
        raw = text.splitlines()[lineno - 1]
        raise TokenError(f"undeclared vertex {undeclared}", k).at(lineno, raw)
    return Digraph(frozenset(vertices), frozenset(arcs), start, target)


def serialize_digraph(d: Digraph) -> str:
    lines = [f"vertex {v}" for v in sorted(d.vertices)]
    lines += [f"edge {a} {b}" for a, b in sorted(d.arcs)]
    lines += [f"start {d.start}", f"target {d.target}"]
    return "\n".join(lines) + "\n"


def simple_path_bound(d: Digraph) -> int:
    """Upper bound on the number of simple start-to-target paths.

    Sums, over path vertex counts i, the number of injective vertex
    sequences of that length: n!/(n-i)! for i = 1..n.
    """
    n = len(d.vertices)
    return sum(math.perm(n, i) for i in range(1, n + 1))


def build_reduction(d: Digraph) -> ReductionInstance:
    """Wrap a digraph in the empower instance used for path counting.

    Adds a unit-emergy source feeding the start vertex, a sink output behind
    the target (the query arc), and a drain output absorbing each vertex's
    leftover weight. Every original vertex becomes a split whose original
    arcs weigh 1/B, so its outgoing weights sum to one exactly; the target
    vertex routes its leftover to the sink instead of the drain, keeping the
    sum intact there too. Every leftover 1 - degree/B is positive: a vertex
    has at most n - 1 out-arcs, as a digraph has no self-loops or repeated
    arcs, while B >= n!/(n-1)! = n.
    """
    bound = simple_path_bound(d)
    top = max(d.vertices)
    source, sink, drain = top + 1, top + 2, top + 3
    kinds: dict[int, NodeKind] = {v: NodeKind.SPLIT for v in d.vertices}
    kinds[source] = NodeKind.SOURCE
    kinds[sink] = NodeKind.OUTPUT
    kinds[drain] = NodeKind.OUTPUT
    arcs: dict[tuple[int, int], Fraction] = {
        (a, b): Fraction(1, bound) for a, b in d.arcs}
    arcs[(source, d.start)] = Fraction(1)
    for v in sorted(d.vertices):
        leftover = 1 - Fraction(len(d.succ[v]), bound)
        if v == d.target:
            arcs[(v, sink)] = leftover
        else:
            arcs[(v, drain)] = leftover
    graph = EmergyGraph(kinds, {source: Fraction(1)}, arcs)
    return ReductionInstance(graph, bound, source, sink, drain, (d.target, sink))


def decode_counts(value: Fraction, base: int, max_arcs: int) -> PathCountVector:
    """Read the per-length counts out of a base-1/`base` expansion.

    The input must equal sum over i of n_i / base^(i-2) with every digit in
    [0, base). Times base^(max_arcs-2) it is then an integer whose base-`base`
    digits, least significant first, are n_max_arcs down to n_2; a remainder
    means the value was not of that shape.
    """
    num, den = value.numerator, value.denominator
    if not 0 <= num < base * den:
        raise ValueError(f"the digit for length 2 is outside [0, {base})")
    scale, residue = divmod(base ** (max_arcs - 2), den)
    if residue:
        raise ValueError(f"nonzero residue after {max_arcs} digits")
    rest = num * scale
    counts: dict[int, int] = {}
    for i in range(max_arcs, 1, -1):
        rest, counts[i] = divmod(rest, base)
    return PathCountVector.of(counts)


def enumerate_simple_paths(d: Digraph) -> Iterator[tuple[int, ...]]:
    """Yield every simple start-to-target vertex sequence, by iterative
    backtracking with successors ascending, so they come out sorted."""
    path = [d.start]
    seen = {d.start}
    frames = [iter(d.succ[d.start])]
    while frames:
        nxt = next(frames[-1], None)
        if nxt is None:
            frames.pop()
            seen.discard(path.pop())
        elif nxt == d.target:
            yield (*path, nxt)
        elif nxt not in seen:
            path.append(nxt)
            seen.add(nxt)
            frames.append(iter(d.succ[nxt]))


def dfs_counts(d: Digraph) -> PathCountVector:
    """Independent per-length counts: a path on m vertices maps to length m+1."""
    counts = {i: 0 for i in range(2, len(d.vertices) + 2)}
    for p in enumerate_simple_paths(d):
        counts[len(p) + 1] += 1
    return PathCountVector.of(counts)


def reduction_counts(d: Digraph) -> PathCountVector:
    """Search the wrapped instance toward the target vertex and decode the
    digits of the source's value (its emergy is 1): no exit weight comes in.

    The length-2 digit is always zero (the shortest wrapped path has three
    arcs) and is asserted, not skipped.
    """
    from .solver import TailSearch  # `gen` reads digraphs and solves nothing

    inst = build_reduction(d)
    num, den = TailSearch(inst.graph, d.target).entry(inst.source)[:2]
    vector = decode_counts(Fraction(num, den), inst.bound, len(d.vertices) + 1)
    assert vector.count(2) == 0, "a wrapped path needs at least three arcs"
    return vector


def count_simple_paths(d: Digraph, method: str = "reduction") -> int:
    """Number of simple start-to-target paths, by either route."""
    if method == "reduction":
        return reduction_counts(d).total
    if method == "dfs":
        return sum(1 for _ in enumerate_simple_paths(d))
    raise ValueError(f"unknown method {method!r}")

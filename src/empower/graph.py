"""Emergy graph model: node kinds, exact rational weights, text format, validation.

An emergy graph is a directed graph whose nodes are sources (each feeding
exactly one node), splits (outgoing weights sum to 1), co-products (every
outgoing weight is 1, at least two successors), and outputs (sinks). All
weights and source emergies are exact rationals; nothing in the solvers ever
touches floating point. A file is read in one pass, an error's column found
only when it is raised, and validated on integer weight pairs.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterator, NamedTuple, Sequence


class NodeKind(Enum):
    SOURCE = "source"
    SPLIT = "split"
    COPRODUCT = "coproduct"
    OUTPUT = "output"


class ParseError(ValueError):
    """Malformed graph text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class EmergyGraph:
    """Emergy graph holding every fact the solvers read, the whole graph's
    derived at construction; not to be changed afterwards.

    `kind` maps node id to its kind, `source_emergy` holds the emergy of each
    source node, `arcs` maps (tail, head) to the arc weight and `sources`
    lists the source ids ascending. Two graphs are equal when their kinds,
    emergies and arcs are; a graph is not hashable.

    The path search, the path listing and the validator read the index
    form: node `v` is the `v`-th id of `nodes` (ascending) and `index` maps
    back. `kinds[v]` is its kind, `options[v]` its successors ascending as
    (index, arc weight numerator, arc weight denominator), which makes every
    traversal in this package deterministic, `pred[v]` its predecessor
    indices ascending and `comp[v]` its strongly connected component
    (`components`). `acyclic` is true when every component is a single
    node. `tails` keeps each arc tail's `solver.TailTable`, derived by
    `solver.tail_table` on the first query with that tail, so every arc
    query on the graph, a search or a listing, shares all of it.

    The constructor keeps each weight and emergy given as a `Fraction` and
    converts any other number. It rejects structural nonsense (self-loops,
    arcs touching undeclared nodes, emergy entries on non-sources); the
    semantic rules (weight sums, degrees, ranges) are `validate_graph`'s.
    """

    def __init__(self, kind: dict[int, NodeKind], source_emergy: dict[int, Fraction],
                 arcs: dict[tuple[int, int], Fraction]):
        self.kind, source = kind, NodeKind.SOURCE
        self.source_emergy = {i: v if v.__class__ is Fraction else Fraction(v)
                              for i, v in source_emergy.items()}
        self.arcs = {a: w if w.__class__ is Fraction else Fraction(w) for a, w in arcs.items()}
        for i in self.source_emergy:
            if kind.get(i) is not source:
                raise ValueError(f"emergy given for non-source node {i}")
        for s, k in kind.items():
            if k is source and s not in self.source_emergy:
                raise ValueError(f"source node {s} has no emergy")
        for (a, b) in self.arcs:
            if a == b:
                raise ValueError(f"self-loop arc ({a}, {a})")
            if a not in kind or b not in kind:
                raise ValueError(f"arc ({a}, {b}) touches an undeclared node")
        self.nodes = nodes = tuple(sorted(kind))
        self.index = index = {v: i for i, v in enumerate(nodes)}
        self.kinds = [kind[v] for v in nodes]
        self.sources = tuple(i for i in nodes if kind[i] is source)
        self.options = options = [[] for _ in nodes]
        self.pred = pred = [[] for _ in nodes]
        for (a, b), w in sorted(self.arcs.items()):
            options[index[a]].append((index[b], w.numerator, w.denominator))
            pred[index[b]].append(index[a])
        self.comp = comp = components(options)
        self.acyclic = max(comp, default=-1) + 1 == len(comp)
        self.tails: dict[int, tuple] = {}

    def __eq__(self, other):
        if other.__class__ is not EmergyGraph:
            return NotImplemented
        return (self.kind, self.source_emergy, self.arcs) == \
            (other.kind, other.source_emergy, other.arcs)

    def __repr__(self) -> str:
        return (f"EmergyGraph(kind={self.kind!r}, source_emergy={self.source_emergy!r}, "
                f"arcs={self.arcs!r})")


def components(options: list[Sequence[tuple[int, int, int]]]) -> list[int]:
    """Each node index's strongly connected component id under `options`
    (lists of (successor index, ...) tuples), by one iterative pass of
    Tarjan's algorithm (SIAM J. Comput. 1972). Ids count up as components
    close, so every arc between two components points to a smaller id.
    """
    n = len(options)
    comp = [-1] * n
    order = [0] * n  # discovery number, from 1; 0 for a node not yet seen
    low = [0] * n
    stack: list[int] = []
    seen = closed = 0
    for root in range(n):
        if order[root]:
            continue
        seen += 1
        order[root] = low[root] = seen
        stack.append(root)
        work = [(root, iter(options[root]))]
        while work:
            v, untried = work[-1]
            for option in untried:
                w = option[0]
                if not order[w]:
                    seen += 1
                    order[w] = low[w] = seen
                    stack.append(w)
                    work.append((w, iter(options[w])))
                    break
                # seen and not yet in a component: on the stack
                if comp[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = closed
                        if w == v:
                            break
                    closed += 1
    return comp


class Violation(NamedTuple):
    """One broken graph rule; `subject` is a node id or an arc pair."""

    code: str
    subject: int | tuple[int, int]
    message: str


def require_arc(g: EmergyGraph, arc: tuple[int, int]) -> tuple[int, int]:
    arc = (int(arc[0]), int(arc[1]))
    if arc not in g.arcs:
        raise ValueError(f"({arc[0]}, {arc[1]}) is not an arc of the graph")
    return arc


# the most digits a number in a file may have, read or written: the
# interpreter's default int-string limit, which `cli.main` lifts so that exact
# results print whole
_MAX_DIGITS = 4300
_TOO_LONG = 10 ** _MAX_DIGITS
_KINDS = {k.value: k for k in NodeKind}


class TokenError(Exception):
    """(message, k): an error at token `k` (from 0) of the line being read."""

    def at(self, line: int, raw: str) -> ParseError:
        """The error at line `line`, whose text is `raw`: the one place columns are found."""
        message, k = self.args  # `raw`'s k-th token starts where the k-th before '#' does
        return ParseError(message, line, [*re.finditer(r"\S+", raw)][k].start() + 1)


def token_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, tokens) for each line with tokens: the text before
    '#' split at whitespace (`str.split` and `re`'s `\\s` agree on it)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            yield lineno, raw, tokens


def read_id(token: str, what: str, k: int) -> int:
    """Token `k` as a node or vertex id: ASCII digits only (`str.isdigit` also takes '²')."""
    if not (token.isascii() and token.isdigit()):
        raise TokenError(f"expected a {what}, got {token!r}", k)
    if len(token) > _MAX_DIGITS:
        raise TokenError(f"{what} {token[:20]}... is too long", k)
    return int(token)


def _rational(token: str, k: int) -> Fraction:
    """Token `k` as `[+-]digits[/digits]`, ASCII digits, denominator positive."""
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not ((digits + den).isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise TokenError(f"expected a rational, got {token!r}", k)
    if len(digits) > _MAX_DIGITS:
        raise TokenError(f"numerator {num[:20]}... is too long", k)
    if len(den) > _MAX_DIGITS:
        raise TokenError(f"denominator {den[:20]}... is too long", k)
    if slash and not den.strip("0"):
        raise TokenError("denominator must be a positive integer", k)
    return Fraction(int(num), int(den or 1))


def parse_id(token: str, what: str, line: int, col: int) -> int:
    """A node or vertex id: ASCII digits only, else a ParseError."""
    try:
        return read_id(token, what, 0)
    except TokenError as error:
        raise ParseError(error.args[0], line, col) from None


def parse_graph(text: str) -> EmergyGraph:
    """Parse the line-oriented emergy graph format.

    node <id> source <rational>
    node <id> split | coproduct | output
    arc <from> <to> <rational>

    '#' starts a comment, blank lines are ignored. Raises ParseError on
    syntax problems, duplicate declarations, self-loops, or arcs touching
    undeclared nodes. Semantic rules are left to `validate_graph`. Each
    line is split once, and a node's id token and each distinct weight
    token are read once; an error's column is found when it is raised.
    """
    kinds: dict[int, NodeKind] = {}
    emergy: dict[int, Fraction] = {}
    arcs: dict[tuple[int, int], Fraction] = {}
    ids, weights, source = {}, {}, NodeKind.SOURCE  # token -> int, token -> Fraction
    try:
        for lineno, raw, tokens in token_lines(text):
            word = tokens[0]
            if word == "arc":
                if len(tokens) != 4:
                    raise TokenError("arc line needs <from> <to> <weight>", 0)
                _, ta, tb, tw = tokens
                a = ids.get(ta) or read_id(ta, "node id", 1)
                b = ids.get(tb) or read_id(tb, "node id", 2)
                w = weights.get(tw) or weights.setdefault(tw, _rational(tw, 3))
                if a == b:
                    raise TokenError(f"self-loop arc ({a}, {b})", 1)
                if (a, b) in arcs:
                    raise TokenError(f"duplicate arc ({a}, {b})", 1)
                arcs[a, b] = w
            elif word == "node":
                if len(tokens) < 3:
                    raise TokenError("node line needs an id and a kind", 0)
                nid = ids[tokens[1]] = read_id(tokens[1], "node id", 1)
                kind = _KINDS.get(tokens[2])
                if kind is None:
                    raise TokenError(f"unknown node kind {tokens[2]!r}", 2)
                if nid in kinds:
                    raise TokenError(f"duplicate node id {nid}", 1)
                if kind is source:
                    if len(tokens) != 4:
                        raise TokenError("source node needs an emergy value", 2)
                    emergy[nid] = _rational(tokens[3], 3)
                elif len(tokens) != 3:
                    raise TokenError(f"{tokens[2]} node takes no value", 3)
                kinds[nid] = kind
            else:
                raise TokenError(f"expected 'node' or 'arc', got {word!r}", 0)
    except TokenError as error:
        raise error.at(lineno, raw) from None
    try:
        return EmergyGraph(kinds, emergy, arcs)
    except ValueError:  # an undeclared node: the n-th arc, in file order, is the first to name one
        n, end = next((n, end) for n, arc in enumerate(arcs) for end in arc if end not in kinds)
        lineno, raw, _ = next(islice((t for t in token_lines(text) if t[2][0] == "arc"), n, None))
        raise TokenError(f"undeclared node {end}", 1).at(lineno, raw) from None


def _rational_text(x: Fraction) -> str:
    if max(abs(x.numerator), x.denominator) >= _TOO_LONG:
        raise ValueError(f"a number has more than {_MAX_DIGITS} digits, "
                         "more than an instance file may hold")
    return str(x)


def serialize_graph(g: EmergyGraph) -> str:
    """Canonical text form: nodes ascending, then arcs ascending by (from, to).

    Raises ValueError for a number longer than `parse_graph` reads back.
    """
    lines = [f"node {i} source {_rational_text(g.source_emergy[i])}" if i in g.source_emergy
             else f"node {i} {g.kind[i].value}" for i in g.nodes]
    lines += [f"arc {a} {b} {_rational_text(w)}" for (a, b), w in sorted(g.arcs.items())]
    return "\n".join(lines) + "\n"


def validate_graph(g: EmergyGraph) -> list[Violation]:
    """Check every semantic rule; an empty report means the graph is valid.

    Violations are data, not exceptions: callers decide whether a broken
    graph is fatal. The report order is deterministic (nodes ascending,
    then arcs ascending). The rules read the integer pairs of `g.options`,
    exact split sums included; a message's `Fraction` is made for it.
    """
    report: list[Violation] = []
    ranges: list[Violation] = []  # weight-range, reported after every node's rules
    source, split, coproduct, output = NodeKind
    add = report.append
    nodes, emergy = g.nodes, g.source_emergy
    for v, (i, k, out) in enumerate(zip(nodes, g.kinds, g.options)):
        if k is source:
            if emergy[i] <= 0:
                add(Violation("emergy-range", i, f"source {i} emergy {emergy[i]} is not positive"))
            if len(out) != 1:
                add(Violation("source-degree", i,
                              f"source {i} has {len(out)} successors, needs exactly 1"))
            if g.pred[v]:
                add(Violation("source-pred", i,
                              f"source {i} has predecessors {[nodes[u] for u in g.pred[v]]}"))
        elif k is output:
            if out:
                add(Violation("output-succ", i,
                              f"output {i} has successors {[nodes[w] for w, _, _ in out]}"))
        elif not out:
            add(Violation("dead-intermediate", i, f"{k.value} node {i} has no successors"))
        if k is coproduct and len(out) < 2:
            add(Violation("coproduct-degree", i,
                          f"co-product {i} has {len(out)} successors, needs at least 2"))
        total, common = 0, 1  # the weights so far add up to total / common
        for w, num, den in out:
            if den != common:
                lcm = common // gcd(common, den) * den
                total, common = total * (lcm // common), lcm
            total += num * (common // den)
            j = nodes[w]
            if k is coproduct and (num != 1 or den != 1):
                add(Violation("coproduct-weight", (i, j),
                              f"co-product arc ({i}, {j}) has weight {g.arcs[i, j]}, not 1"))
            if not 0 < num <= den:
                ranges.append(Violation("weight-range", (i, j),
                                        f"arc ({i}, {j}) weight {g.arcs[i, j]} is outside (0, 1]"))
        if out and total != common and (k is source or k is split):
            add(Violation("split-sum", i, f"{k.value} {i} outgoing weights sum to "
                                          f"{Fraction(total, common)}, not 1"))
    return report + ranges


class TopoResult(NamedTuple):
    """Either a topological order of all nodes or a directed cycle witness.

    Exactly one field is set. A cycle is returned in closed form (first node
    repeated at the end) so consecutive pairs are all arcs.
    """

    order: tuple[int, ...] | None
    cycle: tuple[int, ...] | None


def topological_order(g: EmergyGraph) -> TopoResult:
    """The components `g` derived when it was built (`EmergyGraph.comp`,
    over `EmergyGraph.options`) as a topological order or a cycle,
    deterministic by ascending ids. An acyclic graph's order is the
    ids in reverse order of closing. Otherwise the cycle starts at the
    smallest node in a component of several nodes, steps each time to the
    smallest successor in that component and is cut where it first repeats.
    """
    ids, comp = g.nodes, g.comp
    if g.acyclic:  # one component per node, numbered as they close
        return TopoResult(tuple(sorted(ids, key=lambda i: -comp[g.index[i]])), None)
    # with no self-loops, a node is in a component of several nodes exactly
    # when one of its successors is in its component
    inside = [[w for w, _, _ in succ if comp[w] == comp[v]] for v, succ in enumerate(g.options)]
    v = next(v for v, ahead in enumerate(inside) if ahead)
    walk: dict[int, int] = {}  # each node's position in the walk
    while v not in walk:
        walk[v] = len(walk)
        v = inside[v][0]
    return TopoResult(None, tuple(ids[w] for w in [*walk][walk[v]:] + [v]))

"""Emergy graph model: node kinds, exact rational weights, text format, validation.

An emergy graph is a directed graph whose nodes are sources (each feeding
exactly one node), splits (outgoing weights sum to 1), co-products (every
outgoing weight is 1, at least two successors), and outputs (sinks). All
weights and source emergies are exact rationals; nothing in the solvers ever
touches floating point.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence


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
    node. `tails` keeps each arc tail's `tail_table`, so every arc query on
    the graph, a search or a listing, shares all of it, and `rules` keeps
    what the search derives from that table (`solver.tail_rules`).

    The constructor rejects structural nonsense (self-loops, arcs touching
    undeclared nodes, emergy entries on non-sources); the semantic rules
    (weight sums, degrees, ranges) are reported by `validate_graph`.
    """

    def __init__(self, kind: dict[int, NodeKind], source_emergy: dict[int, Fraction],
                 arcs: dict[tuple[int, int], Fraction]):
        self.kind = kind
        self.source_emergy = {i: Fraction(v) for i, v in source_emergy.items()}
        self.arcs = {a: Fraction(w) for a, w in arcs.items()}
        for i in self.source_emergy:
            if kind.get(i) is not NodeKind.SOURCE:
                raise ValueError(f"emergy given for non-source node {i}")
        for s, k in kind.items():
            if k is NodeKind.SOURCE and s not in self.source_emergy:
                raise ValueError(f"source node {s} has no emergy")
        for (a, b) in self.arcs:
            if a == b:
                raise ValueError(f"self-loop arc ({a}, {a})")
            if a not in kind or b not in kind:
                raise ValueError(f"arc ({a}, {b}) touches an undeclared node")
        self.nodes = nodes = tuple(sorted(kind))
        self.index = index = {v: i for i, v in enumerate(nodes)}
        self.kinds = [kind[v] for v in nodes]
        self.sources = tuple(i for i in nodes if kind[i] is NodeKind.SOURCE)
        self.options = options = [[] for _ in nodes]
        self.pred = pred = [[] for _ in nodes]
        for (a, b), w in sorted(self.arcs.items()):
            options[index[a]].append((index[b], w.numerator, w.denominator))
            pred[index[b]].append(index[a])
        self.comp = comp = components(options)
        self.acyclic = max(comp, default=-1) + 1 == len(comp)
        self.tails: dict[int, tuple[list, list[int]]] = {}
        self.rules: dict[int, tuple] = {}

    def __eq__(self, other):
        if other.__class__ is not EmergyGraph:
            return NotImplemented
        return (self.kind, self.source_emergy, self.arcs) == \
            (other.kind, other.source_emergy, other.arcs)

    def __repr__(self) -> str:
        return (f"EmergyGraph(kind={self.kind!r}, source_emergy={self.source_emergy!r}, "
                f"arcs={self.arcs!r})")

    def tail_table(self, tail: int) -> tuple[list, list[int]]:
        """The graph a path search or listing toward arc tail index `tail`
        walks, as (options, comp), derived on first use and kept.

        `options[v]` are node index `v`'s successor options that can still
        reach the tail; the tail's own are cut, because every path stops
        there. So a walk over them never enters a node that cannot reach the
        tail and never leaves the tail. `comp[v]` is the id of `v`'s strongly
        connected component in that graph; the tail is a component alone.
        """
        found = self.tails.get(tail)
        if found is None:
            live = self.reaching(tail)
            options = []
            for v, succ in enumerate(self.options):
                kept = [option for option in succ if live[option[0]]] if live[v] and v != tail else ()
                # the tables are kept, so a node that keeps every option
                # shares the graph's list instead of a copy
                options.append(succ if len(kept) == len(succ) else kept)
            found = self.tails[tail] = (options, components(options))
        return found

    def reaching(self, tail: int) -> list[bool]:
        """For each node index, whether it has a directed path to index
        `tail`; the tail itself does."""
        pred = self.pred
        seen = [False] * len(pred)
        seen[tail] = True
        frontier = [tail]
        while frontier:
            for p in pred[frontier.pop()]:
                if not seen[p]:
                    seen[p] = True
                    frontier.append(p)
        return seen


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


# ASCII digits only: `\d` and `str.isdigit` also accept characters such as
# '²' or '３' that `int` then refuses or silently reads as digits.
_ID = re.compile(r"[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


# the most digits a number in a file may have, read or written: the
# interpreter's default int-string limit, which `cli.main` lifts so that exact
# results print whole
_MAX_DIGITS = 4300
_TOO_LONG = 10 ** _MAX_DIGITS


def _to_int(text: str, what: str, line: int, col: int) -> int:
    if len(text.lstrip("+-")) > _MAX_DIGITS:
        raise ParseError(f"{what} {text[:20]}... is too long", line, col)
    return int(text)


def _parse_rational(token: str, line: int, col: int) -> Fraction:
    m = _RATIONAL.fullmatch(token)
    if not m:
        raise ParseError(f"expected a rational, got {token!r}", line, col)
    num = _to_int(m.group(1), "numerator", line, col)
    if m.group(2) is None:
        return Fraction(num)
    den = _to_int(m.group(2), "denominator", line, col)
    if den == 0:
        raise ParseError("denominator must be a positive integer", line, col)
    return Fraction(num, den)


def parse_id(token: str, what: str, line: int, col: int) -> int:
    """A node or vertex id: ASCII digits only, else a ParseError."""
    if not _ID.fullmatch(token):
        raise ParseError(f"expected a {what}, got {token!r}", line, col)
    return _to_int(token, what, line, col)


def tokenize(text: str) -> Iterable[tuple[int, list[tuple[str, int]]]]:
    """Yield (line number, [(token, column), ...]) skipping blanks and comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", content)]
        if tokens:
            yield lineno, tokens


def parse_graph(text: str) -> EmergyGraph:
    """Parse the line-oriented emergy graph format.

    node <id> source <rational>
    node <id> split | coproduct | output
    arc <from> <to> <rational>

    '#' starts a comment, blank lines are ignored. Raises ParseError on
    syntax problems, duplicate declarations, self-loops, or arcs touching
    undeclared nodes. Semantic rules are left to `validate_graph`.
    """
    kinds: dict[int, NodeKind] = {}
    emergy: dict[int, Fraction] = {}
    arcs: dict[tuple[int, int], Fraction] = {}
    arc_sites: list[tuple[tuple[int, int], int, int]] = []

    for lineno, tokens in tokenize(text):
        word, col = tokens[0]
        if word == "node":
            if len(tokens) < 3:
                raise ParseError("node line needs an id and a kind", lineno, col)
            nid = parse_id(tokens[1][0], "node id", lineno, tokens[1][1])
            kind_tok, kind_col = tokens[2]
            try:
                kind = NodeKind(kind_tok)
            except ValueError:
                raise ParseError(f"unknown node kind {kind_tok!r}", lineno, kind_col) from None
            if nid in kinds:
                raise ParseError(f"duplicate node id {nid}", lineno, tokens[1][1])
            if kind is NodeKind.SOURCE:
                if len(tokens) != 4:
                    raise ParseError("source node needs an emergy value", lineno, kind_col)
                emergy[nid] = _parse_rational(tokens[3][0], lineno, tokens[3][1])
            else:
                if len(tokens) != 3:
                    raise ParseError(
                        f"{kind_tok} node takes no value", lineno, tokens[3][1])
            kinds[nid] = kind
        elif word == "arc":
            if len(tokens) != 4:
                raise ParseError("arc line needs <from> <to> <weight>", lineno, col)
            a = parse_id(tokens[1][0], "node id", lineno, tokens[1][1])
            b = parse_id(tokens[2][0], "node id", lineno, tokens[2][1])
            w = _parse_rational(tokens[3][0], lineno, tokens[3][1])
            if a == b:
                raise ParseError(f"self-loop arc ({a}, {b})", lineno, tokens[1][1])
            if (a, b) in arcs:
                raise ParseError(f"duplicate arc ({a}, {b})", lineno, tokens[1][1])
            arcs[(a, b)] = w
            arc_sites.append(((a, b), lineno, tokens[1][1]))
        else:
            raise ParseError(f"expected 'node' or 'arc', got {word!r}", lineno, col)

    for (a, b), lineno, col in arc_sites:
        for endpoint in (a, b):
            if endpoint not in kinds:
                raise ParseError(f"undeclared node {endpoint}", lineno, col)

    return EmergyGraph(kinds, emergy, arcs)


def _rational_text(x: Fraction) -> str:
    if max(abs(x.numerator), x.denominator) >= _TOO_LONG:
        raise ValueError(f"a number has more than {_MAX_DIGITS} digits, "
                         "more than an instance file may hold")
    return str(x)


def serialize_graph(g: EmergyGraph) -> str:
    """Canonical text form: nodes ascending, then arcs ascending by (from, to).

    Raises ValueError for a number longer than `parse_graph` reads back.
    """
    lines = []
    for i in g.nodes:
        k = g.kind[i]
        if k is NodeKind.SOURCE:
            lines.append(f"node {i} source {_rational_text(g.source_emergy[i])}")
        else:
            lines.append(f"node {i} {k.value}")
    for (a, b) in sorted(g.arcs):
        lines.append(f"arc {a} {b} {_rational_text(g.arcs[(a, b)])}")
    return "\n".join(lines) + "\n"


def validate_graph(g: EmergyGraph) -> list[Violation]:
    """Check every semantic rule; an empty report means the graph is valid.

    Violations are data, not exceptions: callers decide whether a broken
    graph is fatal. The report order is deterministic (nodes ascending,
    then arcs ascending).
    """
    report: list[Violation] = []
    one = Fraction(1)
    for v, i in enumerate(g.nodes):
        k = g.kind[i]
        out = [g.nodes[w] for w, _, _ in g.options[v]]
        if k is NodeKind.SOURCE:
            if g.source_emergy[i] <= 0:
                report.append(Violation(
                    "emergy-range", i,
                    f"source {i} emergy {g.source_emergy[i]} is not positive"))
            if len(out) != 1:
                report.append(Violation(
                    "source-degree", i,
                    f"source {i} has {len(out)} successors, needs exactly 1"))
            if g.pred[v]:
                report.append(Violation(
                    "source-pred", i,
                    f"source {i} has predecessors {[g.nodes[u] for u in g.pred[v]]}"))
        elif k is NodeKind.OUTPUT:
            if out:
                report.append(Violation(
                    "output-succ", i, f"output {i} has successors {out}"))
        else:
            if not out:
                report.append(Violation(
                    "dead-intermediate", i,
                    f"{k.value} node {i} has no successors"))
        if k in (NodeKind.SOURCE, NodeKind.SPLIT) and out:
            total = sum((g.arcs[(i, j)] for j in out), Fraction(0))
            if total != one:
                report.append(Violation(
                    "split-sum", i,
                    f"{k.value} {i} outgoing weights sum to {total}, not 1"))
        if k is NodeKind.COPRODUCT:
            if len(out) < 2:
                report.append(Violation(
                    "coproduct-degree", i,
                    f"co-product {i} has {len(out)} successors, needs at least 2"))
            for j in out:
                if g.arcs[(i, j)] != one:
                    report.append(Violation(
                        "coproduct-weight", (i, j),
                        f"co-product arc ({i}, {j}) has weight {g.arcs[(i, j)]}, not 1"))
    for (a, b) in sorted(g.arcs):
        w = g.arcs[(a, b)]
        if not 0 < w <= 1:
            report.append(Violation(
                "weight-range", (a, b),
                f"arc ({a}, {b}) weight {w} is outside (0, 1]"))
    return report


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

"""Reference answers for the benchmark, written without the `empower` package.

Everything here works on `Instance`, the benchmark's own plain model of an
emergy graph, and follows the definitions rather than the package's
algorithms:

- `max_empower` is the exact recursion over simple paths: from each source
  the walk descends arc by arc, a split adds its weighted branches, a
  co-product keeps its best branch, and the sources are summed;
- `compatible` is the first-divergence rule, and `pairwise_compatible`
  applies it to a whole witness set;
- `check_witness` tests one witness path against the emergy-path definition;
- `decimal` is half-away-from-zero rounding;
- `simple_path_counts` counts a digraph's simple start-to-target paths by
  length.

`self_check` tests the reference itself against closed forms.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction

SOURCE, SPLIT, COPRODUCT, OUTPUT = "source", "split", "coproduct", "output"


def deep(fn):
    """Let `fn` recurse once per path node, however long the path; the
    interpreter's own limit is restored afterwards, so the program under
    test keeps its usual one."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, 20000))
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setrecursionlimit(old)
    return wrapper


@dataclass
class Instance:
    """Node kinds, source emergies and arc weights of one emergy graph."""

    kind: dict[int, str]
    emergy: dict[int, Fraction]
    arcs: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        self.succ: dict[int, list[int]] = {n: [] for n in self.kind}
        for a, b in sorted(self.arcs):
            self.succ[a].append(b)

    @property
    def sources(self) -> list[int]:
        return sorted(n for n, k in self.kind.items() if k == SOURCE)

    def text(self) -> str:
        """The line-oriented instance format the `empower` CLI reads."""
        lines = []
        for n in sorted(self.kind):
            if self.kind[n] == SOURCE:
                lines.append(f"node {n} source {self.emergy[n]}")
            else:
                lines.append(f"node {n} {self.kind[n]}")
        lines += [f"arc {a} {b} {w}" for (a, b), w in sorted(self.arcs.items())]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Digraph:
    """A path-counting instance: arcs plus start and target vertices."""

    vertices: int
    arcs: frozenset[tuple[int, int]]
    start: int
    target: int

    def text(self) -> str:
        lines = [f"vertex {v}" for v in range(1, self.vertices + 1)]
        lines += [f"edge {a} {b}" for a, b in sorted(self.arcs)]
        lines += [f"start {self.start}", f"target {self.target}"]
        return "\n".join(lines) + "\n"


@deep
def max_empower(inst: Instance, arc: tuple[int, int]) -> Fraction:
    """Best total value of pairwise compatible emergy paths ending with `arc`.

    Paths stop at the arc tail, where the final arc is taken without a
    visited check: that is the one node a path may repeat.
    """
    tail, head = arc
    last = inst.arcs[arc]

    def best(node: int, seen: set[int]) -> Fraction:
        if node == tail:
            return last
        branches = []
        for nxt in inst.succ[node]:
            if nxt in seen:
                continue
            seen.add(nxt)
            branches.append(inst.arcs[(node, nxt)] * best(nxt, seen))
            seen.remove(nxt)
        if not branches:
            return Fraction(0)
        if inst.kind[node] == COPRODUCT:
            return max(branches)
        return sum(branches, Fraction(0))

    return sum((inst.emergy[s] * best(s, {s}) for s in inst.sources), Fraction(0))


@deep
def emergy_paths(inst: Instance, arc: tuple[int, int]) -> list[tuple[tuple[int, ...], Fraction]]:
    """Every emergy path ending with `arc` with its value, sorted by nodes."""
    tail, head = arc
    found = []

    def walk(prefix: list[int], seen: set[int]):
        node = prefix[-1]
        if node == tail:
            nodes = tuple(prefix) + (head,)
            found.append((nodes, path_value(inst, nodes)))
            return
        for nxt in inst.succ[node]:
            if nxt not in seen:
                seen.add(nxt)
                prefix.append(nxt)
                walk(prefix, seen)
                prefix.pop()
                seen.remove(nxt)

    for s in inst.sources:
        walk([s], {s})
    return sorted(found)


@deep
def count_paths(inst: Instance, arc: tuple[int, int], limit: int) -> int:
    """Number of emergy paths ending with `arc`, or `limit + 1` once it passes `limit`.

    The walk enters only nodes from which the arc tail is reachable.
    """
    tail = arc[0]
    pred: dict[int, list[int]] = {n: [] for n in inst.kind}
    for a, b in inst.arcs:
        pred[b].append(a)
    live, frontier = {tail}, [tail]
    while frontier:
        for p in pred[frontier.pop()]:
            if p not in live:
                live.add(p)
                frontier.append(p)
    count = 0

    def walk(node: int, seen: set[int]) -> bool:
        nonlocal count
        if node == tail:
            count += 1
            return count <= limit
        for nxt in inst.succ[node]:
            if nxt in live and nxt not in seen:
                seen.add(nxt)
                going = walk(nxt, seen)
                seen.remove(nxt)
                if not going:
                    return False
        return True

    for s in inst.sources:
        if s in live and not walk(s, {s}):
            break
    return count


def is_acyclic(succ: dict[int, list[int]]) -> bool:
    """True when the successor lists describe a graph without a directed cycle."""
    indegree = {v: 0 for v in succ}
    for v in succ:
        for w in succ[v]:
            indegree[w] += 1
    ready = [v for v, n in indegree.items() if n == 0]
    done = 0
    while ready:
        v = ready.pop()
        done += 1
        for w in succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return done == len(succ)


@deep
def dag_path_count(succ: dict[int, list[int]], start: int, target: int) -> int:
    """Paths from `start` to `target` in an acyclic graph, by memoised recursion."""
    memo = {target: 1}

    def ways(v: int) -> int:
        if v not in memo:
            memo[v] = sum(ways(w) for w in succ[v])
        return memo[v]

    return ways(start)


def path_value(inst: Instance, nodes: tuple[int, ...]) -> Fraction:
    value = inst.emergy[nodes[0]]
    for a, b in zip(nodes, nodes[1:]):
        value *= inst.arcs[(a, b)]
    return value


def check_witness(inst: Instance, arc: tuple[int, int], nodes: tuple[int, ...]) -> str | None:
    """Why `nodes` is not an emergy path for `arc`, or None when it is one.

    It must start at a source, end with the query arc, use only arcs of the
    instance, and repeat no node except that the last may equal one earlier.
    """
    if len(nodes) < 2 or tuple(nodes[-2:]) != tuple(arc):
        return f"path {nodes} does not end with arc {arc}"
    if inst.kind.get(nodes[0]) != SOURCE:
        return f"path {nodes} does not start at a source"
    for a, b in zip(nodes, nodes[1:]):
        if (a, b) not in inst.arcs:
            return f"path {nodes} uses ({a}, {b}), which is not an arc"
    if len(set(nodes[:-1])) != len(nodes) - 1:
        return f"path {nodes} repeats a node before its last"
    return None


def compatible(kind: dict[int, str], a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Equal paths and paths from different sources are compatible; otherwise
    the node where they part decides: a split yes, a co-product no."""
    if a == b or a[0] != b[0]:
        return True
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return kind[a[n - 1]] == SPLIT


def pairwise_compatible(kind: dict[int, str], paths: list[tuple[int, ...]]) -> bool:
    """`compatible` on every pair, in time linear in the total path length.

    In sorted order the parting node of any two paths is the parting node
    of some adjacent pair between them, so adjacent pairs decide it.
    """
    ordered = sorted(paths)
    return all(compatible(kind, a, b) for a, b in zip(ordered, ordered[1:]))


def decimal(x: Fraction, places: int) -> str:
    """Fixed-point text of `x`, rounding half away from zero."""
    scale = 10 ** places
    magnitude = (2 * abs(x.numerator) * scale + x.denominator) // (2 * x.denominator)
    text = str(magnitude).rjust(places + 1, "0")
    if places:
        text = text[:-places] + "." + text[-places:]
    return ("-" if x < 0 else "") + text


@deep
def simple_path_counts(d: Digraph) -> dict[int, int]:
    """Simple start-to-target paths of `d`, keyed by their number of arcs."""
    succ: dict[int, list[int]] = {v: [] for v in range(1, d.vertices + 1)}
    for a, b in sorted(d.arcs):
        succ[a].append(b)
    counts: dict[int, int] = {}

    def walk(node: int, arcs: int, seen: set[int]):
        if node == d.target:
            counts[arcs] = counts.get(arcs, 0) + 1
            return
        for nxt in succ[node]:
            if nxt not in seen:
                seen.add(nxt)
                walk(nxt, arcs + 1, seen)
                seen.remove(nxt)

    walk(d.start, 0, {d.start})
    return counts


def diamond_chain(layers: int, emergy: Fraction) -> tuple[Instance, tuple[int, int]]:
    """A source, `layers` two-way diamonds of splits, and an output.

    Closed forms: 2**layers emergy paths reach the last arc, and its
    maximum empower equals the source emergy.
    """
    kind = {1: SOURCE, 2: SPLIT}
    arcs = {(1, 2): Fraction(1)}
    entry = 2
    for k in range(layers):
        left, right, merge = 3 * k + 3, 3 * k + 4, 3 * k + 5
        kind[left] = kind[right] = kind[merge] = SPLIT
        arcs[(entry, left)] = arcs[(entry, right)] = Fraction(1, 2)
        arcs[(left, merge)] = arcs[(right, merge)] = Fraction(1)
        entry = merge
    kind[entry + 1] = OUTPUT
    arcs[(entry, entry + 1)] = Fraction(1)
    return Instance(kind, {1: Fraction(emergy)}, arcs), (entry, entry + 1)


TEXTBOOK = Instance(
    kind={1: SOURCE, 2: SPLIT, 3: SPLIT, 4: SPLIT, 5: SOURCE, 6: SPLIT,
          7: COPRODUCT, 8: SPLIT, 9: COPRODUCT, 10: SPLIT, 11: OUTPUT, 12: OUTPUT},
    emergy={1: Fraction(100), 5: Fraction(250)},
    arcs={(a, b): Fraction(w) for a, b, w in [
        (1, 2, "1"), (2, 3, "3/10"), (2, 4, "7/10"), (3, 7, "1"), (4, 7, "1"),
        (5, 6, "1"), (6, 3, "1/4"), (6, 4, "3/4"), (7, 8, "1"), (7, 11, "1"),
        (8, 6, "1/2"), (8, 9, "1/2"), (9, 4, "1"), (9, 10, "1"), (10, 6, "1/2"),
        (10, 12, "1/2")]},
)
"""The twelve-node two-source demo system with recycling loops."""


def self_check():
    """Test the reference against closed forms; raises AssertionError."""
    for layers in (0, 1, 5, 9):
        emergy = Fraction(7, 3)
        inst, arc = diamond_chain(layers, emergy)
        assert max_empower(inst, arc) == emergy
        paths = emergy_paths(inst, arc)
        assert len(paths) == 2 ** layers
        assert sum(v for _, v in paths) == emergy
        assert pairwise_compatible(inst.kind, [p for p, _ in paths])
    assert max_empower(TEXTBOOK, (4, 7)) == 315
    chosen = [(1, 2, 3, 7, 8, 6, 4, 7), (1, 2, 3, 7, 8, 9, 4, 7)]
    assert compatible(TEXTBOOK.kind, *chosen)
    assert not compatible(TEXTBOOK.kind, (1, 2, 3, 7, 8, 6, 4, 7), (1, 2, 3, 7, 11))
    assert check_witness(TEXTBOOK, (4, 7), (5, 6, 4, 7, 8, 6)) is not None
    assert check_witness(TEXTBOOK, (8, 6), (5, 6, 4, 7, 8, 6)) is None
    for x, places, text in [(Fraction(45, 8), 2, "5.63"), (Fraction(-45, 8), 2, "-5.63"),
                            (Fraction(1, 8), 2, "0.13"), (Fraction(5, 2), 0, "3"),
                            (Fraction(315), 2, "315.00"), (Fraction(1, 3), 4, "0.3333")]:
        assert decimal(x, places) == text, (x, places)
    triangle = Digraph(3, frozenset({(1, 2), (2, 3), (1, 3), (3, 2)}), 1, 3)
    assert simple_path_counts(triangle) == {1: 1, 2: 1}

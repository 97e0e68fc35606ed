"""General-case maximum empower solver.

The emergy paths of one source, laid out as a prefix tree, decompose the
compatibility structure exactly: branches under a split node are mutually
compatible (take them all, add), branches under a co-product are mutually
exclusive (take the best one). `solve_general` evaluates that recursion in
one of two ways, chosen by whether the graph has a cycle.

On an acyclic graph the prefix tree is the search tree of a depth-first
path search, and what the search finds below a node does not depend on the
path that led there. The search is memoized per node, visits each node
once, and never lists the paths: the witness, which can hold exponentially
many paths (2^k on a diamond chain of k layers), stays in the memo as the
branches each entry kept and becomes paths only when asked for, one at a
time, already in lexicographic order.

On a graph with a cycle, what lies below a node depends on the nodes
visited before it, and the cost stays exponential (counting simple paths
reduces to this problem, see `empower.hardness`). There the emergy paths
are enumerated, in lexicographic order, and their prefix tree is evaluated
bottom-up in one pass over the sorted list, without building it.

`brute_force_solve` maximizes over all compatible subsets directly and
exists purely as an oracle for small instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator

from .compat import compatible
from .graph import (
    EmergyGraph,
    NodeKind,
    reachability_to_target,
    require_arc,
    topological_order,
)
from .paths import EmergyPath, enumerate_emergy_paths


@dataclass(frozen=True)
class EmergyState:
    """A set of pairwise compatible paths with its total value."""

    paths: tuple[EmergyPath, ...]
    value: Fraction


@dataclass(frozen=True)
class SolveStats:
    """What a solve did: emergy paths of the arc, witness paths, and nodes
    of the evaluated tree (memo entries on an acyclic graph, prefix-tree
    nodes of the enumerated paths on a cyclic one)."""

    path_count: int
    witness_count: int
    tree_nodes: int
    elapsed: float


@dataclass(frozen=True)
class SolveResult:
    """The optimum of one query; the witness is expanded on first use."""

    value: Fraction
    method: str
    stats: SolveStats
    # produces the witness paths in lexicographic order, one at a time
    witness_paths: Callable[[], Iterator[EmergyPath]] = field(repr=False, compare=False)

    @cached_property
    def witness(self) -> EmergyState:
        return EmergyState(tuple(self.witness_paths()), self.value)


def _combine(kind: NodeKind, node: int, values: list[Fraction]) -> tuple[Fraction, int | None]:
    """One step of the recursion over a node's live branches, ascending by id.

    Returns the node's value and the index of the one branch it keeps, or
    None when it keeps them all. One branch passes through; a split adds its
    branches (their paths coexist); a co-product keeps the first strictly
    best branch, so ties go to the smallest successor id. Branching anywhere
    else is a structural error.
    """
    if len(values) == 1:
        return values[0], None
    if kind is NodeKind.SPLIT:
        return sum(values), None
    if kind is NodeKind.COPRODUCT:
        best = 0
        for i in range(1, len(values)):
            if values[i] > values[best]:
                best = i
        return values[best], best
    raise ValueError(f"search branches at {kind.value} node {node}")


# A memo entry is (value, paths, witness paths, kept branches); a branch is
# (option, the successor's entry), where an option is (successor index, arc
# weight, its numerator, its denominator). Values are relative to the
# entry's node: products of the arc weights below it, summed over the kept
# paths.
_DEAD = (Fraction(0), 0, 0, ())


class ArcSearch:
    """The solver for one query arc.

    Construction costs two passes over the graph: a topological order, which
    tells whether the graph is acyclic, and the nodes that can reach the arc
    tail. On an acyclic graph the memoized search runs on demand, once per
    start node, and all start nodes share one memo; on a cyclic graph
    `solve` evaluates the enumerated paths instead. Assumes a valid graph:
    positive weights, sources without predecessors.
    """

    def __init__(self, g: EmergyGraph, arc: tuple[int, int]):
        self.g = g
        self.tail, self.head = require_arc(g, arc)
        topo = topological_order(g)
        self.acyclic = topo.order is not None
        self.cycle = topo.cycle
        self.ids = g.nodes
        self.index = index = {v: i for i, v in enumerate(self.ids)}
        # the search enters only nodes that reach the tail, and stops there
        live = reachability_to_target(g, (self.tail, self.head))
        arcs = g.arcs
        self.options = [
            [(index[w], arcs[v, w], arcs[v, w].numerator, arcs[v, w].denominator)
             for w in g.succ[v] if w in live]
            if v in live and v != self.tail else []
            for v in self.ids]
        self.kinds = [g.kind[v] for v in self.ids]
        self.memo: list[tuple | None] = [None] * len(self.ids)
        self.leaf = (arcs[self.tail, self.head], 1, 1, ())

    def entry(self, node: int) -> tuple:
        """The memo entry of `node` on an acyclic graph."""
        if not self.acyclic:
            raise ValueError("the memoized search needs an acyclic graph")
        if node == self.tail:
            return self.leaf
        root = self.index[node]
        found = self.memo[root]
        if found is not None:
            return found
        memo, options, leaf = self.memo, self.options, self.leaf
        tail = self.index[self.tail]
        # a frame is [node, next option, kept branches]
        frames = [[root, 0, []]]
        while True:
            frame = frames[-1]
            v, pos, kept = frame
            opts = options[v]
            while pos < len(opts):
                option = opts[pos]
                w = option[0]
                sub = leaf if w == tail else memo[w]
                if sub is None:
                    frame[1] = pos  # come back for this option's entry
                    frames.append([w, 0, []])
                    break
                pos += 1
                if sub[1]:
                    kept.append((option, sub))
            else:
                frames.pop()
                memo[v] = result = self._entry_of(v, kept)
                if not frames:
                    return result

    def _entry_of(self, v: int, kept: list) -> tuple:
        """The memo entry of node index `v` from its live branches."""
        if not kept:
            return _DEAD
        value, best = _combine(self.kinds[v], self.ids[v],
                               [option[1] * sub[0] for option, sub in kept])
        paths = sum(sub[1] for _, sub in kept)
        if best is None:
            return value, paths, sum(sub[2] for _, sub in kept), kept
        return value, paths, kept[best][1][2], [kept[best]]

    def expand(self, node: int) -> Iterator[EmergyPath]:
        """The kept paths from `node`, in lexicographic order.

        The current path lives on one list and becomes a tuple only at a
        leaf; path values are carried as an integer numerator and
        denominator and become one `Fraction` per path.
        """
        root = self.entry(node)
        if not root[1]:
            return
        ids, leaf, head = self.ids, self.leaf, self.head
        scale = self.g.source_emergy.get(node, Fraction(1))
        if root is leaf:
            yield EmergyPath((node, head), scale * leaf[0])
            return
        last_num, last_den = leaf[0].numerator, leaf[0].denominator
        path = [node]
        frames = [(iter(root[3]), scale.numerator, scale.denominator)]
        while frames:
            branches, num, den = frames[-1]
            for (w, _, w_num, w_den), sub in branches:
                if sub is leaf:
                    value = Fraction(num * w_num * last_num, den * w_den * last_den)
                    yield EmergyPath((*path, ids[w], head), value)
                else:
                    path.append(ids[w])
                    frames.append((iter(sub[3]), num * w_num, den * w_den))
                    break
            else:
                frames.pop()
                path.pop()

    def solve(self, method: str = "cotree") -> SolveResult:
        """Solve from every source, ascending.

        On an acyclic graph the witness stays unexpanded until asked for.
        """
        started = time.perf_counter()
        if not self.acyclic:
            paths = enumerate_emergy_paths(self.g, (self.tail, self.head))
            value, kept, tree_nodes = self._evaluate(paths)
            stats = SolveStats(len(paths), len(kept), tree_nodes,
                               time.perf_counter() - started)
            return SolveResult(value, method, stats, lambda: iter(kept))
        value, paths, witness = Fraction(0), 0, 0
        roots = []
        for s in self.g.sources:
            entry = self.entry(s)
            if entry[1]:
                value += self.g.source_emergy[s] * entry[0]
                paths += entry[1]
                witness += entry[2]
                roots.append(s)
        tree_nodes = sum(entry is not None for entry in self.memo)
        stats = SolveStats(paths, witness, tree_nodes, time.perf_counter() - started)

        def expand() -> Iterator[EmergyPath]:
            for s in roots:
                yield from self.expand(s)

        return SolveResult(value, method, stats, expand)

    def _evaluate(self, paths: list[EmergyPath]) -> tuple[Fraction, list[EmergyPath], int]:
        """The value, kept paths and tree size of the paths' prefix trees.

        The paths come in lexicographic order, so the trees are walked with
        one stack of open nodes, each holding the (value, kept paths) of its
        closed children: a path closes the open nodes below its common
        prefix with the previous path, opens the rest of its own, and joins
        the last one as a leaf. Path values are whole, so a closed node only
        combines its children; a closed root adds to the total.
        """
        value, kept, tree_nodes = Fraction(0), [], 0
        stack: list[tuple[int, list]] = []
        previous: tuple[int, ...] = ()
        for p in [*paths, None]:
            nodes = p.nodes if p is not None else ()
            common, limit = 0, min(len(previous), len(nodes)) - 1
            while common < limit and previous[common] == nodes[common]:
                common += 1
            while len(stack) > common:
                node, children = stack.pop()
                total, best = _combine(self.g.kind[node], node, [v for v, _ in children])
                chosen = ([q for _, part in children for q in part] if best is None
                          else children[best][1])
                if stack:
                    stack[-1][1].append((total, chosen))
                else:
                    value += total
                    kept += chosen
            if p is None:
                break
            tree_nodes += len(nodes) - common
            stack.extend((v, []) for v in nodes[common:-1])
            stack[-1][1].append((p.value, [p]))
            previous = nodes
        return value, kept, tree_nodes


def solve_general(g: EmergyGraph, arc: tuple[int, int]) -> SolveResult:
    """Maximum empower of `arc`: the memoized search on an acyclic graph,
    the enumerated paths' prefix trees on a cyclic one.

    Returns value 0 with an empty witness when no source reaches the arc.
    """
    return ArcSearch(g, arc).solve()


def brute_force_solve(g: EmergyGraph, arc: tuple[int, int], cap: int = 20) -> SolveResult:
    """Exhaustive maximization over all pairwise-compatible path subsets.

    The oracle the search is tested against; refuses more than `cap`
    paths. Ties are broken toward the lexicographically smallest path set.
    """
    started = time.perf_counter()
    paths = enumerate_emergy_paths(g, arc)
    n = len(paths)
    if n > cap:
        raise ValueError(f"{n} paths exceed the brute-force cap {cap}")
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if compatible(g, paths[i].nodes, paths[j].nodes):
                masks[i] |= 1 << j
                masks[j] |= 1 << i

    best_value = Fraction(0)
    best_members: tuple[int, ...] = ()

    def mask_sum(mask: int) -> Fraction:
        total = Fraction(0)
        while mask:
            bit = mask & -mask
            mask ^= bit
            total += paths[bit.bit_length() - 1].value
        return total

    def grow(members: tuple[int, ...], value: Fraction, candidates: int):
        # every subset of `candidates` extends `members` to a compatible set;
        # branches that cannot tie the best even taking everything are dead
        # (values are positive, so the bound is sound and ties survive)
        nonlocal best_value, best_members
        if value > best_value or (value == best_value and members < best_members):
            best_value, best_members = value, members
        rest = candidates
        while rest:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            picked = value + paths[i].value
            remaining = rest & masks[i]
            if picked + mask_sum(remaining) < best_value:
                continue
            grow(members + (i,), picked, remaining)

    grow((), Fraction(0), (1 << n) - 1)
    chosen = tuple(sorted(paths[i] for i in best_members))
    stats = SolveStats(n, len(chosen), 0, time.perf_counter() - started)
    return SolveResult(best_value, "brute", stats, lambda: iter(chosen))

"""General-case maximum empower solver.

The emergy paths of one source, laid out as a prefix tree, decompose the
compatibility structure exactly: branches under a split node are mutually
compatible (take them all, add), branches under a co-product are mutually
exclusive (take the best one). `solve_general` evaluates that recursion
with one iterative depth-first path search per source, whose search tree
is that prefix tree, and never lists the paths: the witness, which can hold
exponentially many paths (2^k on a diamond chain of k layers), stays in the
search's entries as the branches each one kept and becomes paths only when
asked for, one at a time, already in lexicographic order.

What the search finds below a node depends on the path that led there
only through the on-path nodes it can reach, and those all lie in its
strongly connected component of the graph the search walks. So where the
path enters a new component the search keeps its entry in a per-node memo
and reads it back: on an acyclic graph that is every node, visited once.
Inside a component it skips the successors on the current path, and those
it found dead (with no way on to the tail) while the path they were found
under stands. Two more rules there come from the structure of the tail's
table: it skips a successor whose immediate post-dominator in the
component is on the path or found dead, and in a dense component it shares
an entry between the paths that hold the same nodes of that component. Its
cost there stays exponential (counting simple paths reduces to this
problem, see `empower.hardness`). The search reads the index form
`EmergyGraph` holds and one `TailTable` per arc tail, which `tail_table`
derives on the first query with that tail and keeps on the graph: the live
options, their components, the post-dominators and the dense-component
bits.

The search is keyed on the arc tail alone. An emergy path of arc (t, h) is
a simple path from a source to t followed by h, so the head never changes
what is compatible, and its weight, a positive factor common to every
path, changes no comparison and no tie: `solve_general` multiplies the
tail's total by w(t, h) once and appends h to each witness path.

The expansion walks the kept branches depth first. A pass-through entry,
one with a single kept branch, is followed inline; a branching entry, one
with several, gets a frame, and each of its later branches starts with one
slice assignment of the path. A branching entry is met once per path into
it; on an acyclic graph, where the memo shares every entry between the
predecessors of its node, that is many times. So there an entry of at most
`_SMALL` witness paths gets runs toward a head on its first meeting: all
of its witness paths from its successors on, each ending with the head,
with its weight product as an unreduced integer pair, or none, where they
would hold more than `_HELD` node ids. Every meeting of an entry with runs,
from any source and in any later expansion toward that head, emits its
paths with no frame in one loop: each path is one tuple concatenation of
the path so far and a run, and a value is computed only where a run's
weight product differs from the previous run's. Per path the work thus
follows the branch points above the small entries that change, and as the
runs kept per head and node hold at most `_HELD` node ids each, the
witness still streams. One search serves every arc out of its tail, each
head with its own runs. Every other branch is stepped node by node: on a
graph with a cycle an entry inside a component belongs to one path prefix,
so most entries are met once and building their runs would cost more than
it saves. That includes a long pass-through stretch below an entry of more
than `_SMALL` paths, or of runs over `_HELD`, which is stepped again at
every meeting: expanding a 10-layer diamond chain whose arms are lines of
200 pass-through nodes takes 1.4-1.7 times as long as copying each arm
as one run did.

The arc's path listing is a solve too (`solve_listing`): that recursion
with every branch point read as a split. Its search (`ListingSearch`)
keeps and adds every branch, a co-product's too, so its witness is every
emergy path of the arc, counted before any is listed (`path_count ==
witness_count`), and its value is their total. It runs the one root loop
(`_solve`) and the same expansion, so it closes dead nodes and memoizes as
a solve does and holds its entries: one per node on an acyclic graph, each
source's tree of live prefixes on a graph with a cycle, which on a
split-only graph is the tree a solve keeps for its witness and which
shares its entries inside dense components. `paths.iter_emergy_paths`
yields its witness. `EmergyPath`, the path type of witnesses and listings
alike, is defined here, beside the expansion that builds every one;
`empower.paths` imports it from here.

`brute_force_solve` maximizes over all compatible subsets directly and
exists purely as an oracle for small instances. It runs one listing: the
count for its cap, then the paths for its compatibility graph.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Callable, Iterator, NamedTuple

from .graph import EmergyGraph, NodeKind, components, require_arc


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


class EmergyState(NamedTuple):
    """A set of pairwise compatible paths with its total value."""

    paths: tuple[EmergyPath, ...]
    value: Fraction


class SolveStats(NamedTuple):
    """What a solve did: emergy paths of the arc, witness paths, and the
    search's frames: one per node entered from another strongly connected
    component, which the memo then holds, and one per path prefix entered
    inside a component. There a node found dead is not entered again while
    its path stands, a node whose immediate post-dominator is on the path
    or dead is not entered at all, and in a dense component a node is
    entered once per set of that component's nodes on the path before it.
    On an acyclic graph that is one per memo entry."""

    path_count: int
    witness_count: int
    tree_nodes: int


class SolveResult:
    """The optimum of one query, or from `solve_listing` the total of all
    the arc's emergy paths; the witness is expanded on first use.

    `witness_paths()` produces the witness paths in lexicographic order,
    one at a time.
    """

    def __init__(self, value: Fraction, stats: SolveStats,
                 witness_paths: Callable[[], Iterator[EmergyPath]]):
        self.value = value
        self.stats = stats
        self.witness_paths = witness_paths

    def __repr__(self) -> str:
        return f"SolveResult(value={self.value!r}, stats={self.stats!r})"

    @cached_property
    def witness(self) -> EmergyState:
        return EmergyState(tuple(self.witness_paths()), self.value)


# An entry is one flat tuple (value numerator, value denominator, paths,
# witness paths, option, entry, option, entry, ...): each kept branch is an
# option, (successor index, arc weight numerator, its denominator), followed
# by the successor's entry. Values are relative to the entry's node: products
# of the arc weights from it down to the tail, summed over the kept paths;
# the tail's own entry is `_UNIT`. Products stay unreduced and only sums are
# reduced, so the search builds no `Fraction`, which costs more per step than
# the arithmetic. The tuple is flat because inside a strongly connected
# component the search keeps an entry per path prefix, and the garbage
# collector walks every container that stays alive.
_UNIT = (1, 1, 1, 1)
_DEAD = (0, 1, 0, 0)
# the most witness paths of a branching entry that gets runs (see
# `TailSearch._runs`); expanding `diamond_chain(13)`'s 8,192 paths took
# 1.22 / 1.03 / 1 / 0.99 / 1.09 times as long at 8 / 32 / 64 / 256 / 1,024
# as at 64, and the nine random DAGs of `scripts/bench.py witness` 1.00 /
# 0.99 / 1 / 1.09 / 1.35 (`_HELD` the square of each; medians of 4 rounds,
# each the median of 60 expansions interleaved in one process; Python
# 3.11.7 on a shared 2-vCPU host)
_SMALL = 64
# the most node ids, heads included, an entry's runs may hold, else it
# keeps none: `_SMALL` runs of `_SMALL` ids on average. Without it a line of
# small branch points above long pass-through stretches copies each stretch
# into every entry above it: streaming the witness of a ladder of 64 paths
# over stretches of 1,000 nodes peaked at 16 MiB, and with it at 0.14 MiB
# (`tracemalloc`, Python 3.11.7)
_HELD = _SMALL * _SMALL


class TailTable(NamedTuple):
    """The graph the search toward one arc tail walks, and the structure
    its rules read (see `tail_table`)."""

    options: list
    comp: list[int]
    ipdom: list[int] | None
    bits: list[int] | None


def tail_table(g: EmergyGraph, tail: int) -> TailTable:
    """The table of arc tail index `tail`, derived on first use and kept in
    `g.tails`, so every search and listing toward that tail shares it.

    `options[v]` are node index `v`'s successor options that can still
    reach the tail; the tail's own are cut, because every path stops there.
    So a walk over them never enters a node that cannot reach the tail and
    never leaves the tail. `comp[v]` is the id of `v`'s strongly connected
    component in that graph; the tail is a component alone.

    `ipdom[w]` is w's immediate post-dominator within its component: the
    nearest node d != w of it that every way from w to the tail passes
    through, or the tail when there is none. A way out of a component never
    comes back and ends at the tail, so the tail stands for every way out:
    the post-dominators are the dominators of the component's arcs
    reversed, rooted at the tail. `bits[w]` is w's bit in its component
    when that component is dense, with at least 3 arcs inside it per node,
    and 0 otherwise. Both are None when every component is a single node,
    as on every acyclic graph.
    """
    found = g.tails.get(tail)
    if found is not None:
        return found
    pred = g.pred
    live = [False] * len(pred)
    live[tail] = True
    frontier = [tail]
    while frontier:
        for p in pred[frontier.pop()]:
            if not live[p]:
                live[p] = True
                frontier.append(p)
    options = []
    for v, succ in enumerate(g.options):
        kept = [option for option in succ if live[option[0]]] if live[v] and v != tail else ()
        # the tables are kept, so a node that keeps every option shares the
        # graph's list instead of a copy
        options.append(succ if len(kept) == len(succ) else kept)
    comp = components(options)
    ipdom = bits = None
    if not g.acyclic and max(comp) + 1 < len(comp):
        ipdom, bits = [tail] * len(comp), [0] * len(comp)
        members: list[list[int]] = [[] for _ in range(max(comp) + 1)]
        for v, c in enumerate(comp):
            members[c].append(v)
        for nodes in members:
            if len(nodes) < 2:
                continue
            here = comp[nodes[0]]
            out = {v: {w if comp[w] == here else tail for w, _, _ in options[v]} for v in nodes}
            for v, d in _dominators(out, tail).items():
                ipdom[v] = d
            if sum(len(ws) - (tail in ws) for ws in out.values()) >= 3 * len(nodes):
                for i, v in enumerate(nodes):
                    bits[v] = 1 << i
    found = g.tails[tail] = TailTable(options, comp, ipdom, bits)
    return found


def _dominators(out: dict[int, set[int]], root: int) -> dict[int, int]:
    """The immediate dominator of each node of the graph `out` (successor
    sets) reversed, in which `root` reaches every node, by Lengauer and
    Tarjan's algorithm with path compression ("A fast algorithm for finding
    dominators in a flowgraph", TOPLAS 1979). Cooper, Harvey and Kennedy's
    iterative algorithm is shorter, but on a component with long cycles
    both ways it takes a pass per node, each walking the tree built so far:
    5 s on a ring of 3,000 nodes with arcs both ways, where this takes
    11-21 ms."""
    into: dict[int, list[int]] = {root: [], **{v: [] for v in out}}
    for v, ws in out.items():
        for w in ws:
            into[w].append(v)
    # a depth-first preorder of the reversed graph, and each node's parent
    order, parent, stack = [], {}, [(root, root)]
    while stack:
        v, p = stack.pop()
        if v not in parent:
            parent[v] = p
            order.append(v)
            stack.extend((u, v) for u in into[v] if u not in parent)
    semi = {v: i for i, v in enumerate(order)}
    label, link, idom, bucket = {v: v for v in order}, {}, {}, {}

    def least(v: int) -> int:
        """The node of least semidominator on v's linked path up the tree,
        whose links it shortens to the path's top."""
        chain, u = [], v
        while u in link and link[u] in link:
            chain.append(u)
            u = link[u]
        for u in reversed(chain):
            up = link[u]
            if semi[label[up]] < semi[label[u]]:
                label[u] = label[up]
            link[u] = link[up]
        return label[v]

    for w in reversed(order[1:]):
        for v in out[w]:
            semi[w] = min(semi[w], semi[least(v)])
        bucket.setdefault(order[semi[w]], []).append(w)
        p = link[w] = parent[w]
        for v in bucket.pop(p, ()):
            u = least(v)
            idom[v] = u if semi[u] < semi[v] else p
    for w in order[1:]:
        if idom[w] != order[semi[w]]:
            idom[w] = idom[idom[w]]
    return idom


class TailSearch:
    """The path search toward one arc tail. It never reads an arc's head or
    weight, so its entries serve every arc out of the tail alike.

    It walks the tail's table (`tail_table`) and keeps its fields
    `options`, `comp`, `ipdom` and `bits`: the options into nodes that can
    reach the tail, the strongly connected components of the graph they
    form, and what the rules of `entry` read. Construction keeps the memo,
    which holds the tail's unit entry and nothing else yet. The search runs
    on demand, once per start node, and all start nodes share the memo and
    `shared`, the entries of dense components (see `entry`). `expand` turns
    an entry into its kept paths toward one head. On an acyclic graph it
    keeps in `runs[head]`, per branching entry of at most `_SMALL` witness
    paths it meets, either all of that entry's witness paths as runs, each
    ending with the head, or `()` where those would hold more than `_HELD`
    node ids (see `_runs`). Assumes a valid graph: positive weights,
    sources without predecessors.
    """

    # whether every branch point keeps all its branches, a listing's
    keeps_all = False

    def __init__(self, g: EmergyGraph, tail: int):
        self.g = g
        tail = g.index[tail]
        # the search enters only nodes that reach the tail, and stops there
        self.options, self.comp, self.ipdom, self.bits = tail_table(g, tail)
        # the entries inside dense components, per node and path mask
        self.shared: defaultdict[int, dict[int, tuple]] = defaultdict(dict)
        # the entries that do not depend on the path that led to their node:
        # those of the roots and of the nodes entered from another component
        self.memo: list[tuple | None] = [None] * len(g.nodes)
        self.memo[tail] = _UNIT
        # the nodes the path may not enter: those on it and those found dead
        # while their path stands (see `entry`); between searches, those left
        # are dead on every path
        self.on_path = [False] * len(g.nodes)
        self.frame_count = 0
        # on an acyclic graph the memo holds every node's one entry, and
        # `expand` keeps here, per head, the runs of each small branching
        # one it has met, or `()`
        self.runs: dict[int, dict[int, list | tuple]] | None = {} if g.acyclic else None

    def entry(self, node: int) -> tuple:
        """The search's entry for `node` as the first node of the paths,
        from the memo when an earlier search kept it.

        The search keeps an entry in the memo where the path enters a new
        strongly connected component of the live graph, and reads it back
        there. The entry of such a node w does not depend on the path that
        led to it: an on-path node that w could reach would close a cycle
        through the node the path entered w from, putting that node in w's
        component, which it is not in. The tail is a component of its own,
        so its entry, `_UNIT`, is always found.
        A node with no live branch is dead and one with a single branch
        passes it through, with the arc weight multiplied in; only a node
        with several branches goes to `_combine`.

        A dead node stays closed, on `on_path` and on the list `dead`, and a
        frame that pops live reopens its node and every node found dead
        since its push. A node found dead while frame f is on the stack has
        no way on to the tail that avoids the path. If f pops dead, that
        still holds for f's parent: a way on either avoids f, and was cut
        already, or passes through f, which is dead too. If f pops live, its
        marks may have depended on f, so they go. What a root leaves closed
        is dead on every path, so nothing is cleared between searches.

        Inside a component two rules from the table's structure cut more
        (`TailTable.ipdom` and `.bits`). A successor w whose immediate
        post-dominator d is on `on_path` gets no frame: every way on from w
        passes through d, which is on the path or has no way on that avoids
        it. The tail stands for
        "no post-dominator" and never enters `on_path`. The dead marks still
        close what no single node cuts off, such as a region whose ways on
        leave through two on-path nodes, which would otherwise be entered
        once per ordering of its nodes.
        In a dense component, one with at least 3 arcs inside it per node,
        an entry is kept in `shared` under its node and the mask of the
        component's nodes on the path before it, and read back there: what
        the search finds below w depends on the path only through the
        on-path nodes w can reach, which all lie in w's component. Each
        frame carries that mask; a successor's is its parent's with the
        parent's bit added. The threshold is a policy on structure. The
        components of cyclic-core's arc tails (`perfbench`, seeds 1-6) have
        1.0-2.7 arcs inside per node, and sharing in every component cost
        those queries 20-40% for 1-2% fewer frames. The counting reductions
        have 4-7 (`random_digraph(12, 0.6, 1)`: 6.2), where sharing takes
        the search from 101,547 frames to 3,886.
        """
        root = self.g.index[node]
        memo = self.memo
        found = memo[root]
        if found is not None:
            return found
        options, comp, on_path = self.options, self.comp, self.on_path
        ipdom, bits, shared = self.ipdom, self.bits, self.shared
        combine = self._combine
        on_path[root] = True
        dead = []
        # a frame is (node, its component, its options not yet tried, kept
        # branches flat, the option leading to it, len(dead) at its push,
        # and in a dense component the mask its entry is shared under)
        frames = [(root, comp[root], iter(options[root]), [], None, 0, 0)]
        count = 1
        while True:
            v, here, untried, kept, via, marks, key = frames[-1]
            for option in untried:
                w = option[0]
                there = comp[w]
                if there != here:
                    sub = memo[w]
                    if sub is not None:
                        if sub[2]:
                            kept += option, sub
                        continue
                    # a node of another component is closed only when found dead
                    if on_path[w]:
                        continue
                    mask = 0
                elif on_path[w] or on_path[ipdom[w]]:
                    continue
                elif bits[w]:
                    mask = key | bits[v]
                    sub = shared[w].get(mask)
                    if sub is not None:
                        if sub[2]:
                            kept += option, sub
                        continue
                else:
                    mask = 0
                on_path[w] = True
                frames.append((w, there, iter(options[w]), [], option, len(dead), mask))
                count += 1
                break
            else:
                frames.pop()
                if not kept:
                    result = _DEAD
                    dead.append(v)
                else:
                    on_path[v] = False
                    if len(dead) > marks:
                        for x in dead[marks:]:
                            on_path[x] = False
                        del dead[marks:]
                    if len(kept) == 2:
                        (_, w_num, w_den), sub = kept
                        result = (w_num * sub[0], w_den * sub[1], sub[2], sub[3], *kept)
                    else:
                        result = combine(v, kept)
                if not frames:
                    memo[v] = result
                    self.frame_count += count
                    return result
                parent = frames[-1]
                if parent[1] != here:
                    memo[v] = result
                elif bits[v]:
                    shared[v][key] = result
                if result[2]:
                    parent[3].extend((via, result))

    def _combine(self, v: int, kept: list) -> tuple:
        """The entry of node index `v` from two or more live branches,
        ascending by id and flat (option, entry, option, entry, ...).

        A split adds its branches (their paths coexist) and reduces the sum,
        as every branch point of a listing does (`keeps_all`); a co-product
        keeps the first strictly best branch, so ties go to the smallest
        successor id. Branching anywhere else is a structural error.
        """
        kind, paths, branches = self.g.kinds[v], 0, iter(kept)
        if kind is NodeKind.SPLIT or self.keeps_all:
            num, den, witness = 0, 1, 0
            for (_, w_num, w_den), sub in zip(branches, branches):
                n, d = w_num * sub[0], w_den * sub[1]
                num, den = num * d + n * den, den * d
                paths += sub[2]
                witness += sub[3]
            common = gcd(num, den)
            return num // common, den // common, paths, witness, *kept
        if kind is NodeKind.COPRODUCT:
            best, num, den = None, 0, 1
            for option, sub in zip(branches, branches):
                n, d = option[1] * sub[0], option[2] * sub[1]
                paths += sub[2]
                if best is None or n * den > num * d:
                    best, num, den = (option, sub), n, d
            return num, den, paths, best[1][3], *best
        raise ValueError(f"search branches at {kind.value} node {self.g.nodes[v]}")

    def expand(self, node: int, root: tuple, num: int, den: int, head: int) -> Iterator[EmergyPath]:
        """The kept paths of `root`, the entry of source `node`, in
        lexicographic order, valued from `num`/`den`, the source's emergy
        times the weight of the arc into `head`, and each followed by `head`.

        The current path lives on one list and becomes a tuple only at the
        tail; path values are carried as an integer numerator and
        denominator and become one `Fraction` per distinct unreduced value
        in a row: a path whose product equals the previous path's shares
        its `Fraction` (every path of a diamond chain does). A pass-through
        entry (one kept branch) is followed inline. A branching entry
        (several kept branches) gets a frame, [the entry, index of its next
        branch, numerator, denominator, path length]: its first branch is
        followed inline, and each later one replaces the path's tail with
        its node in one slice assignment.

        On an acyclic graph a branching entry of at most `_SMALL` witness
        paths whose runs toward `head` fit (see `_runs`) gets no frame: the
        path so far becomes a tuple once, each of its paths is one
        concatenation of that prefix and a run, and a value is computed
        only for a run whose weight product differs from the previous
        run's. Its runs are built on its first meeting and reused at every
        later one, from any source and in any later expansion toward
        `head`.
        """
        if not root[2]:
            return
        ids = self.g.nodes
        table = None if self.runs is None else self.runs.setdefault(head, {})
        # builds the named tuple without its Python-level constructor call
        new = tuple.__new__
        # v is the index of the node whose entry is `entry`
        path, frames, entry, v = [node], [], root, self.g.index[node]
        seen_num = seen_den = value = None
        while True:
            while entry is not _UNIT:
                if len(entry) > 6:
                    if table is not None and entry[3] <= _SMALL:
                        runs = table.get(v)
                        if runs is None:
                            runs = self._runs(v, entry, head)
                        if runs:
                            prefix, r_num = tuple(path), None
                            for nodes, w_num, w_den in runs:
                                if w_num != r_num or w_den != r_den:
                                    r_num, r_den, n, d = w_num, w_den, num * w_num, den * w_den
                                    if n != seen_num or d != seen_den:
                                        seen_num, seen_den, value = n, d, Fraction(n, d)
                                yield new(EmergyPath, (prefix + nodes, value))
                            break
                    frames.append([entry, 6, num, den, len(path)])
                (v, w_num, w_den), entry = entry[4], entry[5]
                path.append(ids[v])
                num *= w_num
                den *= w_den
            else:
                if num != seen_num or den != seen_den:
                    seen_num, seen_den, value = num, den, Fraction(num, den)
                # the next path's slice assignment cuts the head off again
                path.append(head)
                yield new(EmergyPath, (tuple(path), value))
            if not frames:
                return
            frame = frames[-1]
            branching, i, num, den, length = frame
            if i + 2 < len(branching):
                frame[1] = i + 2
            else:
                frames.pop()
            (v, w_num, w_den), entry = branching[i], branching[i + 1]
            path[length:] = (ids[v],)
            num *= w_num
            den *= w_den

    def _runs(self, v: int, entry: tuple, head: int) -> list | tuple:
        """The runs of node index `v`'s branching `entry` toward `head`, kept
        in `runs[head]`: one per witness path, (its node ids from the
        successor on, ending with `head`, its weight product's numerator,
        its denominator), or `()` where they would hold more than `_HELD`
        node ids. A branch walks its pass-through entries to the tail, where
        its one run takes `head`, or to a branching entry, whose runs it
        takes with its own nodes in front; where those are `()`, so are
        these."""
        ids, table = self.g.nodes, self.runs[head]
        runs, held = [], 0
        for i in range(4, len(entry), 2):
            (w, r_num, r_den), sub = entry[i], entry[i + 1]
            nodes = [ids[w]]
            while len(sub) == 6:
                (w, w_num, w_den), sub = sub[4], sub[5]
                nodes.append(ids[w])
                r_num *= w_num
                r_den *= w_den
            if sub is _UNIT:
                nodes.append(head)
                runs.append((tuple(nodes), r_num, r_den))
                held += len(nodes)
            else:
                below = table.get(w)
                if below is None:
                    below = self._runs(w, sub, head)
                if not below:
                    runs = ()
                    break
                nodes = tuple(nodes)
                runs += [(nodes + more, r_num * n, r_den * d) for more, n, d in below]
                held += len(nodes) * len(below) + sum(len(run[0]) for run in below)
            if held > _HELD:
                runs = ()
                break
        table[v] = runs
        return runs


class ListingSearch(TailSearch):
    """The search that keeps every live branch, whatever the node's kind,
    and adds them as a split does, so its entries count and value every
    path and its expansion is the arc's listing."""

    keeps_all = True


def _solve(g: EmergyGraph, arc: tuple[int, int], search_class: type[TailSearch]) -> SolveResult:
    """The search of `search_class` toward the arc tail from every source,
    ascending, with the witness unexpanded until asked for. The total is
    summed as an unreduced integer pair, multiplied by the arc weight once
    and becomes one `Fraction` at the end; it is 0, with an empty witness,
    when no source reaches the arc."""
    tail, head = require_arc(g, arc)
    w_num, w_den = g.arcs[tail, head].as_integer_ratio()
    search = search_class(g, tail)
    num, den, paths, witness = 0, 1, 0, 0
    roots = []
    for s in g.sources:
        entry = search.entry(s)
        if entry[2]:
            e_num, e_den = g.source_emergy[s].as_integer_ratio()
            n, d = e_num * entry[0], e_den * entry[1]
            num, den = num * d + n * den, den * d
            paths += entry[2]
            witness += entry[3]
            roots.append((s, entry, e_num * w_num, e_den * w_den))
    stats = SolveStats(paths, witness, search.frame_count)

    def expand() -> Iterator[EmergyPath]:
        return chain.from_iterable(search.expand(*root, head) for root in roots)

    return SolveResult(Fraction(num * w_num, den * w_den), stats, expand)


def solve_general(g: EmergyGraph, arc: tuple[int, int]) -> SolveResult:
    """Maximum empower of `arc`, with its witness: the paths of the best
    compatible set, expanded on first use (see `_solve`)."""
    return _solve(g, arc, TailSearch)


def solve_listing(g: EmergyGraph, arc: tuple[int, int]) -> SolveResult:
    """The listing of `arc` as a solve: its witness is every emergy path of
    the arc, so `stats.path_count == stats.witness_count` counts them before
    any is listed, `witness_paths()` lists them in lexicographic order and
    `value` is their total."""
    return _solve(g, arc, ListingSearch)


def brute_force_solve(g: EmergyGraph, arc: tuple[int, int], cap: int = 20) -> SolveResult:
    """Exhaustive maximization over all pairwise-compatible path subsets.

    The oracle the search is tested against. It runs one listing, refuses
    more than `cap` paths from its count before any path is listed, and
    past that guard builds the compatibility graph from its paths. Ties are
    broken toward the lexicographically smallest path set.
    """
    from .compat import compatibility_graph  # only this oracle needs it

    listing = solve_listing(g, arc)
    count = listing.stats.path_count
    if count > cap:
        raise ValueError(f"{count} paths exceed the brute-force cap {cap}")
    cg = compatibility_graph(g, listing.witness_paths())
    paths, masks, n = cg.vertices, cg.adjacency, len(cg.vertices)

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
    stats = SolveStats(n, len(chosen), 0)
    return SolveResult(best_value, stats, lambda: iter(chosen))

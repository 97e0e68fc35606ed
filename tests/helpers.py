"""Independent oracles and small utilities shared across the test modules.

Everything here deliberately avoids the package's clever code paths: the
path oracle enumerates every bounded walk and filters by the definition, the
listing oracle backtracks from each source over the raw successor lists, the
induced-path oracle scans raw vertex quadruples, the subset maximizer grows
compatible sets directly from the relation, the trie oracle builds each
source's prefix trie from the listing oracle's paths and evaluates it
bottom-up, and the clique oracle decomposes the compatibility graph of the
listing oracle's paths as a cograph. `emergy_graphs` draws small valid
graphs for the property tests; `family_instances` and `cyclic_core_graphs`
make the generator families', and `random_no_split_graph` and `ladder` the
instances only the tests use. `reference_parse_graph`,
`reference_parse_digraph` and `reference_validate_graph` are the package's
loaders as they were before the one-pass rewrite (a regex tokenizer,
`Fraction` arithmetic throughout): the oracles for its error positions,
messages and reports.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, groupby
from typing import Iterable, Sequence

from hypothesis import strategies as st

from empower.compat import CompatibilityGraph, compatible, find_induced_p4
from empower.generators import (
    diamond_chain,
    random_cyclic,
    random_dag,
    random_digraph,
)
from empower.graph import EmergyGraph, NodeKind, ParseError, Violation, require_arc
from empower.hardness import Digraph, build_reduction
from empower.paths import EmergyPath
from empower.solver import TailSearch


def random_no_split_graph(nodes: int, seed: int) -> EmergyGraph:
    """A valid instance whose intermediates are all co-products.

    Every weight is then 1, so the empower of any arc is the sum of the
    emergies of the sources that reach it. Occasionally adds a cycle-closing
    back arc between co-products (free: co-product weights need no rebalance).
    """
    if nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = random.Random(seed)
    n_src = 1 if nodes < 5 else rng.randint(1, 2)
    n_out = min(2, nodes - n_src)
    sources = list(range(1, n_src + 1))
    outs = list(range(nodes - n_out + 1, nodes + 1))
    inner = list(range(n_src + 1, nodes - n_out + 1))
    if inner and n_out < 2:
        raise ValueError("co-products need two successors; too few nodes")
    kinds: dict[int, NodeKind] = {}
    emergy: dict[int, Fraction] = {}
    arcs: dict[tuple[int, int], Fraction] = {}
    for s in sources:
        kinds[s] = NodeKind.SOURCE
        emergy[s] = Fraction(rng.randint(1, 60), rng.randint(1, 5))
        arcs[(s, rng.choice(inner) if inner else rng.choice(outs))] = Fraction(1)
    for o in outs:
        kinds[o] = NodeKind.OUTPUT
    for i in inner:
        kinds[i] = NodeKind.COPRODUCT
        later = [j for j in inner if j > i] + outs
        chosen = {j for j in later if rng.random() < 0.5}
        while len(chosen) < 2:
            chosen.add(rng.choice(later))
        for j in sorted(chosen):
            arcs[(i, j)] = Fraction(1)
    if len(inner) >= 2 and rng.random() < 0.5:
        i, j = sorted(rng.sample(inner, 2))
        if (j, i) not in arcs:
            arcs[(j, i)] = Fraction(1)
    return EmergyGraph(kinds, emergy, arcs)


def family_instances(seed: int):
    """One instance of every generator family (cyclic ones when they exist)."""
    yield diamond_chain(seed % 6, Fraction(1 + seed % 5, 3))[0]
    yield random_dag(4 + seed % 9, 0.5, seed)
    try:
        yield random_cyclic(6 + seed % 6, 0.5, 1 + seed % 3, seed)
    except ValueError:
        pass
    yield random_no_split_graph(4 + seed % 7, seed)
    yield build_reduction(random_digraph(2 + seed % 5, 0.5, seed)).graph


def cyclic_core_graphs() -> list[EmergyGraph]:
    """`random_cyclic(24, 0.26, 4, seed)` for seeds 0-19: the shape of the
    benchmark's cyclic-core workload, too large for the trie and brute-force
    oracles."""
    return [random_cyclic(24, 0.26, 4, seed) for seed in range(20)]


def ladder(stretch: int, rungs: int = 63) -> tuple[EmergyGraph, tuple[int, int]]:
    """Source 1 feeding splits 2..rungs+1 in a line; each also feeds its own
    line of `stretch` (at least 1) pass-through splits into the arc tail,
    and the last one feeds the tail directly too: rungs + 1 witness paths,
    every branch point above long pass-through stretches. Returns the graph
    and its one output arc."""
    tail, out = rungs + 2, rungs + 3
    kinds = {1: NodeKind.SOURCE, tail: NodeKind.SPLIT, out: NodeKind.OUTPUT}
    arcs = {(1, 2): Fraction(1), (tail, out): Fraction(1)}
    first = out + 1
    for rung in range(2, rungs + 2):
        kinds[rung] = NodeKind.SPLIT
        arcs[rung, rung + 1 if rung <= rungs else tail] = Fraction(1, 2)
        line = [rung, *range(first, first + stretch), tail]
        first += stretch
        for a, b in zip(line, line[1:]):
            kinds.setdefault(b, NodeKind.SPLIT)
            arcs[a, b] = Fraction(1, 2) if a == rung else Fraction(1)
    return EmergyGraph(kinds, {1: Fraction(1)}, arcs), (tail, out)


def successors(g: EmergyGraph) -> dict[int, tuple[int, ...]]:
    """Each node id's successor ids ascending, read from `g.arcs` alone, so
    the oracles share nothing the package derives."""
    succ: dict[int, list[int]] = {v: [] for v in g.kind}
    for a, b in sorted(g.arcs):
        succ[a].append(b)
    return {v: tuple(out) for v, out in succ.items()}


def path_value(g: EmergyGraph, path: Sequence[int] | None) -> Fraction:
    """Value of a path: 0 for no path, 1 for a zero-arc path, otherwise the
    product of its arc weights, scaled by the source emergy when the path
    starts at a source."""
    if path is None:
        return Fraction(0)
    path = tuple(path)
    if len(path) <= 1:
        return Fraction(1)
    value = Fraction(1)
    for tail, head in zip(path, path[1:]):
        try:
            value *= g.arcs[(tail, head)]
        except KeyError:
            raise ValueError(f"({tail}, {head}) is not an arc") from None
    if g.kind.get(path[0]) is NodeKind.SOURCE:
        value *= g.source_emergy[path[0]]
    return value


def reachability_to_target(g: EmergyGraph, arc: tuple[int, int]) -> frozenset[int]:
    """Nodes with a directed path to the arc tail, the tail included: a
    breadth-first search back from the tail over `successors(g)` reversed."""
    tail, _ = require_arc(g, arc)
    pred: dict[int, list[int]] = {v: [] for v in g.kind}
    for v, out in successors(g).items():
        for w in out:
            pred[w].append(v)
    seen, frontier = {tail}, deque([tail])
    while frontier:
        for v in pred[frontier.popleft()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return frozenset(seen)


def pairwise_compatible(g: EmergyGraph, paths: Sequence[EmergyPath]) -> bool:
    """True when every pair in `paths` is compatible (a valid emergy state)."""
    return all(
        compatible(g, a.nodes, b.nodes) for a, b in combinations(paths, 2))


def is_p4_free(cg: CompatibilityGraph, cap: int = 400) -> bool:
    """True when the compatibility graph has no induced four-vertex path."""
    return find_induced_p4(cg, cap) is None


def satisfies_path_definition(g: EmergyGraph, seq: tuple[int, ...], arc: tuple[int, int]) -> bool:
    """Literal check of the emergy-path definition for a query arc."""
    if len(seq) < 2 or (seq[-2], seq[-1]) != arc:
        return False
    if g.kind.get(seq[0]) is not NodeKind.SOURCE:
        return False
    if any(g.kind.get(n) is NodeKind.SOURCE for n in seq[1:]):
        return False
    for a, b in zip(seq, seq[1:]):
        if (a, b) not in g.arcs:
            return False
    prefix = seq[:-1]
    if len(set(prefix)) != len(prefix):
        return False
    return seq.count(seq[-1]) <= 2


def oracle_emergy_paths(g: EmergyGraph, arc: tuple[int, int]) -> list[tuple[int, ...]]:
    """Enumerate all bounded walks from every node and filter by the definition."""
    max_nodes = len(g.kind) + 1
    succ = successors(g)
    found = []
    stack: list[tuple[int, ...]] = [(n,) for n in g.kind]
    while stack:
        walk = stack.pop()
        if satisfies_path_definition(g, walk, arc):
            found.append(walk)
        if len(walk) < max_nodes:
            for nxt in succ[walk[-1]]:
                stack.append(walk + (nxt,))
    return sorted(found)


def concat_paths(a: Sequence[int] | None, b: Sequence[int] | None) -> tuple[int, ...] | None:
    """Join two paths when the endpoints meet.

    Absorbing on `None`, neutral on the empty tuple, and `None` when the
    first path does not end where the second begins.
    """
    if a is None or b is None:
        return None
    a, b = tuple(a), tuple(b)
    if not a:
        return b
    if not b:
        return a
    if a[-1] != b[0]:
        return None
    return a + b[1:]


def naive_find_p4(cg: CompatibilityGraph) -> tuple[int, ...] | None:
    """Quadruple-by-quadruple induced-path scan, the dumbest possible way."""
    n = len(cg.vertices)
    edges = {frozenset(e) for e in cg.edges}
    for quad in combinations(range(n), 4):
        inside = [frozenset(p) for p in combinations(quad, 2) if frozenset(p) in edges]
        if len(inside) != 3:
            continue
        degree = {v: sum(v in e for e in inside) for v in quad}
        if sorted(degree.values()) == [1, 1, 2, 2]:
            return quad
    return None


def rooted_simple_paths(g: EmergyGraph, root: int, arc: tuple[int, int]) -> list[tuple[int, ...]]:
    """Simple paths from `root` to the arc tail, each followed by the arc
    head (which may repeat a node), in lexicographic order: a backtracking
    walk over `successors(g)` that enters only nodes reaching the tail."""
    tail, head = arc
    succ = successors(g)
    reach = reachability_to_target(g, arc)
    found: list[tuple[int, ...]] = []

    def walk(node: int, prefix: tuple[int, ...], seen: set[int]):
        if node == tail:
            found.append(prefix + (head,))
            return
        for nxt in succ[node]:
            if nxt in seen or nxt not in reach:
                continue
            seen.add(nxt)
            walk(nxt, prefix + (nxt,), seen)
            seen.remove(nxt)

    if root in reach:
        walk(root, (root,), {root})
    return found


def listed_emergy_paths(g: EmergyGraph, arc: tuple[int, int]) -> list[EmergyPath]:
    """Every emergy path of `arc` in lexicographic order: `rooted_simple_paths`
    from each source, ascending, valued by `path_value`. It shares no code
    with the package's listing, which is the search's own expansion."""
    return [EmergyPath(p, path_value(g, p))
            for s in sorted(g.source_emergy) for p in rooted_simple_paths(g, s, arc)]


def cograph_value(g: EmergyGraph, arc: tuple[int, int]) -> Fraction:
    """The maximum empower of `arc` as a maximum-weight clique of the
    compatibility graph on `listed_emergy_paths`, by cograph decomposition
    (Corneil, Lerchs and Stewart Burlingham, "Complement reducible graphs",
    Discrete Appl. Math. 3, 1981): a cograph is one vertex, a disjoint union
    of smaller cographs, whose best clique lies in one of them, or their
    join, whose best clique takes one from each. A vertex set that is
    connected and whose complement is connected too holds an induced
    four-vertex path, and the oracle raises.

    Compatibility is the definition, pair by pair: two distinct paths are
    compatible when they start at different nodes or part ways at a split.
    The adjacency is a bit mask per path."""
    paths = listed_emergy_paths(g, arc)
    adj = [0] * len(paths)
    for i, j in combinations(range(len(paths)), 2):
        a, b = paths[i].nodes, paths[j].nodes
        k = 0
        while a[k] == b[k]:
            k += 1
        if k == 0 or g.kind[a[k - 1]] is NodeKind.SPLIT:
            adj[i] |= 1 << j
            adj[j] |= 1 << i

    def parts(mask: int, neighbours) -> list[int]:
        """The vertex sets of the connected components of `mask`."""
        found = []
        while mask:
            seen = frontier = mask & -mask
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                new = neighbours(bit.bit_length() - 1) & mask & ~seen
                seen |= new
                frontier |= new
            found.append(seen)
            mask &= ~seen
        return found

    def best(mask: int) -> Fraction:
        if mask & (mask - 1) == 0:
            return paths[mask.bit_length() - 1].value
        union = parts(mask, adj.__getitem__)
        if len(union) > 1:
            return max(map(best, union))
        join = parts(mask, lambda i: ~adj[i])
        if len(join) > 1:
            return sum(map(best, join), Fraction(0))
        raise ValueError(f"the compatibility graph of {arc} is no cograph")

    return best((1 << len(paths)) - 1) if paths else Fraction(0)


def best_compatible_value(g: EmergyGraph, seqs: list[tuple[int, ...]]) -> Fraction:
    """Maximum total value over pairwise-compatible subsets, grown directly."""
    values = [path_value(g, s) for s in seqs]
    n = len(seqs)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if compatible(g, seqs[i], seqs[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    best = Fraction(0)

    def mask_sum(mask: int) -> Fraction:
        total = Fraction(0)
        while mask:
            bit = mask & -mask
            mask ^= bit
            total += values[bit.bit_length() - 1]
        return total

    def grow(value: Fraction, candidates: int):
        nonlocal best
        if value > best:
            best = value
        rest = candidates
        while rest:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            picked = value + values[i]
            remaining = rest & masks[i]
            if picked + mask_sum(remaining) > best:
                grow(picked, remaining)

    grow(Fraction(0), (1 << n) - 1)
    return best


def search_value_table(g: EmergyGraph, arc: tuple[int, int]) -> dict[int, Fraction]:
    """f(i) for every node: the search's value from i entered alone toward
    the arc tail (the entry's first two fields, numerator and denominator),
    times the arc weight, scaled by the emergy when i is a source."""
    search, weight = TailSearch(g, arc[0]), g.arcs[arc]
    return {i: g.source_emergy.get(i, 1) * weight * Fraction(*search.entry(i)[:2])
            for i in g.nodes}


def check_witness(g: EmergyGraph, arc: tuple[int, int], result) -> None:
    """Certify a solve's witness in one pass over `result.witness_paths()`.

    Every path starts at a source, follows arcs, is simple up to the arc
    tail and ends with the arc; its value is the source's emergy times its
    weight product; the paths ascend strictly, adjacent ones are compatible,
    their number is the witness count and their sum is the value. In a
    sorted list the fork of any two paths is the fork of some adjacent pair
    between them, so adjacent compatibility is pairwise compatibility. This
    certifies a feasible answer that adds up, not an optimal one.
    """
    count, total, previous = 0, Fraction(0), None
    for p in result.witness_paths():
        nodes = p.nodes
        assert g.kind[nodes[0]] is NodeKind.SOURCE, p
        assert nodes[-2:] == arc and len(set(nodes[:-1])) == len(nodes) - 1, p
        num, den = g.source_emergy[nodes[0]].as_integer_ratio()
        for a in zip(nodes, nodes[1:]):
            w_num, w_den = g.arcs[a].as_integer_ratio()
            num, den = num * w_num, den * w_den
        assert p.value == Fraction(num, den), p
        if previous is not None:
            assert previous < nodes and compatible(g, previous, nodes), (previous, nodes)
        count, total, previous = count + 1, total + p.value, nodes
    assert count == result.stats.witness_count
    assert total == result.value


def arc_with_most_paths(g: EmergyGraph, max_paths: int | None = None) -> tuple[int, int] | None:
    """The arc carrying the most emergy paths (capped when asked), ties low."""
    best_arc, best_count = None, -1
    for arc in sorted(g.arcs):
        count = len(listed_emergy_paths(g, arc))
        if max_paths is not None and count > max_paths:
            continue
        if count > best_count:
            best_arc, best_count = arc, count
    return best_arc


@dataclass
class TrieNode:
    """One position in a per-source path trie; leaves carry whole paths."""

    node_id: int
    children: dict[int, "TrieNode"] = field(default_factory=dict)
    leaf: EmergyPath | None = None

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children.values())


def build_source_trie(paths: Sequence[EmergyPath]) -> TrieNode:
    """Insert the paths of one source into a shared-prefix trie.

    Raises when two paths are prefix-related (or duplicated): distinct
    emergy paths ending with the same arc never are, because the earlier
    occurrence of the arc tail would break simplicity, and the evaluation
    below leans on leaves being exactly the paths.
    """
    if not paths:
        raise ValueError("cannot build a trie from zero paths")
    root = TrieNode(paths[0].nodes[0])
    for p in paths:
        if p.nodes[0] != root.node_id:
            raise ValueError("paths of one trie must share their first node")
        node = root
        for nid in p.nodes[1:]:
            if node.leaf is not None:
                raise ValueError(f"path {node.leaf} is a strict prefix of {p}")
            node = node.children.setdefault(nid, TrieNode(nid))
        if node.leaf is not None or node.children:
            raise ValueError(f"path {p} duplicates or prefixes another path")
        node.leaf = p
    return root


def evaluate_trie(g: EmergyGraph, root: TrieNode) -> tuple[Fraction, list[EmergyPath]]:
    """Best total value over compatible leaf subsets, with the chosen leaves.

    Bottom-up: a leaf is worth its path value; a unary node passes its child
    through; a branching split sums all children (their selections coexist);
    a branching co-product keeps the best child, ties going to the smallest
    child id. Branching anywhere else is a structural error.
    """
    def walk(node: TrieNode) -> tuple[Fraction, list[EmergyPath]]:
        if node.leaf is not None:
            return node.leaf.value, [node.leaf]
        parts = [walk(node.children[k]) for k in sorted(node.children)]
        if len(parts) == 1:
            return parts[0]
        kind = g.kind[node.node_id]
        if kind is NodeKind.SPLIT:
            total = sum((value for value, _ in parts), Fraction(0))
            chosen = [p for _, sel in parts for p in sel]
            return total, chosen
        if kind is NodeKind.COPRODUCT:
            best = parts[0]
            for cand in parts[1:]:
                if cand[0] > best[0]:
                    best = cand
            return best
        raise ValueError(f"trie branches at {kind.value} node {node.node_id}")

    return walk(root)


def trie_solve(g: EmergyGraph, arc: tuple[int, int]) -> tuple[Fraction, tuple[EmergyPath, ...], int]:
    """Optimum, sorted witness paths and path count by per-source tries."""
    paths = listed_emergy_paths(g, arc)
    total = Fraction(0)
    chosen: list[EmergyPath] = []
    for _, group in groupby(paths, key=lambda p: p.source):
        value, selected = evaluate_trie(g, build_source_trie(list(group)))
        total += value
        chosen.extend(selected)
    return total, tuple(sorted(chosen)), len(paths)


@st.composite
def emergy_graphs(draw, max_inner: int = 6) -> EmergyGraph:
    """A valid emergy graph of one to three sources, one to `max_inner`
    splits and co-products, and one or two outputs.

    Each source feeds one split or co-product, which other sources may feed
    too. Each split or co-product draws one to three successors among all
    non-source nodes but itself, so arcs run back as often as forward:
    cycles, arcs into a node already on the path and co-product branches
    that meet again inside a cycle all occur. A node with one successor is a
    split; a split's integer shares of 1 to 3 become weights summing to 1.
    """
    n_sources = draw(st.integers(1, 3))
    n_inner = draw(st.integers(1, max_inner))
    n_outputs = draw(st.integers(1, 2))
    inner = range(n_sources + 1, n_sources + n_inner + 1)
    targets = range(n_sources + 1, n_sources + n_inner + n_outputs + 1)
    kind = {t: NodeKind.OUTPUT for t in targets}
    emergy, arcs = {}, {}
    for s in range(1, n_sources + 1):
        kind[s] = NodeKind.SOURCE
        emergy[s] = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
        arcs[s, draw(st.sampled_from(inner))] = Fraction(1)
    for v in inner:
        succ = draw(st.lists(st.sampled_from([t for t in targets if t != v]),
                             min_size=1, max_size=3, unique=True))
        if len(succ) > 1 and draw(st.booleans()):
            kind[v] = NodeKind.COPRODUCT
            arcs.update({(v, w): Fraction(1) for w in succ})
        else:
            kind[v] = NodeKind.SPLIT
            shares = [draw(st.integers(1, 3)) for _ in succ]
            arcs.update({(v, w): Fraction(k, sum(shares)) for w, k in zip(succ, shares)})
    return EmergyGraph(kind, emergy, arcs)


# The reference loaders: the regex-tokenizer parsers and the Fraction-based
# validator as the package had them before its one-pass loader, kept
# verbatim (renamed) so the loader's outputs can be checked against them.

# ASCII digits only: `\d` and `str.isdigit` also accept characters such as
# '²' or '３' that `int` then refuses or silently reads as digits.
_ID = re.compile(r"[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


# the most digits a number in a file may have: the interpreter's default
# int-string limit
_MAX_DIGITS = 4300


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


def _parse_id(token: str, what: str, line: int, col: int) -> int:
    """A node or vertex id: ASCII digits only, else a ParseError."""
    if not _ID.fullmatch(token):
        raise ParseError(f"expected a {what}, got {token!r}", line, col)
    return _to_int(token, what, line, col)


def _tokenize(text: str) -> Iterable[tuple[int, list[tuple[str, int]]]]:
    """Yield (line number, [(token, column), ...]) skipping blanks and comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", content)]
        if tokens:
            yield lineno, tokens


def reference_parse_graph(text: str) -> EmergyGraph:
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

    for lineno, tokens in _tokenize(text):
        word, col = tokens[0]
        if word == "node":
            if len(tokens) < 3:
                raise ParseError("node line needs an id and a kind", lineno, col)
            nid = _parse_id(tokens[1][0], "node id", lineno, tokens[1][1])
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
            a = _parse_id(tokens[1][0], "node id", lineno, tokens[1][1])
            b = _parse_id(tokens[2][0], "node id", lineno, tokens[2][1])
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


def reference_parse_digraph(text: str) -> Digraph:
    """Parse the digraph format: vertex/edge lines plus one start and target."""
    vertices: set[int] = set()
    arcs: set[tuple[int, int]] = set()
    start: int | None = None
    target: int | None = None
    # the line and column where an edge, start or target line first names each vertex
    sites: dict[int, tuple[int, int]] = {}
    for lineno, tokens in _tokenize(text):
        word, col = tokens[0]
        arity = {"vertex": 1, "edge": 2, "start": 1, "target": 1}.get(word)
        if arity is None:
            raise ParseError(f"unrecognized line {word!r}", lineno, col)
        if len(tokens) != arity + 1:
            raise ParseError(f"{word} line needs {arity} vertex id(s)", lineno, col)
        ids = [_parse_id(tok, "vertex id", lineno, tcol) for tok, tcol in tokens[1:]]
        if word == "vertex":
            if ids[0] in vertices:
                raise ParseError(f"duplicate vertex {ids[0]}", lineno, col)
            vertices.add(ids[0])
            continue
        for v, (_, tcol) in zip(ids, tokens[1:]):
            sites.setdefault(v, (lineno, tcol))
        if word == "edge":
            pair = (ids[0], ids[1])
            if pair[0] == pair[1]:
                raise ParseError(f"self-loop edge ({pair[0]}, {pair[1]})", lineno, col)
            if pair in arcs:
                raise ParseError(f"duplicate edge {pair}", lineno, col)
            arcs.add(pair)
        elif word == "start":
            if start is not None:
                raise ParseError("duplicate start line", lineno, col)
            start = ids[0]
        elif word == "target":
            if target is not None:
                raise ParseError("duplicate target line", lineno, col)
            target = ids[0]
        if start is not None and start == target:
            raise ParseError("start and target must differ", lineno, tokens[1][1])
    if start is None or target is None:
        raise ParseError("missing start or target line", 1)
    undeclared = min(sites.keys() - vertices, default=None)
    if undeclared is not None:
        raise ParseError(f"undeclared vertex {undeclared}", *sites[undeclared])
    return Digraph(frozenset(vertices), frozenset(arcs), start, target)


def reference_validate_graph(g: EmergyGraph) -> list[Violation]:
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

"""The three workloads: their instances and the operations of one round.

A round is a fixed list of operations; a run repeats whole rounds, so every
run attempts the same mix and fails the same share. Random instances come
from the run's seed: of a fixed number of candidates, the ones whose path
count or search cost lies closest to a target are kept, so every seed asks
for about the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import instances as gen
import reference as ref
from reference import Digraph, Instance


@dataclass
class Op:
    """One query: a CLI command line and what its answer must satisfy.

    In-process workloads run the call the command stands for:
    `solve ... --method cotree --state` is `solve_general` and
    `count-paths ... --method reduction` is `reduction_counts`.
    """

    name: str
    command: str
    file: str
    args: tuple[str, ...] = ()
    arc: tuple[int, int] | None = None
    inst: Instance | Digraph | None = None
    expect: int = 0
    fault: str = ""
    closed_form: Fraction | None = None

    def argv(self, workdir: Path) -> list[str]:
        arc = ["--arc", f"{self.arc[0]},{self.arc[1]}"] if self.arc else []
        return [self.command, str(workdir / self.file), *arc, *self.args]


COTREE = ("--method", "cotree", "--state")
# The search cost of an arc, in visits of the backtracking search for its
# emergy paths: each path found costs about as much as this many visits.
PATH_VISITS = 8


@dataclass
class Plan:
    """A workload's queries and the instance files they read."""

    in_process: bool
    ops: list[Op] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def add_file(self, name: str, thing: Instance | Digraph | str) -> str:
        self.files[name] = thing if isinstance(thing, str) else thing.text()
        return name

    def write(self, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


def _pick(make, score, count: int, target: int, candidates: int) -> list:
    """The `count` of `candidates` generated objects whose score lies closest
    to `target`, as (object, *score) tuples in generation order.

    A fixed number of candidates keeps set-up time the same for every seed;
    `score` returns None for an object that does not qualify.
    """
    scored = []
    for i in range(candidates):
        thing = make()
        found = score(thing)
        if found is not None:
            scored.append((abs(found[0] - target), i, thing, *found))
    if len(scored) < count:
        raise RuntimeError(f"only {len(scored)} of {candidates} candidates qualify")
    chosen = sorted(sorted(scored, key=lambda c: c[:2])[:count], key=lambda c: c[1])
    return [c[2:] for c in chosen]


def _emergy(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 60), rng.randint(1, 5))


def _output_arc(dag: Instance):
    """(paths, arc) of the arc into an output with the most paths.

    The DAG families only have arcs toward higher ids, so one pass in id
    order counts the source-to-node paths.
    """
    reach = {n: int(k == ref.SOURCE) for n, k in dag.kind.items()}
    for n in sorted(dag.kind):
        for m in dag.succ[n]:
            reach[m] += reach[n]
    into = [a for a in sorted(dag.arcs) if dag.kind[a[1]] == ref.OUTPUT]
    return max(((reach[a[0]], a) for a in into), default=None)


def _output_arc_cost(dag: Instance):
    """(search cost, paths, arc) of `_output_arc`'s arc.

    The search for the arc's emergy paths visits every source path that does
    not pass the arc tail, and each path found adds PATH_VISITS. On the DAG
    families one pass in id order counts those paths, with the tail passing
    nothing on.
    """
    found = _output_arc(dag)
    if found is None:
        return None
    paths, arc = found
    reach = {n: int(k == ref.SOURCE) for n, k in dag.kind.items()}
    for n in sorted(dag.kind):
        if n != arc[0]:
            for m in dag.succ[n]:
                reach[m] += reach[n]
    return (sum(reach.values()) + PATH_VISITS * paths, paths, arc)


def _cyclic_arc(limit: int):
    """Scores an instance by (paths, arc) of its arc with the most paths up to `limit`."""
    def score(inst: Instance):
        counts = [(ref.count_paths(inst, a, limit), a) for a in sorted(inst.arcs)]
        return max((c for c in counts if c[0] <= limit), default=None)
    return score


def _digraph_paths(limit: int):
    """Scores a digraph with a directed cycle by its simple start-to-target
    paths; counting stops past `limit`, which scores None."""
    def score(d: Digraph):
        succ = {v: sorted(b for a, b in d.arcs if a == v) for v in range(1, d.vertices + 1)}
        if ref.is_acyclic(succ):
            return None
        count = 0

        def walk(node: int, seen: set[int]) -> bool:
            nonlocal count
            if node == d.target:
                count += 1
                return count <= limit
            return all(walk(n, seen | {n}) for n in succ[node] if n not in seen)

        return (count,) if walk(d.start, {d.start}) else None
    return score


def _search_costs(mean: float, p90: float, limit: int, arc_limit: int):
    """Scores an instance by how far the per-arc cost of a backtracking
    search for its emergy paths lies from a target mean and 90th percentile.

    From every source the search visits each simple path once, stopping where
    it meets the arc tail, and each emergy path it finds adds PATH_VISITS.
    One search over the whole instance gives every arc's
    figure: an arc's search visits every node of the tree but those below a
    node at its tail. The score is (distance, mean, p90), or None when the
    tree passes `limit` nodes or an arc has more than `arc_limit` paths.
    Matching the spread of costs, not only their sum, keeps the percentiles
    of the query times alike from seed to seed.
    """
    def score(inst: Instance):
        below: dict[int, int] = {}
        found: dict[int, int] = {}
        tree = 0

        def walk(node: int, seen: set[int]) -> int:
            nonlocal tree
            tree += 1
            if tree > limit:
                raise OverflowError
            size = 1
            found[node] = found.get(node, 0) + 1
            for nxt in inst.succ[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    size += walk(nxt, seen)
                    seen.remove(nxt)
            below[node] = below.get(node, 0) + size - 1
            return size

        try:
            for s in inst.sources:
                walk(s, {s})
        except OverflowError:
            return None
        if max(found.get(a, 0) for a, _ in inst.arcs) > arc_limit:
            return None
        costs = sorted(tree - below.get(a, 0) + PATH_VISITS * found.get(a, 0)
                       for a, _ in inst.arcs)
        got_mean, got_p90 = sum(costs) / len(costs), costs[int(0.9 * len(costs))]
        return (abs(got_mean / mean - 1) + abs(got_p90 / p90 - 1), got_mean, got_p90)
    return score


def _broken(inst: Instance) -> Instance:
    """A copy whose first branching split no longer sums its weights to 1."""
    node = min(n for n, k in inst.kind.items() if k == ref.SPLIT and len(inst.succ[n]) >= 2)
    arcs = dict(inst.arcs)
    first = (node, inst.succ[node][0])
    arcs[first] = arcs[first] / 2
    return Instance(dict(inst.kind), dict(inst.emergy), arcs)


def cli_queries(seed: int) -> Plan:
    rng = random.Random(seed)
    plan = Plan(in_process=False)
    book = plan.add_file("textbook.eg", ref.TEXTBOOK)
    variants = [(), ("--state",), ("--period", "3/2", "--places", "3"),
                ("--format", "records", "--state", "--period", "7/4")]
    for i, arc in enumerate(sorted(ref.TEXTBOOK.arcs)):
        plan.ops.append(Op(f"textbook-{arc[0]},{arc[1]}", "solve", book, variants[i % 4],
                           arc, ref.TEXTBOOK))

    chain30, arc30 = ref.diamond_chain(30, Fraction(7, 3))
    plan.ops.append(Op("diamond-chain-30", "solve", plan.add_file("chain30.eg", chain30),
                       (), arc30, chain30, closed_form=Fraction(7, 3)))

    dags = _pick(lambda: gen.random_dag(rng, 16, 0.4), _output_arc, 3, 40, 12)
    for i, (dag, _, arc) in enumerate(dags):
        fmt = ("--format", "records") if i == 0 else ()
        plan.ops.append(Op(f"dag-{i}", "solve", plan.add_file(f"dag{i}.eg", dag),
                           fmt, arc, dag))

    cyclic = _pick(lambda: gen.random_cyclic(rng, 14, 0.4, 2), _cyclic_arc(60), 2, 40, 8)
    (ga, _, arca), (gb, _, arcb) = cyclic
    fa, fb = plan.add_file("cyclic0.eg", ga), plan.add_file("cyclic1.eg", gb)
    plan.ops += [
        Op("cyclic-0-cotree", "solve", fa, ("--method", "cotree", "--state"), arca, ga),
        Op("cyclic-1-cotree", "solve", fb,
           ("--method", "cotree", "--state", "--format", "records"), arcb, gb),
        Op("cyclic-1-dag", "solve", fb, ("--method", "dag"), arcb, gb, expect=3),
        Op("validate-dag", "validate", "dag0.eg", inst=dags[0][0]),
    ]
    broken = _broken(dags[0][0])
    plan.ops.append(Op("validate-broken-split", "validate",
                       plan.add_file("broken.eg", broken), inst=broken, expect=1))
    bad_kind = plan.add_file("badkind.eg", "node 1 sauce 3\nnode 2 output\narc 1 2 1\n")
    plan.ops += [
        Op("validate-parse-error", "validate", bad_kind, expect=2),
        Op("paths-cyclic-1", "paths", fb, ("--format", "records"), arcb, gb),
        Op("check-cograph-cyclic-0", "check-cograph", fa, (), arca, ga),
    ]
    [(digraph, dpaths)] = _pick(lambda: gen.random_digraph(rng, 9, 0.4),
                                _digraph_paths(300), 1, 100, 8)
    plan.ops.append(Op("count-paths", "count-paths", plan.add_file("count.dg", digraph),
                       ("--method", "both"), inst=digraph))

    long_chain, long_arc = gen.chain(3000, Fraction(7, 3))
    plan.ops.append(Op("chain-3000-state", "solve", plan.add_file("chain3000.eg", long_chain),
                       ("--state",), long_arc, long_chain,
                       fault="recursive walk in paths.py/solver.py raises RecursionError"))
    plan.ops.append(Op("validate-superscript-id", "validate",
                       plan.add_file("superscript.eg", "node ² source 1\n"), expect=2,
                       fault="int('²') in graph.py raises a raw ValueError"))
    plan.params = {
        "textbook_arcs": len(ref.TEXTBOOK.arcs), "diamond_chain_layers": 30,
        "random_dag": {"nodes": 16, "density": 0.4, "paths": [p for _, p, _ in dags]},
        "random_cyclic": {"nodes": 14, "density": 0.4, "back_arcs": 2,
                          "paths": [p for _, p, _ in cyclic]},
        "random_digraph": {"vertices": 9, "prob": 0.4, "paths": dpaths},
        "chain_nodes": 3000,
    }
    return plan


def acyclic_explosion(seed: int) -> Plan:
    rng = random.Random(seed)
    plan = Plan(in_process=True)
    for layers in range(8, 14):
        emergy = _emergy(rng)
        g, arc = ref.diamond_chain(layers, emergy)
        name = plan.add_file(f"chain{layers}.eg", g)
        plan.ops.append(Op(f"diamond-chain-{layers}", "solve", name, COTREE, arc, g,
                           closed_form=emergy))
    dags = _pick(lambda: gen.random_dag(rng, 26, 0.45), _output_arc_cost, 9, 14000, 200)
    for i, (g, _, _, arc) in enumerate(dags):
        plan.ops.append(Op(f"dag-{i}", "solve", plan.add_file(f"dag{i}.eg", g), COTREE, arc, g))
    plan.params = {"diamond_chain_layers": [8, 13],
                   "random_dag": {"nodes": 26, "density": 0.45,
                                  "search_cost": [c for _, c, _, _ in dags],
                                  "paths": [p for _, _, p, _ in dags]}}
    return plan


def cyclic_core(seed: int) -> Plan:
    rng = random.Random(seed)
    plan = Plan(in_process=True)
    cyclic = _pick(lambda: gen.random_cyclic(rng, 24, 0.26, 4),
                   _search_costs(900, 1350, 20000, 400), 8, 0, 96)
    for i, (g, _, _, _) in enumerate(cyclic):
        name = plan.add_file(f"cyclic{i}.eg", g)
        plan.ops += [Op(f"cyclic-{i}-{a[0]},{a[1]}", "solve", name, COTREE, a, g)
                     for a in sorted(g.arcs)]
    digraphs = _pick(lambda: gen.random_digraph(rng, 11, 0.5), _digraph_paths(4000), 3, 2000, 40)
    for i, (d, _) in enumerate(digraphs):
        plan.ops.append(Op(f"reduction-{i}", "count-paths", plan.add_file(f"digraph{i}.dg", d),
                           ("--method", "reduction"), inst=d))
    plan.params = {"random_cyclic": {"nodes": 24, "density": 0.26, "back_arcs": 4,
                                     "search_cost_mean": [round(m) for _, _, m, _ in cyclic],
                                     "search_cost_p90": [p for _, _, _, p in cyclic]},
                   "random_digraph": {"vertices": 11, "prob": 0.5,
                                      "paths": [p for _, p in digraphs]}}
    return plan


WORKLOADS = {"cli-queries": cli_queries, "acyclic-explosion": acyclic_explosion,
             "cyclic-core": cyclic_core}

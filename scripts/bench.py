#!/usr/bin/env python3
"""Measure `empower` packages side by side and write BENCH_<suite>.json.

    git archive HEAD~1 src | tar -x -C /tmp/before
    python scripts/bench.py SUITE --src before=/tmp/before/src --src after=src [--repeats N]

Each `--src [NAME=]DIR` is a directory holding the `empower` package. Every
measurement runs in a fresh interpreter, with PYTHONDONTWRITEBYTECODE=1 unless
said otherwise, the sides interleaved in an order that rotates from repeat to
repeat. Medians and quartiles go to stdout and, with the Python version,
platform and CPU count, to BENCH_<suite>.json at the repository root.

`count-paths`, `load` and `witness` are instance suites (5 repeats). Each is
one `Suite` in `INSTANCE_SUITES`: its instances, its stages and what each
one times, the one fact its sides must agree on, and a child function that
runs one instance. `instance_suite` runs all three alike. For each repeat
and each instance the sides take turns, so a drift in the host's speed
falls on both alike, and each turn is one process, `bench.py SUITE --child
INSTANCE` (for `load`, the file's path), running the child under that
side's package. The child checks its own answer and, when a check fails,
exits non-zero with a one-line message, which names the instance; the
parent adds the side. Otherwise it prints one JSON line of stage values
and facts. Per side and instance, every stage is summarized over the
repeats and the first run's facts are kept; every run of every side must
give the suite's fact one value.

- `count-paths`: one call each of `build_reduction`, `solve_general` on
  the wrapped instance, `decode_counts` on its value and
  `count_simple_paths(d, "dfs")`, by wall clock, then the `tracemalloc`
  peak of one more DFS count. Where an `EmergyGraph` derives its index
  form and whole-graph Tarjan pass when it is built, that work is timed in
  `build_reduction`, not in `solve_general`. The instances are lines of
  100, 200 and 400 vertices, where the reduction's numbers are longest,
  and `random_digraph(12, 0.6, 1)` and `random_digraph(13, 0.6, 1)`, with
  96,625 and 751,690 simple paths, whose reductions are dense. The child
  checks that the reduction decodes the count the DFS finds; the fact is
  that count.
- `load`: the stages that read an instance file. On each file, one
  `empower validate FILE` process, timed whole, which must exit 0 with
  empty stdout, then one `graph.parse_graph` call (the `EmergyGraph`
  construction included) and one `graph.validate_graph` call, which must
  report nothing, by wall clock. The files are a 3,000-node chain (one
  source, splits in a line, one output, every weight 1) and the output of
  `empower gen --family random-cyclic --nodes 1000 --seed 1` under the
  first side, 200,022 lines, both written by `load_files`; the fact is the
  number of arcs read.
- `witness`: the layer the acyclic-explosion workload spends most of its
  round in, which `perfbench/run.py --trace` cannot see.
  `solve_general(g, arc)` and then reading its `.witness`, which expands
  every witness path, by wall clock, 15 times each; the child reports
  their medians. The instances are `diamond_chain(k)` for k = 8-13 at its
  one output arc, and `random_dag(26, 0.45, s)`, the acyclic-explosion
  workload's shape, at the arc into an output with the most paths (ties
  low), for the nine seeds s below 200 where those paths are most
  (`DAG_SEEDS`). One more instance has a cycle, so there the expansion
  steps node by node: the split-only counting reduction of
  `random_digraph(10, 0.6, 1)` at its target arc, whose 2,596 paths are
  all witness paths. One more is `diamond_chain(10)` with each arm a line
  of 200 pass-through splits (1,024 paths), where the branch points above
  the bottom two layers keep no runs and their long arms are stepped node
  by node. The last is a ladder (63 splits in a line, each also feeding
  its own line of 1,000 pass-through splits into the arc tail; 64 witness
  paths): its child reports the time of streaming the witness once, then
  the `tracemalloc` peak and the time of streaming it once more under
  `tracemalloc`, which traces every int the stepping allocates and so
  slows node-by-node stepping most. The fact is the number of witness
  paths.
- one suite per workload of BENCHMARK.json (`cli-queries`,
  `acyclic-explosion`, `cyclic-core`; 10 repeats): each side's package is
  copied into a temporary tree next to this checkout's `perfbench/`, and
  repeat r runs `perfbench/run.py --workload W --seed r --seconds S` there,
  S being the benchmark's `run_seconds`, with bytecode written as in a
  checkout. Every end-to-end metric is
  summarized per side, each run's `correct`, `attempted`, `failed` and
  instance parameters are kept, and every side after the first counts the
  seeds on which it was better and worse than the first on each metric.
  Every run must exit 0 and answer correctly.

Each child runs in a session of its own. Stopped by SIGTERM or Ctrl-C, the
script kills the running child's whole session, `perfbench/run.py`'s own
children included, and leaves through `SystemExit`, so the temporary trees
are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# the nine seeds below 200 whose random_dag(26, 0.45, seed) has the most
# paths at an arc into an output: 724-2,025, with 1-746 witness paths
DAG_SEEDS = (28, 30, 69, 94, 140, 143, 145, 181, 184)


def run(argv: list[str], pythonpath: Path, write_bytecode: bool = False) -> str:
    """The stdout of one child process, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(pythonpath), PYTHONDONTWRITEBYTECODE="1")
    if write_bytecode:
        del env["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):  # the session may be gone
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} under {pythonpath} failed:\n{stderr}")
    return stdout


def rotated(items: list, r: int) -> list:
    """`items` in the order of repeat `r`: each repeat starts one further on."""
    k = r % len(items)
    return items[k:] + items[:k]


def summary(samples: list[float]) -> dict:
    """Median and quartiles to four significant digits."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": float(f"{median:.4g}"), "q1": float(f"{q1:.4g}"), "q3": float(f"{q3:.4g}")}


def table(corner: str, columns: list[str], rows: dict[str, list[float]]) -> None:
    width = max(map(len, [corner, *rows])) + 2
    print(f"{corner:<{width}}" + "".join(f"{c:>22}" for c in columns))
    for label, values in rows.items():
        print(f"{label:<{width}}" + "".join(f"{v:>22.4g}" for v in values))


def timed(stages: dict, stage: str, call: Callable):
    """`call()`, its wall time stored in ms as `stages[stage]`."""
    started = time.perf_counter()
    out = call()
    stages[stage] = (time.perf_counter() - started) * 1000
    return out


def count_paths_child(label: str) -> dict:
    import tracemalloc

    from empower.generators import random_digraph
    from empower.hardness import Digraph, build_reduction, count_simple_paths, decode_counts
    from empower.solver import solve_general

    if label.startswith("line-"):
        n = int(label.split("-")[1])
        d = Digraph(frozenset(range(1, n + 1)),
                    frozenset((i, i + 1) for i in range(1, n)), 1, n)
    else:
        d = random_digraph(int(label.split("-")[2]), 0.6, 1)
    stages = {}
    inst = timed(stages, "build_reduction", lambda: build_reduction(d))
    value = timed(stages, "solve_general",
                  lambda: solve_general(inst.graph, inst.target_arc).value)
    vector = timed(stages, "decode_counts", lambda: decode_counts(
        value / inst.graph.arcs[inst.target_arc], inst.bound, len(d.vertices) + 1))
    paths = timed(stages, "dfs_count", lambda: count_simple_paths(d, "dfs"))
    if vector.total != paths:
        raise SystemExit(f"{label}: the reduction decoded {vector.total} paths, "
                         f"the DFS counted {paths}")
    tracemalloc.start()
    count_simple_paths(d, "dfs")
    stages["dfs_peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024
    tracemalloc.stop()
    return {"stages": stages,
            "facts": {"simple_paths": paths, "bound_bits": inst.bound.bit_length()}}


def load_files(tmp: Path, src: Path) -> dict[str, str]:
    """Write the load suite's files into `tmp`, generating one with the
    package under `src`; the child's argument per instance: the file."""
    chain, cyclic = tmp / "chain-3000.eg", tmp / "random-cyclic-1000.eg"
    chain.write_text("".join(
        ["node 1 source 7/3\n", *(f"node {i} split\n" for i in range(2, 3000)),
         "node 3000 output\n", *(f"arc {i} {i + 1} 1\n" for i in range(1, 3000))]))
    cyclic.write_text(run([sys.executable, "-m", "empower.cli", "gen", "--family",
                           "random-cyclic", "--nodes", "1000", "--seed", "1"], src))
    return {"chain-3000": str(chain), "random-cyclic-1000": str(cyclic)}


def load_child(path: str) -> dict:
    from empower.graph import parse_graph, validate_graph

    stages = {}
    proc = timed(stages, "validate_process_ms", lambda: subprocess.run(
        [sys.executable, "-m", "empower.cli", "validate", path], capture_output=True, text=True))
    if proc.returncode or proc.stdout:
        raise SystemExit(f"{path}: validate exited {proc.returncode} and printed "
                         f"{proc.stdout[:200]!r}")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    g = timed(stages, "parse_graph_ms", lambda: parse_graph(text))
    violations = timed(stages, "validate_graph_ms", lambda: validate_graph(g))
    if violations:
        raise SystemExit(f"{path}: {len(violations)} violations in a valid file")
    return {"stages": stages, "facts": {"lines": len(text.splitlines()), "arcs": len(g.arcs)}}


def ladder(stretch: int):
    """Source 1 feeding splits 2-64 in a line; each also feeds its own line
    of `stretch` (at least 1) pass-through splits into the arc tail 65, and
    64 feeds the tail directly too: 64 witness paths, every branch point
    above long pass-through stretches. Returns the graph and its one output
    arc."""
    from empower.graph import EmergyGraph, NodeKind

    tail, out, first = 65, 66, 67
    kinds = {1: NodeKind.SOURCE, tail: NodeKind.SPLIT, out: NodeKind.OUTPUT}
    arcs = {(1, 2): Fraction(1), (tail, out): Fraction(1)}
    for rung in range(2, 65):
        kinds[rung] = NodeKind.SPLIT
        arcs[rung, rung + 1 if rung < 64 else tail] = Fraction(1, 2)
        line = [rung, *range(first, first + stretch), tail]
        first += stretch
        for a, b in zip(line, line[1:]):
            kinds.setdefault(b, NodeKind.SPLIT)
            arcs[a, b] = Fraction(1, 2) if a == rung else Fraction(1)
    return EmergyGraph(kinds, {1: Fraction(1)}, arcs), (tail, out)


def long_arm_chain(layers: int, arm: int):
    """`diamond_chain(layers)` with each of a diamond's two arms a line of
    `arm` (at least 1) pass-through splits: 2**layers paths, each of about
    `layers * (arm + 1)` nodes. Returns the graph and its one output arc."""
    from empower.graph import EmergyGraph, NodeKind

    kinds = {1: NodeKind.SOURCE, 2: NodeKind.SPLIT}
    arcs = {(1, 2): Fraction(1)}
    entry = 2
    for _ in range(layers):
        merge = entry + 2 * arm + 1
        for first in (entry + 1, entry + 1 + arm):
            line = [entry, *range(first, first + arm), merge]
            for a, b in zip(line, line[1:]):
                kinds[b] = NodeKind.SPLIT
                arcs[a, b] = Fraction(1, 2) if a == entry else Fraction(1)
        entry = merge
    kinds[entry + 1] = NodeKind.OUTPUT
    arcs[entry, entry + 1] = Fraction(1)
    return EmergyGraph(kinds, {1: Fraction(1)}, arcs), (entry, entry + 1)


def witness_child(label: str) -> dict:
    import tracemalloc

    from empower.generators import diamond_chain, random_dag, random_digraph
    from empower.graph import NodeKind
    from empower.hardness import build_reduction
    from empower.solver import solve_general

    if label == "ladder-1000":
        g, arc = ladder(1000)
        stages = {}
        paths = solve_general(g, arc).witness_paths
        count = timed(stages, "stream_ms", lambda: sum(1 for _ in paths()))
        # a fresh solve, so the traced stream builds its runs again
        paths = solve_general(g, arc).witness_paths
        tracemalloc.start()
        timed(stages, "traced_ms", lambda: sum(1 for _ in paths()))
        stages["peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024
        tracemalloc.stop()
        return {"stages": stages, "facts": {"witness_paths": count}}
    kind, _, number = label.rpartition("-")
    if kind == "diamond-chain":
        g, arc = diamond_chain(int(number))
    elif kind == "long-arms":
        g, arc = long_arm_chain(10, int(number))
    elif kind == "reduction":
        inst = build_reduction(random_digraph(int(number), 0.6, 1))
        g, arc = inst.graph, inst.target_arc
    else:
        g = random_dag(26, 0.45, int(number))
        into = [a for a in sorted(g.arcs) if g.kind[a[1]] is NodeKind.OUTPUT]
        arc = max(into, key=lambda a: (solve_general(g, a).stats.path_count, -a[0], -a[1]))
    samples = []
    for _ in range(15):
        stages = {}
        result = timed(stages, "solve_ms", lambda: solve_general(g, arc))
        timed(stages, "witness_ms", lambda: result.witness)
        samples.append(stages)
    return {"stages": {stage: statistics.median(one[stage] for one in samples)
                       for stage in samples[0]},
            "facts": {"arc": arc, "paths": result.stats.path_count,
                      "witness_paths": result.stats.witness_count}}


class Suite(NamedTuple):
    """An instance suite: `child(argument)` runs one instance and returns
    {"stages": {stage: value}, "facts": {name: value}}."""
    child: Callable[[str], dict]
    instances: dict[str, str]
    stages: dict[str, str]
    fact: str  # the fact every run of every side must agree on
    metric: str
    # writes the instance files into a temporary directory with the first
    # side's package and returns the child's argument per instance, which
    # is otherwise the instance's name
    files: Callable[[Path, Path], dict[str, str]] | None = None


INSTANCE_SUITES = {
    "count-paths": Suite(
        count_paths_child,
        {"line-100": "line digraph 1 -> 2 -> ... -> 100, start 1, target 100",
         "line-200": "line digraph 1 -> 2 -> ... -> 200, start 1, target 200",
         "line-400": "line digraph 1 -> 2 -> ... -> 400, start 1, target 400",
         "random-digraph-12": "generators.random_digraph(12, 0.6, 1), start 1, target 12",
         "random-digraph-13": "generators.random_digraph(13, 0.6, 1), start 1, target 13"},
        {"build_reduction": "hardness.build_reduction(d), with the wrapped EmergyGraph's "
                            "construction: on a side whose graph derives its index form "
                            "and whole-graph Tarjan pass when built, that work is here",
         "solve_general": "solver.solve_general on the wrapped instance's target arc",
         "decode_counts": "hardness.decode_counts(value / exit weight, bound, n + 1)",
         "dfs_count": "hardness.count_simple_paths(d, 'dfs')",
         "dfs_peak_kib": "tracemalloc peak of one more count_simple_paths(d, 'dfs'), KiB"},
        "simple_paths",
        "per stage, one call's wall time in ms or a tracemalloc peak in KiB, in a fresh "
        "process: median and quartiles over the repeats"),
    "load": Suite(
        load_child,
        {"chain-3000": "source 1 (emergy 7/3), splits 2-2999 in a line, output 3000, weights 1",
         "random-cyclic-1000": "empower gen --family random-cyclic --nodes 1000 --seed 1"},
        {"validate_process_ms": "one `python -m empower.cli validate FILE` process, "
                                "timed from start to exit by the process that starts it",
         "parse_graph_ms": "graph.parse_graph(text), that process's first parse, the "
                           "EmergyGraph construction (index form, Tarjan pass) included",
         "validate_graph_ms": "graph.validate_graph(g) in the same process"},
        "arcs",
        "wall time per stage, ms: median and quartiles over the repeats",
        load_files),
    "witness": Suite(
        witness_child,
        {**{f"diamond-chain-{k}": f"generators.diamond_chain({k}) at its output arc"
            for k in range(8, 14)},
         **{f"random-dag-{s}": f"generators.random_dag(26, 0.45, {s}) at the arc into an "
                               "output with the most paths, ties low" for s in DAG_SEEDS},
         "reduction-10": "hardness.build_reduction(generators.random_digraph(10, 0.6, 1)) at "
                         "its target arc: split-only, with a cycle",
         "long-arms-200": "diamond_chain(10) with each arm a line of 200 pass-through splits, "
                          "at its output arc: 1,024 paths of 2,013 nodes",
         "ladder-1000": "source 1, splits 2-64 in a line, each also feeding its own line of "
                        "1,000 pass-through splits into the arc tail, the last one the tail "
                        "too"},
        {"solve_ms": "solver.solve_general(g, arc): the search, witness unexpanded",
         "witness_ms": "reading the result's .witness: every witness path expanded into one "
                       "tuple",
         "stream_ms": "ladder only: wall time of streaming witness_paths() once, ms",
         "peak_kib": "ladder only: tracemalloc peak of streaming witness_paths() of a fresh "
                     "solve once more, the runs the expansion keeps included, KiB",
         "traced_ms": "ladder only: that streaming's wall time under tracemalloc, ms"},
        "witness_paths",
        "per instance, the median over 15 calls in a fresh process of each stage's wall "
        "time, ms; median and quartiles of those over the repeats"),
}


def instance_suite(name: str, sides: dict[str, Path], repeats: int) -> dict:
    suite = INSTANCE_SUITES[name]
    runs = {(side, label): [] for side in sides for label in suite.instances}
    with tempfile.TemporaryDirectory() as tmp:
        args = (suite.files(Path(tmp), next(iter(sides.values()))) if suite.files
                else {label: label for label in suite.instances})
        for r in range(repeats):
            for label in suite.instances:
                for side in rotated(list(sides), r):
                    stdout = run([sys.executable, __file__, name, "--child", args[label]],
                                 sides[side])
                    runs[side, label].append(json.loads(stdout.splitlines()[-1]))
    results, rows = {side: {} for side in sides}, {}
    for label in suite.instances:
        facts = {side: {out["facts"][suite.fact] for out in runs[side, label]} for side in sides}
        if len(set().union(*facts.values())) > 1:
            raise SystemExit(f"{label}: the sides disagree on {suite.fact}: {facts}")
        for side in sides:
            first = runs[side, label][0]
            results[side][label] = {**first["facts"], **{
                stage: summary([out["stages"][stage] for out in runs[side, label]])
                for stage in first["stages"]}}
        for stage in first["stages"]:
            rows[f"{label} {stage}"] = [results[side][label][stage]["median"] for side in sides]
    table("instance stage", list(sides), rows)
    return {"metric": suite.metric, "repeats": repeats, "instances": suite.instances,
            "stages": suite.stages, "results": results}


def perfbench(workload: str, sides: dict[str, Path], repeats: int) -> dict:
    seconds = BENCHMARK["run_seconds"]
    metrics = BENCHMARK["end_to_end"]
    runs = {name: [] for name in sides}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for i, (name, src) in enumerate(sides.items()):
            trees[name] = tree = Path(tmp) / str(i)
            shutil.copytree(src / "empower", tree / "src" / "empower",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__", ".work"))
        for r in range(repeats):
            seed = r + 1
            for name in rotated(list(sides), r):
                stdout = run([sys.executable, str(trees[name] / "perfbench" / "run.py"),
                              "--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds)],
                             trees[name] / "src", write_bytecode=True)
                record, out = map(json.loads, stdout.splitlines()[-2:])
                if not out["correct"]:
                    raise SystemExit(f"{workload} seed {seed} under {sides[name]}: "
                                     "perfbench found a wrong answer")
                runs[name].append({"seed": seed, "correct": out["correct"],
                                   "attempted": out["attempted"], "failed": out["failed"],
                                   **{m["name"]: out["metrics"][m["name"]]["value"]
                                      for m in metrics},
                                   "params": record["record"]["params"]})
                print(f"{workload} seed {seed} {name}: " + ", ".join(
                    f"{m['name']} {runs[name][-1][m['name']]:.4g}" for m in metrics), flush=True)

    first = next(iter(sides))
    results = {}
    for name in sides:
        results[name] = {m["name"]: summary([one[m["name"]] for one in runs[name]])
                         for m in metrics}
        if name != first:
            pairs = {}
            for m in metrics:
                sign = 1 if m["better"] == "higher" else -1
                gaps = [sign * (mine[m["name"]] - theirs[m["name"]])
                        for mine, theirs in zip(runs[name], runs[first])]
                pairs[m["name"]] = {"won": sum(g > 0 for g in gaps),
                                    "lost": sum(g < 0 for g in gaps)}
            results[name]["pairs_against_" + first] = pairs
        results[name]["runs"] = runs[name]
    table("metric", list(sides), {m["name"]: [results[name][m["name"]]["median"] for name in sides]
                                  for m in metrics})
    return {
        "metric": "end-to-end metrics of perfbench/run.py, one run per seed and side: "
                  "median and quartiles over the seeds",
        "workload": workload,
        "seconds": seconds,
        "repeats": repeats,
        "seeds": list(range(1, repeats + 1)),
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"]} for m in metrics},
        "results": results,
    }


# suite -> (function, default repeats)
SUITES = {**{name: (partial(instance_suite, name), 5) for name in INSTANCE_SUITES},
          **{w["name"]: (partial(perfbench, w["name"]), 10) for w in BENCHMARK["workloads"]}}


def stop(signum: int, frame) -> None:
    raise SystemExit(f"stopped by signal {signum}")


def main() -> None:
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--src", action="append", metavar="[NAME=]DIR",
                        help="a directory holding the empower package; repeat to compare")
    parser.add_argument("--repeats", type=int,
                        help="5 for count-paths, load and witness, 10 for a perfbench "
                             "workload")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(INSTANCE_SUITES[args.suite].child(args.child)))
        return
    suite, default_repeats = SUITES[args.suite]
    repeats = default_repeats if args.repeats is None else args.repeats
    if not args.src:
        parser.error("give at least one --src")
    if repeats < 2:
        parser.error("--repeats must be at least 2")

    sides = {}
    for spec in args.src:
        name, _, path = spec.rpartition("=")
        if not (Path(path) / "empower" / "cli.py").is_file():
            parser.error(f"{path} holds no empower package")
        sides[name or path] = Path(path).resolve()

    record = {"python": platform.python_version(), "platform": platform.platform(),
              "cpus": os.cpu_count(), **suite(sides, repeats)}
    (ROOT / f"BENCH_{args.suite}.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()

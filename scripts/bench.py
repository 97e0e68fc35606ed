#!/usr/bin/env python3
"""Measure `empower` packages side by side and write BENCH_<suite>.json.

    git archive HEAD~1 src | tar -x -C /tmp/before
    python scripts/bench.py SUITE --src before=/tmp/before/src --src after=src [--repeats N]

Each `--src [NAME=]DIR` is a directory holding the `empower` package. Every
measurement runs in a fresh interpreter, with PYTHONDONTWRITEBYTECODE=1 unless
said otherwise, the sides interleaved in an order that rotates from repeat to
repeat. Medians and quartiles go to stdout and, with the Python version,
platform and CPU count, to BENCH_<suite>.json at the repository root. The
suites:

- `count-paths` (5 repeats): one process per instance times by wall clock
  one call each of `build_reduction`, `solve_general` on the wrapped
  instance, `decode_counts` on its value and `count_simple_paths(d, "dfs")`,
  then the `tracemalloc` peak of one more DFS count. Where an `EmergyGraph`
  derives its index form and whole-graph Tarjan pass when it is built, that
  work is timed in `build_reduction`, not in `solve_general`. The instances
  are lines of 100, 200 and 400 vertices, where the reduction's numbers are
  longest, and `random_digraph(12, 0.6, 1)` and `random_digraph(13, 0.6, 1)`,
  with 96,625 and 751,690 simple paths, whose reductions are dense. Every
  run must decode the count the DFS finds, and the sides must count alike.
- `load` (5 repeats): the stages that read an instance file. On each file,
  one process times one `graph.parse_graph` call (the `EmergyGraph`
  construction included) and one `graph.validate_graph` call by wall
  clock, and one more process, `python -m empower.cli validate FILE`, is
  timed whole from here; it must exit 0 with empty stdout. The files are a
  3,000-node chain this script writes (one source, splits in a line, one
  output, every weight 1) and the output of `empower gen --family
  random-cyclic --nodes 1000 --seed 1` under the first side, 200,022 lines.
- `witness` (5 repeats): the layer the acyclic-explosion workload spends
  most of its round in, which `perfbench/run.py --trace` cannot see. One
  process per instance times `solve_general(g, arc)` and then reading its
  `.witness`, which expands every witness path, by wall clock, 15 times
  each, and prints their medians. The instances are `diamond_chain(k)` for
  k = 8-13 at its one output arc, and `random_dag(26, 0.45, s)`, the
  acyclic-explosion workload's shape, at the arc into an output with the
  most paths (ties low), for the nine seeds s below 200 where those paths
  are most (`DAG_SEEDS`). One more instance has a cycle, so there the
  expansion steps node by node: the split-only counting reduction of
  `random_digraph(10, 0.6, 1)` at its target arc, whose 2,596 paths are
  all witness paths. One more process builds a ladder (63 splits in a
  line, each also feeding its own line of 1,000 pass-through splits into
  the arc tail; 64 witness paths) and reports the `tracemalloc` peak and
  the time of streaming its witness once. The sides
  take turns instance by instance, so a drift in the host's speed falls on
  both alike. Every side must find the same witness counts.
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
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

INSTANCES = {
    "line-100": "line digraph 1 -> 2 -> ... -> 100, start 1, target 100",
    "line-200": "line digraph 1 -> 2 -> ... -> 200, start 1, target 200",
    "line-400": "line digraph 1 -> 2 -> ... -> 400, start 1, target 400",
    "random-digraph-12": "generators.random_digraph(12, 0.6, 1), start 1, target 12",
    "random-digraph-13": "generators.random_digraph(13, 0.6, 1), start 1, target 13",
}
STAGES = ("build_reduction", "solve_general", "decode_counts", "dfs_count")
LOAD_FILES = {
    "chain-3000": "source 1 (emergy 7/3), splits 2-2999 in a line, output 3000, weights 1",
    "random-cyclic-1000": "empower gen --family random-cyclic --nodes 1000 --seed 1",
}
LOAD_STAGES = ("parse_graph_ms", "validate_graph_ms", "validate_process_ms")
# the nine seeds below 200 whose random_dag(26, 0.45, seed) has the most
# paths at an arc into an output: 724-2,025, with 1-746 witness paths
DAG_SEEDS = (28, 30, 69, 94, 140, 143, 145, 181, 184)
WITNESS_INSTANCES = {
    **{f"diamond-chain-{k}": f"generators.diamond_chain({k}) at its output arc"
       for k in range(8, 14)},
    **{f"random-dag-{s}": f"generators.random_dag(26, 0.45, {s}) at the arc into an output "
                          "with the most paths, ties low" for s in DAG_SEEDS},
    "reduction-10": "hardness.build_reduction(generators.random_digraph(10, 0.6, 1)) at its "
                    "target arc: split-only, with a cycle",
}
LADDER = ("ladder-1000: source 1, splits 2-64 in a line, each also feeding its own line of "
          "1,000 pass-through splits into the arc tail, the last one the tail too")
WITNESS_STAGES = ("solve_ms", "witness_ms")


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


def count_paths_child(label: str) -> None:
    """Time one instance with the `empower` on the path; print a JSON line."""
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
    ms = {}

    def timed(stage, call):
        started = time.perf_counter()
        out = call()
        ms[stage] = (time.perf_counter() - started) * 1000
        return out

    inst = timed("build_reduction", lambda: build_reduction(d))
    value = timed("solve_general", lambda: solve_general(inst.graph, inst.target_arc).value)
    vector = timed("decode_counts", lambda: decode_counts(
        value / inst.graph.arcs[inst.target_arc], inst.bound, len(d.vertices) + 1))
    paths = timed("dfs_count", lambda: count_simple_paths(d, "dfs"))
    tracemalloc.start()
    count_simple_paths(d, "dfs")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({"ms": ms, "decoded": vector.total, "dfs": paths,
                      "bound_bits": inst.bound.bit_length(), "dfs_peak_bytes": peak}))


def count_paths(sides: dict[str, Path], repeats: int) -> dict:
    outs = {(name, label): [] for name in sides for label in INSTANCES}
    for r in range(repeats):
        for name in rotated(list(sides), r):
            for label in INSTANCES:
                stdout = run([sys.executable, __file__, "count-paths", "--child", label],
                             sides[name])
                out = json.loads(stdout.splitlines()[-1])
                if out["decoded"] != out["dfs"]:
                    raise SystemExit(f"{label} under {sides[name]}: reduction decoded "
                                     f"{out['decoded']} paths, the DFS counted {out['dfs']}")
                outs[name, label].append(out)
    for label in INSTANCES:
        counts = {outs[name, label][0]["dfs"] for name in sides}
        if len(counts) > 1:
            raise SystemExit(f"{label}: the sides count different numbers of paths {counts}")

    results = {name: {label: {
        "simple_paths": outs[name, label][0]["dfs"],
        "bound_bits": outs[name, label][0]["bound_bits"],
        "dfs_peak_kib": round(outs[name, label][0]["dfs_peak_bytes"] / 1024, 1),
        **{stage: summary([o["ms"][stage] for o in outs[name, label]]) for stage in STAGES}}
        for label in INSTANCES} for name in sides}
    rows = {}
    for label in INSTANCES:
        for stage in STAGES:
            rows[f"{label} {stage}"] = [results[name][label][stage]["median"] for name in sides]
        rows[f"{label} dfs_peak_kib"] = [results[name][label]["dfs_peak_kib"] for name in sides]
    table("instance stage", list(sides), rows)
    return {
        "metric": "wall time of one call per stage in a fresh process, ms: median and "
                  "quartiles; dfs_peak_kib is the tracemalloc peak of one DFS count",
        "repeats": repeats,
        "instances": INSTANCES,
        "stages": {
            "build_reduction": "hardness.build_reduction(d), with the wrapped EmergyGraph's "
                               "construction: on a side whose graph derives its index form "
                               "and whole-graph Tarjan pass when built, that work is here",
            "solve_general": "solver.solve_general on the wrapped instance's target arc",
            "decode_counts": "hardness.decode_counts(value / exit weight, bound, n + 1)",
            "dfs_count": "hardness.count_simple_paths(d, 'dfs')",
        },
        "results": results,
    }


def load_child(path: str) -> None:
    """Time one parse and one validation of the file at `path`; print a JSON line."""
    from empower.graph import parse_graph, validate_graph

    with open(path, encoding="utf-8") as f:
        text = f.read()
    started = time.perf_counter()
    g = parse_graph(text)
    parsed = time.perf_counter()
    report = validate_graph(g)
    done = time.perf_counter()
    print(json.dumps({"parse_graph_ms": (parsed - started) * 1000,
                      "validate_graph_ms": (done - parsed) * 1000, "violations": len(report)}))


def load(sides: dict[str, Path], repeats: int) -> dict:
    ms = {(name, label): {stage: [] for stage in LOAD_STAGES}
          for name in sides for label in LOAD_FILES}
    with tempfile.TemporaryDirectory() as tmp:
        files = {label: Path(tmp) / f"{label}.eg" for label in LOAD_FILES}
        files["chain-3000"].write_text("".join(
            ["node 1 source 7/3\n", *(f"node {i} split\n" for i in range(2, 3000)),
             "node 3000 output\n", *(f"arc {i} {i + 1} 1\n" for i in range(1, 3000))]))
        files["random-cyclic-1000"].write_text(run(
            [sys.executable, "-m", "empower.cli", "gen", "--family", "random-cyclic",
             "--nodes", "1000", "--seed", "1"], next(iter(sides.values()))))
        for r in range(repeats):
            for name in rotated(list(sides), r):
                for label, file in files.items():
                    out = json.loads(run([sys.executable, __file__, "load", "--child", str(file)],
                                         sides[name]).splitlines()[-1])
                    if out["violations"]:
                        raise SystemExit(f"{label} under {sides[name]}: {out['violations']} "
                                         "violations in a valid file")
                    started = time.perf_counter()
                    stdout = run([sys.executable, "-m", "empower.cli", "validate", str(file)],
                                 sides[name])
                    out["validate_process_ms"] = (time.perf_counter() - started) * 1000
                    if stdout:
                        raise SystemExit(f"{label} under {sides[name]}: "
                                         f"validate printed {stdout[:200]!r}")
                    for stage in LOAD_STAGES:
                        ms[name, label][stage].append(out[stage])
        lines = {label: len(file.read_text().splitlines()) for label, file in files.items()}
    results = {name: {label: {"lines": lines[label], **{
        stage: summary(ms[name, label][stage]) for stage in LOAD_STAGES}}
        for label in LOAD_FILES} for name in sides}
    table("file stage", list(sides), {
        f"{label} {stage}": [results[name][label][stage]["median"] for name in sides]
        for label in LOAD_FILES for stage in LOAD_STAGES})
    return {
        "metric": "wall time per stage, ms: median and quartiles over the repeats",
        "repeats": repeats,
        "files": LOAD_FILES,
        "stages": {
            "parse_graph_ms": "graph.parse_graph(text) in a fresh process, the EmergyGraph "
                              "construction (index form, Tarjan pass) included",
            "validate_graph_ms": "graph.validate_graph(g) in the same process",
            "validate_process_ms": "one `python -m empower.cli validate FILE` process, "
                                   "timed from start to exit by the parent",
        },
        "results": results,
    }


def ladder(stretch: int):
    """The ladder of `LADDER` with stretches of `stretch` nodes, and its arc."""
    from fractions import Fraction

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


def witness_child(label: str) -> None:
    """Time one instance's solve and witness, or stream the ladder's
    witness under `tracemalloc`; print a JSON line."""
    import tracemalloc

    from empower.generators import diamond_chain, random_dag, random_digraph
    from empower.graph import NodeKind
    from empower.hardness import build_reduction
    from empower.solver import solve_general

    if label == "ladder-1000":
        g, arc = ladder(1000)
        result = solve_general(g, arc)
        tracemalloc.start()
        started = time.perf_counter()
        count = sum(1 for _ in result.witness_paths())
        ms = (time.perf_counter() - started) * 1000
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(json.dumps({"witness_paths": count, "peak_bytes": peak, "traced_ms": ms}))
        return
    kind, _, number = label.rpartition("-")
    if kind == "diamond-chain":
        g, arc = diamond_chain(int(number))
    elif kind == "reduction":
        inst = build_reduction(random_digraph(int(number), 0.6, 1))
        g, arc = inst.graph, inst.target_arc
    else:
        g = random_dag(26, 0.45, int(number))
        into = [a for a in sorted(g.arcs) if g.kind[a[1]] is NodeKind.OUTPUT]
        arc = max(into, key=lambda a: (solve_general(g, a).stats.path_count, -a[0], -a[1]))
    ms = {stage: [] for stage in WITNESS_STAGES}
    for _ in range(15):
        started = time.perf_counter()
        result = solve_general(g, arc)
        solved = time.perf_counter()
        result.witness
        done = time.perf_counter()
        ms["solve_ms"].append((solved - started) * 1000)
        ms["witness_ms"].append((done - solved) * 1000)
    print(json.dumps({"arc": arc, "paths": result.stats.path_count,
                      "witness_paths": result.stats.witness_count,
                      **{stage: statistics.median(ms[stage]) for stage in WITNESS_STAGES}}))


def witness(sides: dict[str, Path], repeats: int) -> dict:
    labels = [*WITNESS_INSTANCES, "ladder-1000"]
    outs = {(name, label): [] for name in sides for label in labels}
    for r in range(repeats):
        for label in labels:
            for name in rotated(list(sides), r):
                stdout = run([sys.executable, __file__, "witness", "--child", label], sides[name])
                outs[name, label].append(json.loads(stdout.splitlines()[-1]))
    for label in labels:
        counts = {out["witness_paths"] for name in sides for out in outs[name, label]}
        if len(counts) > 1:
            raise SystemExit(f"{label}: the sides find different witness counts {counts}")

    results = {name: {label: {
        "arc": outs[name, label][0]["arc"], "paths": outs[name, label][0]["paths"],
        "witness_paths": outs[name, label][0]["witness_paths"],
        **{stage: summary([o[stage] for o in outs[name, label]]) for stage in WITNESS_STAGES}}
        for label in WITNESS_INSTANCES} for name in sides}
    for name in sides:
        ladder_runs = outs[name, "ladder-1000"]
        results[name]["ladder-1000"] = {
            "witness_paths": ladder_runs[0]["witness_paths"],
            "peak_kib": summary([o["peak_bytes"] / 1024 for o in ladder_runs]),
            "traced_ms": summary([o["traced_ms"] for o in ladder_runs])}
    rows = {f"{label} {stage}": [results[name][label][stage]["median"] for name in sides]
            for label in WITNESS_INSTANCES for stage in WITNESS_STAGES}
    rows["ladder-1000 peak_kib"] = [results[name]["ladder-1000"]["peak_kib"]["median"]
                                    for name in sides]
    rows["ladder-1000 traced_ms"] = [results[name]["ladder-1000"]["traced_ms"]["median"]
                                     for name in sides]
    table("instance stage", list(sides), rows)
    return {
        "metric": "per instance, the median over 15 calls in a fresh process of each stage's "
                  "wall time, ms; median and quartiles of those over the repeats",
        "repeats": repeats,
        "instances": {**WITNESS_INSTANCES, "ladder-1000": LADDER},
        "stages": {
            "solve_ms": "solver.solve_general(g, arc): the search, witness unexpanded",
            "witness_ms": "reading the result's .witness: every witness path expanded into "
                          "one tuple",
            "peak_kib": "ladder only: tracemalloc peak of streaming witness_paths() once, "
                        "the runs the expansion keeps included, KiB",
            "traced_ms": "ladder only: that streaming's wall time under tracemalloc, ms",
        },
        "results": results,
    }


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
SUITES = {"count-paths": (count_paths, 5), "load": (load, 5), "witness": (witness, 5),
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
        children = {"load": load_child, "witness": witness_child}
        children.get(args.suite, count_paths_child)(args.child)
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

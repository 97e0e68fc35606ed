#!/usr/bin/env python3
"""Time the stages of counting simple paths through the empower reduction.

Each instance runs in a fresh interpreter per side and repeat, which times by
wall clock (`time.perf_counter`) one call each of `build_reduction`,
`solve_general` on the wrapped instance, `decode_counts` on its value and
the backtracking count `count_simple_paths(d, "dfs")`, then runs the DFS
count once more under `tracemalloc` for its peak. The instances are line
digraphs of 100, 200 and 400 vertices, where the reduction's numbers are
longest, and `random_digraph(12, 0.6, 1)`, which has 96,625 simple paths.

Several `--src NAME=DIR` sides, each a directory holding the `empower`
package, are measured interleaved, the order rotating from repeat to repeat.
Every side must decode the count the DFS finds. The medians and quartiles
are printed in ms and written to BENCH_count-paths.json at the repository
root.

    git archive HEAD~1 src | tar -x -C /tmp/before
    python scripts/bench_counting.py --src before=/tmp/before/src --src after=src
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTANCES = {
    "line-100": "line digraph 1 -> 2 -> ... -> 100, start 1, target 100",
    "line-200": "line digraph 1 -> 2 -> ... -> 200, start 1, target 200",
    "line-400": "line digraph 1 -> 2 -> ... -> 400, start 1, target 400",
    "random-digraph-12": "generators.random_digraph(12, 0.6, 1), start 1, target 12",
}
STAGES = ("build_reduction", "solve_general", "decode_counts", "dfs_count")


def child(label: str) -> None:
    """Time one instance with the `empower` on the path; print a JSON line."""
    import time
    import tracemalloc

    from empower.generators import random_digraph
    from empower.hardness import Digraph, build_reduction, count_simple_paths, decode_counts
    from empower.solver import solve_general

    if label.startswith("line-"):
        n = int(label.split("-")[1])
        d = Digraph(frozenset(range(1, n + 1)),
                    frozenset((i, i + 1) for i in range(1, n)), 1, n)
    else:
        d = random_digraph(12, 0.6, 1)
    seconds = {}
    started = time.perf_counter()
    inst = build_reduction(d)
    seconds["build_reduction"] = time.perf_counter() - started
    started = time.perf_counter()
    value = solve_general(inst.graph, inst.target_arc).value
    seconds["solve_general"] = time.perf_counter() - started
    started = time.perf_counter()
    vector = decode_counts(value / inst.graph.arcs[inst.target_arc], inst.bound,
                           len(d.vertices) + 1)
    seconds["decode_counts"] = time.perf_counter() - started
    started = time.perf_counter()
    paths = count_simple_paths(d, "dfs")
    seconds["dfs_count"] = time.perf_counter() - started
    tracemalloc.start()
    count_simple_paths(d, "dfs")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({"seconds": seconds, "decoded": vector.total, "dfs": paths,
                      "bound_bits": inst.bound.bit_length(), "dfs_peak_bytes": peak}))


def run(package_dir: Path, label: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(package_dir), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, __file__, "--child", label], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{label} under {package_dir} failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if out["decoded"] != out["dfs"]:
        raise SystemExit(f"{label} under {package_dir}: reduction decoded "
                         f"{out['decoded']} paths, the DFS counted {out['dfs']}")
    return out


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles([s * 1000 for s in samples], n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="[NAME=]DIR",
                        help="a directory holding the empower package; repeat to compare")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", choices=INSTANCES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return
    if not args.src:
        parser.error("give at least one --src")
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    sides = {}
    for spec in args.src:
        name, _, path = spec.rpartition("=")
        if not (Path(path) / "empower" / "hardness.py").is_file():
            parser.error(f"{path} holds no empower package")
        sides[name or path] = Path(path).resolve()

    names = list(sides)
    outs = {(name, label): [] for name in names for label in INSTANCES}
    for r in range(args.repeats):
        for name in names[r % len(names):] + names[:r % len(names)]:
            for label in INSTANCES:
                outs[name, label].append(run(sides[name], label))
    for label in INSTANCES:
        counts = {outs[name, label][0]["dfs"] for name in names}
        if len(counts) > 1:
            raise SystemExit(f"{label}: the sides count different numbers of paths {counts}")

    results = {name: {label: {
        "simple_paths": outs[name, label][0]["dfs"],
        "bound_bits": outs[name, label][0]["bound_bits"],
        "dfs_peak_kib": round(outs[name, label][0]["dfs_peak_bytes"] / 1024, 1),
        **{stage: summary([o["seconds"][stage] for o in outs[name, label]])
           for stage in STAGES}} for label in INSTANCES} for name in names}
    record = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "metric": "wall time of one call per stage in a fresh process, ms: median and "
                  "quartiles; dfs_peak_kib is the tracemalloc peak of one DFS count",
        "repeats": args.repeats,
        "instances": INSTANCES,
        "stages": {
            "build_reduction": "hardness.build_reduction(d)",
            "solve_general": "solver.solve_general on the wrapped instance's target arc",
            "decode_counts": "hardness.decode_counts(value / exit weight, bound, n + 1)",
            "dfs_count": "hardness.count_simple_paths(d, 'dfs')",
        },
        "results": results,
    }
    (ROOT / "BENCH_count-paths.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{'instance':<20}{'stage':<17}" + "".join(f"{name:>14}" for name in names))
    for label in INSTANCES:
        for stage in STAGES:
            print(f"{label:<20}{stage:<17}" + "".join(
                f"{results[name][label][stage]['median']:>14.2f}" for name in names))
        print(f"{label:<20}{'dfs_peak_kib':<17}" + "".join(
            f"{results[name][label]['dfs_peak_kib']:>14.1f}" for name in names))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Measure what starting one `empower` command costs.

Each command runs as `python -m empower.cli ...` in a fresh interpreter,
`--repeats` times, next to `python -c pass`, the interpreter's own floor. A
process is timed by its CPU time (user plus system, from the rusage of the
finished child), which moves less with the load of a shared host than wall
time does. The package is copied out of each `--src` directory and every
process runs with PYTHONDONTWRITEBYTECODE=1, in two states:

- `compiled`: no bytecode cache, so each process compiles every module it
  imports, as the benchmark in `perfbench/` runs from a fresh checkout;
- `cached`: after one run of each command has written the bytecode.

Several `--src NAME=DIR` sides are measured interleaved, the order rotating
from repeat to repeat. The medians and quartiles are printed in ms and
written to BENCH_cli-startup.json at the repository root.

    git archive HEAD~1 src | tar -x -C /tmp/before
    python scripts/bench_cli_startup.py --src before=/tmp/before/src --src after=src
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DIGRAPH = "vertex 1\nvertex 2\nvertex 3\nvertex 4\n" \
          "edge 1 2\nedge 2 3\nedge 1 3\nedge 3 4\nedge 2 4\nstart 1\ntarget 4\n"

# label -> arguments; TEXTBOOK and DIGRAPH stand for the input files
COMMANDS = {
    "solve": ["solve", "TEXTBOOK", "--arc", "7,8"],
    "solve-4,7-state": ["solve", "TEXTBOOK", "--arc", "4,7", "--state"],
    "validate": ["validate", "TEXTBOOK"],
    "paths": ["paths", "TEXTBOOK", "--arc", "4,7"],
    "check-cograph": ["check-cograph", "TEXTBOOK", "--arc", "4,7"],
    "count-paths": ["count-paths", "DIGRAPH"],
    "gen": ["gen", "--family", "random-dag", "--nodes", "12", "--seed", "1"],
}
STATES = ("compiled", "cached")


def cpu_ms(argv: list[str], env: dict) -> float:
    """CPU time of one child process to its end, in ms; it must exit 0."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr.decode(errors='replace')}")
    return (after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime) * 1000


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, metavar="[NAME=]DIR",
                        help="a directory holding the empower package; repeat to compare")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")

    sides = {}
    for spec in args.src:
        name, _, path = spec.rpartition("=")
        package = Path(path) / "empower"
        if not (package / "cli.py").is_file():
            parser.error(f"{path} holds no empower package")
        sides[name or path] = package

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = {"DIGRAPH": tmp / "input.dg"}
        inputs["DIGRAPH"].write_text(DIGRAPH)
        runs = []  # (side, state, pythonpath)
        for i, (name, package) in enumerate(sides.items()):
            for state in STATES:
                home = tmp / f"{i}-{state}"
                shutil.copytree(package, home / "empower",
                                ignore=shutil.ignore_patterns("__pycache__"))
                runs.append((name, state, home))
        inputs["TEXTBOOK"] = tmp / "textbook.eg"
        shutil.copy(runs[0][2] / "empower" / "data" / "textbook.eg", inputs["TEXTBOOK"])
        commands = {label: [str(inputs.get(a, a)) for a in argv]
                    for label, argv in COMMANDS.items()}

        def env(home: Path, write_bytecode: bool = False) -> dict:
            e = dict(os.environ, PYTHONPATH=str(home), PYTHONDONTWRITEBYTECODE="1")
            if write_bytecode:
                del e["PYTHONDONTWRITEBYTECODE"]
            return e

        for _, state, home in runs:
            if state == "cached":
                for argv in commands.values():
                    cpu_ms([sys.executable, "-m", "empower.cli", *argv], env(home, True))

        floor: list[float] = []
        samples = {(name, state, label): [] for name, state, _ in runs for label in commands}
        for r in range(args.repeats):
            floor.append(cpu_ms([sys.executable, "-c", "pass"], env(tmp)))
            for name, state, home in runs[r % len(runs):] + runs[:r % len(runs)]:
                for label, argv in commands.items():
                    samples[name, state, label].append(
                        cpu_ms([sys.executable, "-m", "empower.cli", *argv], env(home)))

    results = {name: {state: {label: summary(samples[name, state, label]) for label in commands}
                      for state in STATES}
               for name in sides}
    record = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "metric": "child CPU time (user + system) of one process, ms: median and quartiles",
        "repeats": args.repeats,
        "commands": {label: "empower " + " ".join(argv) for label, argv in COMMANDS.items()},
        "inputs": {"TEXTBOOK": "empower/data/textbook.eg", "DIGRAPH": DIGRAPH},
        "states": {"compiled": "no bytecode cache: every process compiles the package",
                   "cached": "bytecode written by an earlier run of each command"},
        "floor_python_c_pass": summary(floor),
        "results": results,
    }
    (ROOT / "BENCH_cli-startup.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"python -c pass: {record['floor_python_c_pass']['median']:.1f} ms "
          f"(median of {args.repeats})")
    print(f"{'command':<18}" + "".join(f"{name + ' ' + state:>22}"
                                       for name in sides for state in STATES))
    for label in commands:
        print(f"{label:<18}" + "".join(f"{results[name][state][label]['median']:>22.1f}"
                                       for name in sides for state in STATES))


if __name__ == "__main__":
    main()

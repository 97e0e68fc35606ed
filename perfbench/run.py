#!/usr/bin/env python3
"""Closed-loop benchmark of the `empower` package and its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One client sends each query only after the
previous one has finished. The seed fixes every generated instance; the
program sees only the instance files. With `--trace 0` the run reports the
end-to-end metrics, with `--trace 1` the per-layer metrics of `layers.py`.
Every answer is checked; the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A line before it holds the run's record: Python version, commit, seed,
instance parameters and counts. Problems found by the checks go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import reference as ref  # noqa: E402
from check import Checker  # noqa: E402
from workloads import WORKLOADS, Plan  # noqa: E402

SETUPS = 5
# Calibration tasks run just before and just after each set-up.
SETUP_CALIBRATIONS = 8
MIN_QUERIES = 100
# Brute force is exponential in the number of compatible path sets: an arc
# of 19 mutually compatible paths takes seconds, one of 16 a tenth of one.
BRUTE_FORCE_PATHS = 16
TRACEBACK = "Traceback (most recent call last)"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], out: Path, err: Path) -> tuple[int, float, float]:
    """Run a process to its end: (exit code, wall seconds, peak RSS in MB)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def ops_file(plan: Plan, workdir: Path) -> Path:
    path = workdir / "ops.json"
    path.write_text(json.dumps([{"command": op.command, "file": str(workdir / op.file),
                                 "arc": op.arc} for op in plan.ops]))
    return path


def set_up(name: str, seed: int, workdir: Path) -> tuple[Plan, float]:
    """Generate and write the instances, then import the package and parse
    them in a fresh interpreter. Returns the plan and the seconds taken."""
    started = time.perf_counter()
    plan = WORKLOADS[name](seed)
    plan.write(workdir)
    code, _, _ = spawn([sys.executable, str(HERE / "child.py"), "setup",
                        str(ops_file(plan, workdir))], workdir / "setup.out", workdir / "setup.err")
    if code != 0:
        raise RuntimeError("set-up probe failed: "
                           + (workdir / "setup.err").read_text(errors="replace")[-2000:])
    return plan, time.perf_counter() - started


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def measure_cli(plan: Plan, workdir: Path, seconds: float, checker: Checker):
    """Each query is one `python -m empower.cli` process; the calibration
    task runs in this process between them."""
    times: list[list[float]] = [[] for _ in plan.ops]
    calibration = calib.Calibration()
    peak, failed, problems = 0.0, 0, []
    checked: dict = {}
    out, err = workdir / "query.out", workdir / "query.err"
    started = time.perf_counter()
    while len(times[0]) * len(plan.ops) < MIN_QUERIES or time.perf_counter() - started < seconds:
        for i, op in enumerate(plan.ops):
            code, wall, rss = spawn([sys.executable, "-m", "empower.cli", *op.argv(workdir)],
                                    out, err)
            times[i].append(wall * 1000)
            calibration.after(wall * 1000)
            peak = max(peak, rss)
            stdout = out.read_text(encoding="utf-8", errors="replace")
            stderr = err.read_text(encoding="utf-8", errors="replace")
            if TRACEBACK in stderr:
                failed += 1
                if len(times[i]) == 1:
                    print(f"failed: {op.name}: {stderr.splitlines()[-1][:200]}", file=sys.stderr)
                continue
            key = (op.name, code, stdout)
            if key not in checked:
                checked[key] = checker.cli(op, code, stdout, stderr)
                problems += [f"{op.name}: {p}" for p in checked[key]]
    return times, calibration.times_ms, peak, failed, problems


def measure_in_process(plan: Plan, workdir: Path, seconds: float, checker: Checker):
    """All queries in one child interpreter, whose peak RSS is reported."""
    report_path = workdir / "report.json"
    code, _, peak = spawn([sys.executable, str(HERE / "child.py"), "measure",
                           str(ops_file(plan, workdir)), str(report_path), str(seconds),
                           str(MIN_QUERIES)],
                          workdir / "child.out", workdir / "child.err")
    if code != 0:
        raise RuntimeError("measuring child failed: "
                           + (workdir / "child.err").read_text(errors="replace")[-2000:])
    report = json.loads(report_path.read_text())
    times, calibration = report["times_ms"], report["calibration_ms"]
    problems = [f"{plan.ops[i].name}: answer changed in round {r}" for i, r in report["changed"]]
    failed_ops = {i for i, _, _ in report["errors"]}
    for i, op in enumerate(plan.ops):
        answer = report["first"][i]
        if i in failed_ops or answer is None:
            continue
        if op.command == "count-paths":
            found = checker.counted(op, {k: n for k, n in answer["counts"]})
        else:
            witness = [(tuple(nodes), Fraction(v)) for nodes, v in answer["witness"]]
            found = checker.solved(op, Fraction(answer["value"]), witness)
        problems += [f"{op.name}: {p}" for p in found]
    for i, r, text in report["errors"]:
        if r == 0:
            print(f"failed: {plan.ops[i].name}: {text}", file=sys.stderr)
    return times, calibration, peak, len(report["errors"]), problems


def reference_cross_check(plan: Plan) -> list[str]:
    """The reference against closed forms and, on small diamond chains and
    every queried arc with at most BRUTE_FORCE_PATHS paths, against
    `brute_force_solve`; operations kept for a known fault are left out."""
    from empower.graph import parse_graph
    from empower.solver import brute_force_solve

    ref.self_check()
    cases = [ref.diamond_chain(layers, Fraction(7, 3)) for layers in range(1, 5)]
    seen = set()
    for op in plan.ops:
        if op.command == "solve" and not op.fault and (id(op.inst), op.arc) not in seen:
            seen.add((id(op.inst), op.arc))
            if ref.count_paths(op.inst, op.arc, BRUTE_FORCE_PATHS) <= BRUTE_FORCE_PATHS:
                cases.append((op.inst, op.arc))
    problems = []
    for inst, arc in cases:
        want = ref.max_empower(inst, arc)
        got = brute_force_solve(parse_graph(inst.text()), arc).value
        if got != want:
            problems.append(f"reference {want} but brute force {got} at {arc}")
    return problems


def program_id() -> dict:
    """The commit when the tree is a git checkout, and a hash of the sources."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            branch = ROOT / ".git" / commit[5:]
            commit = branch.read_text().strip() if branch.is_file() else None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "empower" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The whole run, every process it starts included, stays on one core:
    # moving between cores widens the spread of process start-up times.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        # Set-up time is reported in seconds of the reference host
        # (calib.REFERENCE_MS): each set-up's wall time over the median time
        # of the calibration tasks run around it. Set-up is CPU work like
        # the task, so this cancels the host's speed changes between runs,
        # which moved the wall-clock median of ten runs by a third.
        setups, setup_cal_ms, setup_scaled = [], [], []
        for _ in range(SETUPS):
            before = [calib.task_ms() for _ in range(SETUP_CALIBRATIONS)]
            plan, took = set_up(args.workload, args.seed, workdir)
            around = statistics.median(
                before + [calib.task_ms() for _ in range(SETUP_CALIBRATIONS)])
            setups.append(took)
            setup_cal_ms.append(around)
            setup_scaled.append(took * calib.REFERENCE_MS / around)
        checker = Checker()
        started = time.perf_counter()
        raw = {}
        if args.trace:
            import layers
            metrics, attempted, failed, problems = layers.run(
                plan, workdir, args.seconds, checker, child_env())
        else:
            measure = measure_in_process if plan.in_process else measure_cli
            times, calibration, peak, failed, problems = measure(
                plan, workdir, args.seconds, checker)
            attempted = sum(len(t) for t in times)
            # A query's time is the mean of its repeats, and the end-to-end
            # times are in units of the calibration task's mean time (`cal`):
            # both are averages over the whole run of a host whose speed
            # changes within it, so their ratio keeps little of that change.
            cal_ms = sum(calibration) / len(calibration)
            typical = [sum(t) / len(t) for t in times]
            p50, p90 = percentile(typical, 0.5), percentile(typical, 0.9)
            per_s = len(typical) / (sum(typical) / 1000)
            every = [x for t in times for x in t]
            raw = {"rounds": len(times[0]), "calibration_ms": cal_ms,
                   "calibration_runs": len(calibration),
                   "query_ms_p50": p50, "query_ms_p90": p90, "queries_per_s": per_s,
                   "all_samples_p50_ms": percentile(every, 0.5),
                   "all_samples_p90_ms": percentile(every, 0.9)}
            metrics = {
                "query_p50_cal": metric(p50 / cal_ms, "cal"),
                "query_p90_cal": metric(p90 / cal_ms, "cal"),
                "queries_per_cal": metric(per_s * cal_ms / 1000, "1/cal"),
                "peak_rss_mb": metric(peak, "MB"),
                "setup_s": metric(statistics.median(setup_scaled), "s"),
            }
        measured = time.perf_counter() - started
        problems += reference_cross_check(plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    record = {
        "python": platform.python_version(), **program_id(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": plan.params, "queries_per_round": len(plan.ops),
        "attempted": attempted, "failed": failed, "measured_s": round(measured, 3), **raw,
        "setup_wall_s": setups, "setup_calibration_ms": setup_cal_ms,
        "known_faults": {op.name: op.fault for op in plan.ops if op.fault},
        "problems": len(problems),
    }
    for p in problems[:50]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child process of the benchmark, so the parent's set-up stays out of its memory.

    child.py setup OPS_JSON
        Import the package and parse every instance file the operations name.
    child.py measure OPS_JSON OUT_JSON SECONDS MIN_QUERIES
        The same set-up, then whole rounds of in-process queries for at least
        SECONDS and at least MIN_QUERIES queries, with the calibration task
        of `calib.py` run between them; writes the per-query times, the
        calibration times, the first round's results and any errors to
        OUT_JSON.

OPS_JSON lists {"command", "file", "arc"}: a `solve` runs `solve_general`
and a `count-paths` runs `reduction_counts`.
"""

from __future__ import annotations

import json
import sys
import time

import empower.cli  # noqa: F401  (imported for its cost: the whole package)
from calib import Calibration
from empower.graph import parse_graph
from empower.hardness import parse_digraph, reduction_counts
from empower.solver import solve_general


def load(ops: list[dict]) -> dict:
    loaded = {}
    for op in ops:
        path = op["file"]
        if path in loaded:
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        try:
            loaded[path] = parse_digraph(text) if path.endswith(".dg") else parse_graph(text)
        except ValueError as exc:
            loaded[path] = exc
    return loaded


def query(op: dict, loaded: dict):
    """Run one query and return its answer in plain JSON form."""
    thing = loaded[op["file"]]
    if isinstance(thing, Exception):
        raise thing
    if op["command"] == "count-paths":
        return {"counts": [list(c) for c in reduction_counts(thing).counts]}
    result = solve_general(thing, tuple(op["arc"]))
    return {"value": str(result.value),
            "witness": [[list(p.nodes), str(p.value)] for p in result.witness.paths]}


def measure(ops: list[dict], seconds: float, min_queries: int) -> dict:
    loaded = load(ops)
    times: list[list[float]] = [[] for _ in ops]
    first: list = [None] * len(ops)
    errors, changed = [], []
    calibration = Calibration()
    rounds, started = 0, time.perf_counter()
    while rounds * len(ops) < min_queries or time.perf_counter() - started < seconds:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                answer = query(op, loaded)
            except Exception as exc:  # a query that raises is counted as failed
                times[i].append((time.perf_counter() - t0) * 1000)
                errors.append([i, rounds, f"{type(exc).__name__}: {str(exc)[:200]}"])
                calibration.after(times[i][-1])
                continue
            times[i].append((time.perf_counter() - t0) * 1000)
            calibration.after(times[i][-1])
            if rounds == 0:
                first[i] = answer
            elif answer != first[i]:
                changed.append([i, rounds])
        rounds += 1
    return {"rounds": rounds, "times_ms": times, "calibration_ms": calibration.times_ms,
            "first": first, "errors": errors, "changed": changed}


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as f:
        ops = json.load(f)
    if argv[0] == "setup":
        load(ops)
        return 0
    report = measure(ops, float(argv[3]), int(argv[4]))
    with open(argv[2], "w", encoding="utf-8") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

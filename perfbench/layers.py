"""Traced runs: each query replayed in-process, one timed call per layer.

Spans are taken around calls from this file into the package's public
functions; nothing inside the package is traced. Every operation goes
through the CLI in-process (`cli.main`, output captured) and then through
each layer that accepts its input:

- graph: parse, validate and order the instance;
- paths and solver: enumerate the arc's paths, then `solve_general`;
- dag: `solve_dag` on the same arc, which must agree on an acyclic
  instance and refuse a cyclic one;
- compat: for arcs with at most 400 paths (the `check-cograph` default
  cap), build the compatibility graph and find no induced four-path;
- hardness: `count-paths` queries, and acyclic instances of at most 100
  nodes, whose source-to-tail paths the counting reduction must count
  exactly.

Per-layer figures are per round: a time is the median over rounds of the
round's total in that layer, a count is the round's total, and a size is
the round's largest.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

from empower import cli
from empower.compat import build_compatibility_graph, find_induced_p4
from empower.dag import GraphCycleError, solve_dag
from empower.graph import ParseError, parse_graph, topological_order, validate_graph
from empower.hardness import build_reduction, decode_counts, parse_digraph, reduction_counts
from empower.paths import enumerate_emergy_paths
from empower.solver import solve_general

import reference as ref
from check import Checker, cli_method
from reference import Digraph
from workloads import Op, Plan

TIMES = ["cli.import_ms", "cli.main_ms", "graph.parse_graph_ms", "graph.validate_graph_ms",
         "graph.topological_order_ms", "paths.enumerate_emergy_paths_ms",
         "solver.solve_general_ms", "dag.solve_dag_ms", "compat.build_compatibility_graph_ms",
         "compat.find_induced_p4_ms", "hardness.build_reduction_ms",
         "hardness.reduction_counts_ms", "hardness.decode_counts_ms"]
COUNTS = ["cli.stdout_bytes", "paths.paths_enumerated", "paths.path_nodes",
          "solver.witness_paths", "compat.pairs_checked"]
SIZES = ["solver.value_den_bits", "hardness.bound_bits"]
UNITS = {"ms": "ms", "bytes": "bytes", "bits": "bits"}
COMPAT_CAP = 400
REDUCTION_NODES = 100


class Trace:
    """Per-round totals of span durations and counts."""

    def __init__(self):
        self.rounds: list[dict[str, float]] = []
        self.current: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, (time.perf_counter() - started) * 1000)

    def add(self, name: str, amount: float):
        self.current[name] = self.current.get(name, 0) + amount

    def size(self, name: str, amount: int):
        self.current[name] = max(self.current.get(name, 0), amount)

    def end_round(self):
        self.rounds.append(self.current)
        self.current = {}

    def metrics(self) -> dict:
        out = {}
        for name in TIMES + COUNTS + SIZES:
            value = statistics.median(r.get(name, 0) for r in self.rounds)
            unit = name.rsplit("_", 1)[1]
            out[name] = {"value": value, "unit": UNITS.get(unit, "count")}
        return out


def import_ms(env: dict) -> float:
    """Import time of `empower.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import empower.cli; "
            "print((time.perf_counter() - t) * 1000)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


class Replay:
    def __init__(self, plan: Plan, workdir, checker: Checker, trace: Trace):
        self.workdir, self.checker, self.trace = workdir, checker, trace
        self.texts = {name: (workdir / name).read_text(encoding="utf-8") for name in plan.files}

    def op(self, op: Op) -> list[str]:
        """Replay one operation; returns its problems. Exceptions propagate."""
        t = self.trace
        out, err = io.StringIO(), io.StringIO()
        with t.span("cli.main_ms"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(op.argv(self.workdir))
        t.add("cli.stdout_bytes", len(out.getvalue().encode("utf-8")))
        problems = self.checker.cli(op, code, out.getvalue(), err.getvalue())
        text = self.texts[op.file]
        if op.command == "count-paths":
            return problems + self.counting(parse_digraph(text), op.inst)
        try:
            with t.span("graph.parse_graph_ms"):
                g = parse_graph(text)
        except ParseError:
            return problems if op.expect == 2 else problems + ["parse error"]
        with t.span("graph.validate_graph_ms"):
            report = validate_graph(g)
        with t.span("graph.topological_order_ms"):
            acyclic = topological_order(g).order is not None
        if report or op.arc is None or op.arc not in g.arcs:
            return problems
        if op.command == "solve":
            problems += self.dag(op, g, acyclic)
            if cli_method(op) != "cotree":
                return problems
        with t.span("paths.enumerate_emergy_paths_ms"):
            paths = enumerate_emergy_paths(g, op.arc)
        t.add("paths.paths_enumerated", len(paths))
        t.add("paths.path_nodes", sum(len(p.nodes) for p in paths))
        if op.command == "solve":
            problems += self.solving(op, g)
        if op.command in ("solve", "check-cograph") and len(paths) <= COMPAT_CAP:
            with t.span("compat.build_compatibility_graph_ms"):
                cg = build_compatibility_graph(g, op.arc)
            with t.span("compat.find_induced_p4_ms"):
                four = find_induced_p4(cg, cap=COMPAT_CAP)
            t.add("compat.pairs_checked", len(paths) * (len(paths) - 1) // 2)
            if four is not None:
                problems.append(f"induced four-path {four}")
        return problems

    def solving(self, op: Op, g) -> list[str]:
        t = self.trace
        with t.span("solver.solve_general_ms"):
            result = solve_general(g, op.arc)
        t.add("solver.witness_paths", len(result.witness.paths))
        t.size("solver.value_den_bits", result.value.denominator.bit_length())
        return self.checker.solved(op, result.value,
                                   [(p.nodes, p.value) for p in result.witness.paths])

    def dag(self, op: Op, g, acyclic: bool) -> list[str]:
        """`solve_dag` answers on an acyclic instance and refuses a cyclic one."""
        t = self.trace
        try:
            with t.span("dag.solve_dag_ms"):
                value = solve_dag(g, op.arc)
        except GraphCycleError:
            return [] if not acyclic else ["solve_dag refused an acyclic instance"]
        if not acyclic:
            return ["solve_dag answered on a cyclic instance"]
        problems = self.checker.solved(op, value, None)
        if len(op.inst.kind) <= REDUCTION_NODES:
            start = op.inst.sources[0]
            d = Digraph(max(op.inst.kind), frozenset(op.inst.arcs), start, op.arc[0])
            problems += self.counting(parse_digraph(d.text()), d)
        return problems

    def counting(self, d, expected: Digraph) -> list[str]:
        """`reduction_counts` whole, then its three stages one by one."""
        t = self.trace
        with t.span("hardness.reduction_counts_ms"):
            whole = reduction_counts(d)
        with t.span("hardness.build_reduction_ms"):
            inst = build_reduction(d)
        t.size("hardness.bound_bits", inst.bound.bit_length())
        with t.span("graph.topological_order_ms"):
            acyclic = topological_order(inst.graph).order is not None
        if acyclic:
            with t.span("dag.solve_dag_ms"):
                value = solve_dag(inst.graph, inst.target_arc)
        else:
            with t.span("solver.solve_general_ms"):
                value = solve_general(inst.graph, inst.target_arc).value
        with t.span("hardness.decode_counts_ms"):
            staged = decode_counts(value / inst.graph.arcs[inst.target_arc], inst.bound,
                                   len(d.vertices) + 1)
        if staged != whole:
            return ["reduction_counts differs from its stages"]
        succ = {v: sorted(b for a, b in expected.arcs if a == v)
                for v in range(1, expected.vertices + 1)}
        if ref.is_acyclic(succ):
            want = ref.dag_path_count(succ, expected.start, expected.target)
            if whole.total != want:
                return [f"reduction counts {whole.total}, reference {want}"]
            return []
        got = {k: n for k, n in whole.counts}
        return self.checker.counted(Op("", "count-paths", "", inst=expected), got)


def run(plan: Plan, workdir, seconds: float, checker: Checker,
        env: dict) -> tuple[dict, int, int, list[str]]:
    """Whole traced rounds for `seconds`; returns metrics, attempted, failed, problems."""
    trace = Trace()
    replay = Replay(plan, workdir, checker, trace)
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while not trace.rounds or time.perf_counter() - started < seconds:
        trace.add("cli.import_ms", import_ms(env))
        for op in plan.ops:
            attempted += 1
            try:
                problems += [f"{op.name}: {p}" for p in replay.op(op)]
            except Exception as exc:  # the operation failed; the run goes on
                failed += 1
                if not trace.rounds:
                    print(f"failed: {op.name}: {type(exc).__name__}: {str(exc)[:200]}",
                          file=sys.stderr)
        trace.end_round()
    return trace.metrics(), attempted, failed, problems


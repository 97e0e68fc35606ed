"""Checks of every answer against the reference or a property it must have.

`Checker.cli` reads one CLI invocation's exit code and output; `solved` and
`counted` check in-process answers. Each returns a list of problems, empty
when the answer is right. A run that ends in a Python traceback is not
checked here: the caller counts it as a failed operation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

import reference as ref
from workloads import Op


def _nodes(text: str) -> tuple[int, ...]:
    return tuple(int(n) for n in text.split(","))


def _option(op: Op, name: str, default: str | None = None) -> str | None:
    args = list(op.args)
    return args[args.index(name) + 1] if name in args else default


def cli_method(op: Op) -> str:
    """The solver `solve` runs: `auto` picks dag for a value-only query on an
    acyclic instance and cotree otherwise."""
    chosen = _option(op, "--method", "auto")
    if chosen != "auto":
        return chosen
    return "dag" if ref.is_acyclic(op.inst.succ) and "--state" not in op.args else "cotree"


class Checker:
    """Reference answers, computed once per instance and arc."""

    def __init__(self):
        self._values: dict = {}
        self._paths: dict = {}

    def value(self, op: Op) -> Fraction:
        if op.closed_form is not None:
            return op.closed_form
        key = (id(op.inst), op.arc)
        if key not in self._values:
            self._values[key] = ref.max_empower(op.inst, op.arc)
        return self._values[key]

    def paths(self, op: Op) -> list:
        key = (id(op.inst), op.arc)
        if key not in self._paths:
            self._paths[key] = ref.emergy_paths(op.inst, op.arc)
        return self._paths[key]

    def solved(self, op: Op, value: Fraction,
               witness: list[tuple[tuple[int, ...], Fraction]] | None) -> list[str]:
        """A solve answer: the optimum, and when given, a witness that attains it."""
        want = self.value(op)
        problems = [] if value == want else [f"value {value}, reference {want}"]
        if witness is None:
            return problems
        for nodes, v in witness:
            why = ref.check_witness(op.inst, op.arc, nodes)
            if why:
                return problems + [why]
            if v != ref.path_value(op.inst, nodes):
                problems.append(f"path {nodes} reported value {v}")
        paths = [nodes for nodes, _ in witness]
        if len(set(paths)) != len(paths):
            problems.append("witness repeats a path")
        if not ref.pairwise_compatible(op.inst.kind, paths):
            problems.append("witness paths are not pairwise compatible")
        if sum((v for _, v in witness), Fraction(0)) != value:
            problems.append("witness values do not sum to the optimum")
        if (value > 0) != bool(witness):
            problems.append(f"{len(witness)} witness paths for value {value}")
        return problems

    def counted(self, op: Op, counts: dict[int, int]) -> list[str]:
        """Per-length counts keyed by emergy-path arcs, two more than digraph arcs."""
        want = {k + 2: n for k, n in ref.simple_path_counts(op.inst).items()}
        got = {k: n for k, n in counts.items() if n}
        return [] if got == want else [f"counts {got}, reference {want}"]

    def cli(self, op: Op, code: int, out: str, err: str) -> list[str]:
        """One CLI invocation: documented exit code, then the output's content."""
        problems = [] if code == op.expect else [f"exit {code}, expected {op.expect}"]
        if op.expect in (2, 3):
            lines = err.splitlines()
            if out or len(lines) != 1 or not lines[0].startswith("error: "):
                problems.append(f"expected one 'error:' line on stderr, got {err[:200]!r}")
            return problems
        if problems:
            return problems
        check = {"solve": self._solve_output, "validate": self._validate_output,
                 "paths": self._paths_output, "check-cograph": self._cograph_output,
                 "count-paths": self._count_output}[op.command]
        return check(op, out.splitlines())

    def _solve_output(self, op: Op, lines: list[str]) -> list[str]:
        records = _option(op, "--format") == "records"
        places = int(_option(op, "--places", "2"))
        period = _option(op, "--period")
        want_state = "--state" in op.args
        if lines and lines[-1].startswith("note: "):
            lines = lines[:-1]
        value = decimal = method = count = witness_count = None
        witness, rate = [], None
        for line in lines:
            if m := re.fullmatch(r"Em = (\S+) \((\S+)\)", line):
                value, decimal = Fraction(m[1]), m[2]
            elif m := re.fullmatch(r"solution arc=(\S+) method=(\S+) em=(\S+) decimal=(\S+) "
                                   r"paths=(\d+) witness=(\d+)", line):
                if _nodes(m[1]) != op.arc:
                    return [f"records line names arc {m[1]}"]
                method, value, decimal, count = m[2], Fraction(m[3]), m[4], int(m[5])
                witness_count = int(m[6])
            elif m := re.fullmatch(r"(?:  |state-path )(\S+) value=(\S+)", line):
                witness.append((_nodes(m[1]), Fraction(m[2])))
            elif m := (re.fullmatch(r"empower = (\S+) \((\S+)\)", line)
                       or re.fullmatch(r"empower period=\S+ value=(\S+) decimal=(\S+)", line)):
                rate = (Fraction(m[1]), m[2])
            elif line != "state:" or records:
                return [f"unexpected line {line[:120]!r}"]
        if value is None:
            return ["no value line"]
        problems = self.solved(op, value, witness if want_state else None)
        if decimal != ref.decimal(value, places):
            problems.append(f"decimal {decimal} for {value}")
        if not want_state and witness:
            problems.append("witness printed without --state")
        if period is None and rate is not None:
            problems.append("empower line without --period")
        if period is not None:
            want = value / Fraction(period)
            if rate != (want, ref.decimal(want, places)):
                problems.append(f"empower {rate}, expected {want}")
        if records:
            want_method = cli_method(op)
            if method != want_method:
                problems.append(f"method {method}, expected {want_method}")
            if method == "cotree" and count != len(self.paths(op)):
                problems.append(f"paths={count}, reference {len(self.paths(op))}")
            if want_state and witness_count != len(witness):
                problems.append(f"witness={witness_count} but {len(witness)} paths printed")
        return problems

    def _validate_output(self, op: Op, lines: list[str]) -> list[str]:
        if op.expect == 0:
            return [f"violations on a valid instance: {lines[:3]}"] if lines else []
        inst = op.inst
        unbalanced = [n for n in sorted(inst.kind) if inst.kind[n] in (ref.SOURCE, ref.SPLIT)
                      and sum(inst.arcs[(n, m)] for m in inst.succ[n]) != 1]
        got = [re.match(r"violation\[split-sum\] \D*(\d+)", line) for line in lines]
        if not all(got) or [int(m[1]) for m in got] != unbalanced:
            return [f"expected split-sum violations at {unbalanced}, got {lines[:3]}"]
        return []

    def _paths_output(self, op: Op, lines: list[str]) -> list[str]:
        got = []
        for line in lines:
            m = re.fullmatch(r"path nodes=(\S+) source=(\d+) arcs=(\d+) value=(\S+)", line)
            if not m:
                return [f"unexpected line {line[:120]!r}"]
            nodes = _nodes(m[1])
            if int(m[2]) != nodes[0] or int(m[3]) != len(nodes) - 1:
                return [f"source or arc count wrong in {line!r}"]
            got.append((nodes, Fraction(m[4])))
        want = self.paths(op)
        if sorted(got) != want:
            return [f"{len(got)} paths listed, reference has {len(want)}"]
        return []

    def _cograph_output(self, op: Op, lines: list[str]) -> list[str]:
        paths = [nodes for nodes, _ in self.paths(op)]
        edges = sum(ref.compatible(op.inst.kind, a, b) for a, b in combinations(paths, 2))
        want = [f"{len(paths)} vertices, {edges} edges"]
        return [] if lines == want else [f"got {lines[:3]}, expected {want} and no four-path"]

    def _count_output(self, op: Op, lines: list[str]) -> list[str]:
        total = sum(ref.simple_path_counts(op.inst).values())
        method = _option(op, "--method", "both")
        want = [f"{m}: {total}" for m in (["reduction", "dfs"] if method == "both" else [method])]
        return [] if lines == want else [f"got {lines}, expected {want}"]

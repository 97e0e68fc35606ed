#!/usr/bin/env python3
"""Check that `empower` packages give the same answers, query by query.

    git archive HEAD~1 src | tar -x -C /tmp/before
    python scripts/parity.py --src before=/tmp/before/src --src after=src [--seeds N]

Each `--src NAME=DIR` is a directory holding the `empower` package, as in
`scripts/bench.py`. Each tree's package is copied into a temporary
directory as `empower_NAME` and every tree is imported into this one
process. Each family's instances are built by each tree's own generators
for seeds 0 to N - 1 (30 by default), and every answer goes into one
SHA-256 digest per family and tree:

- per arc: the value, `path_count`, `witness_count` and the witness paths
  with their `Fraction` values;
- per arc tail: the listing of its smallest arc;
- `validate_graph`'s report on each graph and on two broken copies of it;
- the parse outcome of four copies of each graph's (or digraph's)
  serialized text, each with one token, drawn by a generator seeded with
  the family and seed, replaced or deleted: the parsed graph's
  serialization, or the `ParseError`'s line, column and message;
- `reduction_counts` of each counting instance;
- the stdout bytes and exit code of `cli.main` over a fixed grid of
  commands and options, on files written from the first two seeds.

The search's frames (`tree_nodes`) are summed per family and printed apart,
since search work may change while answers may not. When a family's
digests differ, the first query whose answer differs is printed with each
tree's answer. The exit status is 1 when any digest differs. Only names
that every tree since the re-anchor at `9d6d929` has are called.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

# the commands run on each (file, arc): {file} and {arc} are filled in
SOLVE_GRID = [
    ["paths", "{file}", "--arc", "{arc}"],
    ["paths", "{file}", "--arc", "{arc}", "--format", "records"],
    *[["solve", "{file}", "--arc", "{arc}", "--method", method, *state, "--format", fmt]
      for method in ("auto", "cotree", "dag", "brute")
      for state in ((), ("--state",)) for fmt in ("text", "records")],
    ["check-cograph", "{file}", "--arc", "{arc}"],
    ["check-cograph", "{file}", "--arc", "{arc}", "--cap", "10"],
]
COUNT_GRID = [["count-paths", "{file}", "--method", method]
              for method in ("reduction", "dfs", "both")]
GEN_FAMILIES = ("diamond-chain", "random-dag", "random-cyclic", "random-digraph", "reduction")
CLI_SEEDS = 2
# what replaces the drawn token of a serialized text; None deletes it
REPLACEMENTS = [None, "0", "7", "-1", "1/0", "1/2/3", "x", "\uff13", "split", "arc", "edge"]


def graphs(pkg, family: str, seed: int):
    """The emergy graph of `family` at `seed` from tree `pkg`; a
    generator's refusal is returned as its message."""
    gen = importlib.import_module(f"{pkg}.generators")
    hardness = importlib.import_module(f"{pkg}.hardness")
    try:
        if family == "textbook":
            return importlib.import_module(f"{pkg}.fixtures").load_textbook()
        if family == "diamond-chain":
            return gen.diamond_chain(1 + seed % 8, Fraction(1 + seed % 5, 3))[0]
        if family == "random-dag":
            return gen.random_dag(12, 0.3, seed)
        if family == "random-cyclic":
            return gen.random_cyclic(14, 0.3, 3, seed)
        if family == "cyclic-core":
            return gen.random_cyclic(24, 0.26, 4, seed)
        return hardness.build_reduction(gen.random_digraph(6, 0.5, seed)).graph
    except ValueError as refusal:
        return f"refused: {refusal}"


FAMILIES = ("textbook", "diamond-chain", "random-dag", "random-cyclic", "cyclic-core",
            "reduction", "random-digraph")


def cli(pkg, argv: list[str], workdir: Path) -> str:
    """One `cli.main` call: its exit code and the digest of its stdout."""
    main = importlib.import_module(f"{pkg}.cli").main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as refusal:  # argparse's usage errors
            code = refusal.code
    text = out.getvalue().replace(str(workdir), "DIR")
    return f"exit {code} stdout {hashlib.sha256(text.encode()).hexdigest()}"


def parse_outcomes(pkg, parse, serialize, text: str, rng: random.Random) -> list[str]:
    """Four copies of `text`, each with one token replaced or deleted, and
    the serialization `parse` gives back or its ParseError's position."""
    error = importlib.import_module(f"{pkg}.graph").ParseError
    lines = [line.split() for line in text.splitlines()]
    out = []
    for _ in range(4):
        n = rng.randrange(len(lines))
        k, new = rng.randrange(len(lines[n])), rng.choice(REPLACEMENTS)
        copy = [*lines[:n], lines[n][:k] + ([] if new is None else [new]) + lines[n][k + 1:],
                *lines[n + 1:]]
        try:
            outcome = serialize(parse("\n".join(" ".join(line) for line in copy)))
        except error as refusal:
            outcome = repr((refusal.line, refusal.column, str(refusal)))
        out.append(f"line {n + 1} token {k} -> {new!r}: {outcome}")
    return out


def answers(pkg, family: str, seeds: int, workdir: Path) -> tuple[list, int]:
    """Every (query, answer) of `family` from tree `pkg`, in a fixed order,
    and the search's frames summed over the arc queries."""
    graph = importlib.import_module(f"{pkg}.graph")
    solver = importlib.import_module(f"{pkg}.solver")
    paths = importlib.import_module(f"{pkg}.paths")
    hardness = importlib.import_module(f"{pkg}.hardness")
    gen = importlib.import_module(f"{pkg}.generators")
    out, frames = [], 0
    for seed in range(1 if family == "textbook" else seeds):
        at = f"{family} seed {seed}"
        if family == "random-digraph":
            d = gen.random_digraph(7, 0.5, seed)
            out.append((f"{at} reduction_counts", repr(tuple(hardness.reduction_counts(d)))))
            out.append((f"{at} parse", parse_outcomes(
                pkg, hardness.parse_digraph, hardness.serialize_digraph,
                hardness.serialize_digraph(d), random.Random(at))))
            if seed < CLI_SEEDS:
                file = workdir / f"{family}-{seed}.dg"
                file.write_text(hardness.serialize_digraph(d), encoding="utf-8")
                for argv in COUNT_GRID:
                    argv = [a.format(file=file) for a in argv]
                    out.append((f"{at} cli {argv[0]} {argv[2:]}", cli(pkg, argv, workdir)))
            continue
        g = graphs(pkg, family, seed)
        if isinstance(g, str):
            out.append((at, g))
            continue
        out.append((f"{at} graph", graph.serialize_graph(g)))
        out.append((f"{at} parse", parse_outcomes(pkg, graph.parse_graph, graph.serialize_graph,
                                                  graph.serialize_graph(g), random.Random(at))))
        arcs = sorted(g.arcs)
        first = next(iter(arcs))
        broken = [g.arcs, {**g.arcs, first: g.arcs[first] * 2},
                  {a: w for a, w in g.arcs.items() if a != arcs[-1]}]
        for i, arcs_of in enumerate(broken):
            report = graph.validate_graph(graph.EmergyGraph(g.kind, g.source_emergy, arcs_of))
            out.append((f"{at} validate_graph copy {i}", repr(report)))
        for arc in arcs:
            result = solver.solve_general(g, arc)
            witness = ";".join(f"{','.join(map(str, p.nodes))}={p.value}"
                               for p in result.witness.paths)
            out.append((f"{at} arc {arc}", f"value {result.value} paths "
                         f"{result.stats.path_count} witness {result.stats.witness_count}: "
                         f"{witness}"))
            frames += result.stats.tree_nodes
        for tail in sorted({a for a, _ in arcs}):
            arc = min(a for a in arcs if a[0] == tail)
            listing = ";".join(f"{','.join(map(str, p.nodes))}={p.value}"
                               for p in paths.iter_emergy_paths(g, arc))
            out.append((f"{at} listing {arc}", listing))
        if seed < CLI_SEEDS:
            file = workdir / f"{family}-{seed}.eg"
            file.write_text(graph.serialize_graph(g), encoding="utf-8")
            out.append((f"{at} cli validate", cli(pkg, ["validate", str(file)], workdir)))
            for arc in {arcs[0], arcs[-1]}:
                for argv in SOLVE_GRID:
                    argv = [a.format(file=file, arc=f"{arc[0]},{arc[1]}") for a in argv]
                    out.append((f"{at} cli {argv[0]} {argv[2:]}", cli(pkg, argv, workdir)))
    if family == "textbook":
        for name in GEN_FAMILIES:
            for seed in range(CLI_SEEDS):
                argv = ["gen", "--family", name, "--seed", str(seed)]
                out.append((f"cli {' '.join(argv)}", cli(pkg, argv, workdir)))
    return out, frames


def load(name: str, src: Path, into: Path) -> str:
    """Copy tree `src`'s package to `into` as `empower_<name>`; import it."""
    pkg = f"empower_{name}"
    shutil.copytree(src / "empower", into / pkg, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(pkg)
    return pkg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, metavar="NAME=DIR",
                        help="a directory holding the empower package; repeat to compare")
    parser.add_argument("--seeds", type=int, default=30, help="seeds 0 to N - 1 per family")
    args = parser.parse_args()
    trees = {}
    for spec in args.src:
        name, _, path = spec.partition("=")
        if not name.isidentifier() or name in trees:
            parser.error(f"{spec}: give each tree a distinct NAME=DIR, NAME an identifier")
        if not (Path(path) / "empower" / "cli.py").is_file():
            parser.error(f"{path} holds no empower package")
        trees[name] = Path(path).resolve()

    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {name: load(name, src, Path(tmp)) for name, src in trees.items()}
        print(f"{'family':<16}{'tree':<12}{'digest':<18}{'queries':>9}{'tree_nodes':>12}")
        for family in FAMILIES:
            results = {}
            for name, pkg in pkgs.items():
                workdir = Path(tmp) / f"files-{name}"
                workdir.mkdir(exist_ok=True)
                results[name] = out, frames = answers(pkg, family, args.seeds, workdir)
                digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
                print(f"{family:<16}{name:<12}{digest:<18}{len(out):>9}{frames:>12}", flush=True)
            first_name, (first, _) = next(iter(results.items()))
            for name, (out, _) in results.items():
                if out == first:
                    continue
                differ = True
                i = next((i for i, (a, b) in enumerate(zip(first, out)) if a != b),
                         min(len(first), len(out)))
                for who, rows in ((first_name, first), (name, out)):
                    print(f"  {who}: {rows[i] if i < len(rows) else 'no more queries'}")
    print("answers differ" if differ else "answers identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

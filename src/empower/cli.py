"""Command line surface.

Exit codes: 0 success, 1 semantic failure (violations, count mismatch, an
induced four-path), 2 usage or parse errors, 3 method/instance mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

from .graph import (_MAX_DIGITS, _TOO_LONG, EmergyGraph, ParseError, parse_graph, parse_id,
                    serialize_graph, validate_graph)

# A process runs one command: the solver, the listing, the hardness
# reduction, the generators and the compatibility graph are imported inside
# the commands that use them.

# the textbook arc whose solution prints `fixtures.TEXTBOOK_NOTICE`; only a
# solve at this arc loads `fixtures`
TEXTBOOK_DISPUTED_ARC = (4, 7)

_MAX_PLACES = 100_000


def decimal_string(x: Fraction, places: int = 2) -> str:
    """Exact fixed-point rendering (round half away from zero); display only."""
    sign = "-" if x < 0 else ""
    scaled = abs(x.numerator) * 10 ** places
    q, r = divmod(scaled, x.denominator)
    if 2 * r >= x.denominator:
        q += 1
    digits = str(q).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _arc(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected L,LP, got {text!r}")
    try:  # ids as a file has them: ASCII digits only
        return tuple(parse_id(part.strip(), "node id", 1, 1) for part in parts)
    except ParseError:
        raise argparse.ArgumentTypeError(f"arc endpoints must be integers: {text!r}") from None


def _positive_rational(text: str) -> Fraction:
    # `Fraction` builds 10**exponent before anything can be checked; past
    # this bound no value of the text fits the digits a file may hold
    _, _, exponent = text.lower().partition("e")
    try:
        huge = abs(int(exponent or 0)) > 2 * _MAX_DIGITS + len(text)
        value = None if huge else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational, got {text!r}") from None
    if value is None or max(abs(value.numerator), value.denominator) >= _TOO_LONG:
        raise argparse.ArgumentTypeError(f"a value may have at most {_MAX_DIGITS} digits")
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("value must not be negative")
    return value


def _places(text: str) -> int:
    # `decimal_string` builds 10**places, in time quadratic in the places
    value = _non_negative_int(text)
    if value > _MAX_PLACES:
        raise argparse.ArgumentTypeError(f"at most {_MAX_PLACES} places")
    return value


def _fail(message: str, code: int) -> NoReturn:
    """Refuse the command: print its one error line; `main` returns `code`."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}", 2)


def _load(args) -> EmergyGraph:
    """The graph in `args.file` if it parses, validates and has `args.arc`; else a refusal."""
    try:
        g = parse_graph(_read(args.file))
    except ParseError as exc:
        _fail(f"{args.file}: {exc}", 2)
    report = validate_graph(g)
    for v in report:
        print(f"violation[{v.code}] {v.message}")
    if report:
        raise SystemExit(1)
    arc = getattr(args, "arc", None)
    if arc is not None and arc not in g.arcs:
        _fail(f"{arc[0]},{arc[1]} is not an arc of the instance", 2)
    return g


def cmd_validate(args) -> int:
    _load(args)
    return 0


def cmd_paths(args) -> int:
    from .paths import iter_emergy_paths

    g = _load(args)
    for p in iter_emergy_paths(g, args.arc):
        if args.format == "records":
            print(f"path nodes={p} source={p.source} arcs={p.arc_count} value={p.value}")
        else:
            print(f"{p} value={p.value}")
    return 0


def cmd_solve(args) -> int:
    g = _load(args)
    # loaded before the clock starts, so the time printed is the solve's alone
    from .solver import brute_force_solve, solve_general

    method = args.method
    if method == "auto":
        method = "dag" if g.acyclic and not args.state else "cotree"
    if method == "dag":
        if args.state:
            _fail("the dag method computes the value only; drop --state", 2)
        if not g.acyclic:
            _fail("the dag method needs an acyclic instance; use cotree", 3)
    started = time.perf_counter()
    if method == "brute":
        try:
            result = brute_force_solve(g, args.arc)
        except ValueError as exc:
            _fail(str(exc), 3)
    else:
        result = solve_general(g, args.arc)
    elapsed = time.perf_counter() - started
    # timing goes to stderr so stdout stays byte-stable for a given input
    print(f"solved in {elapsed * 1000:.1f} ms", file=sys.stderr)
    dec = decimal_string(result.value, args.places)
    if args.format == "records":
        print(f"solution arc={args.arc[0]},{args.arc[1]} method={method} "
              f"em={result.value} decimal={dec} paths={result.stats.path_count} "
              f"witness={result.stats.witness_count}")
    else:
        print(f"Em = {result.value} ({dec})")
    if args.state:
        if args.format != "records":
            print("state:")
        for p in result.witness_paths():
            prefix = "state-path" if args.format == "records" else " "
            print(f"{prefix} {p} value={p.value}")
    if args.period is not None:
        rate = result.value / args.period
        if args.format == "records":
            print(f"empower period={args.period} value={rate} "
                  f"decimal={decimal_string(rate, args.places)}")
        else:
            print(f"empower = {rate} ({decimal_string(rate, args.places)})")
    if args.arc == TEXTBOOK_DISPUTED_ARC:
        from . import fixtures

        if g == fixtures.load_textbook():
            print(fixtures.TEXTBOOK_NOTICE)
    return 0


def cmd_check_cograph(args) -> int:
    from .compat import build_compatibility_graph, find_induced_p4
    from .solver import solve_general

    g = _load(args)
    # count the paths without listing them, so the cap comes before the O(n^2) work
    n = solve_general(g, args.arc).stats.path_count
    if n > args.cap:
        _fail(f"{n} vertices exceed the induced-path check cap {args.cap}", 3)
    cg = build_compatibility_graph(g, args.arc)
    witness = find_induced_p4(cg, cap=args.cap)
    print(f"{len(cg.vertices)} vertices, {len(cg.edges)} edges")
    if witness is not None:
        print("induced four-path found:")
        for idx in witness:
            print(f"  {cg.vertices[idx]}")
        return 1
    return 0


def cmd_count_paths(args) -> int:
    from .hardness import count_simple_paths, parse_digraph

    try:
        d = parse_digraph(_read(args.file))
    except ValueError as exc:
        _fail(f"{args.file}: {exc}", 2)
    methods = ["reduction", "dfs"] if args.method == "both" else [args.method]
    counts = {m: count_simple_paths(d, m) for m in methods}
    for m in methods:
        print(f"{m}: {counts[m]}")
    if len(set(counts.values())) > 1:
        _fail("reduction and dfs disagree", 1)
    return 0


def cmd_gen(args) -> int:
    from . import generators

    # the text is built before anything is printed, so a refusal prints nothing
    try:
        if args.family == "diamond-chain":
            g, arc = generators.diamond_chain(args.length, args.source_emergy)
            header = [f"diamond-chain length={args.length}",
                      f"suggested target arc: {arc[0]},{arc[1]}"]
            text = serialize_graph(g)
        elif args.family == "random-dag":
            g = generators.random_dag(args.nodes, args.arc_density, args.seed)
            header = [f"random-dag nodes={args.nodes} arc-density={args.arc_density} "
                      f"seed={args.seed}"]
            text = serialize_graph(g)
        elif args.family == "random-cyclic":
            g = generators.random_cyclic(args.nodes, args.arc_density, args.back_arcs, args.seed)
            header = [f"random-cyclic nodes={args.nodes} arc-density={args.arc_density} "
                      f"back-arcs={args.back_arcs} seed={args.seed}"]
            text = serialize_graph(g)
        elif args.family == "random-digraph":
            from .hardness import serialize_digraph

            d = generators.random_digraph(args.nodes, args.arc_prob, args.seed)
            header = [f"random-digraph vertices={args.nodes} arc-prob={args.arc_prob} "
                      f"seed={args.seed}"]
            text = serialize_digraph(d)
        else:
            if args.digraph is None:
                _fail("the reduction family needs --digraph FILE", 2)
            from .hardness import build_reduction, parse_digraph

            d = parse_digraph(_read(args.digraph))
            inst = build_reduction(d)
            header = [f"reduction of {args.digraph}; bound={inst.bound}",
                      f"target arc: {inst.target_arc[0]},{inst.target_arc[1]}"]
            text = serialize_graph(inst.graph)
    except ValueError as exc:
        _fail(str(exc), 2)
    for line in header:
        print(f"# {line}")
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="empower",
        description="Exact maximum empower solvers on emergy graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance against the structural rules")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("paths", help="list the emergy paths of an arc")
    p.add_argument("file")
    p.add_argument("--arc", type=_arc, required=True, metavar="L,LP")
    p.add_argument("--format", choices=["text", "records"], default="text")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("solve", help="maximum empower of an arc")
    p.add_argument("file")
    p.add_argument("--arc", type=_arc, required=True, metavar="L,LP")
    p.add_argument("--method", choices=["auto", "cotree", "dag", "brute"], default="auto")
    p.add_argument("--state", action="store_true", help="print the witness paths")
    p.add_argument("--period", type=_positive_rational, default=None, metavar="P/Q",
                   help="also print empower = value / period")
    p.add_argument("--format", choices=["text", "records"], default="text")
    p.add_argument("--places", type=_places, default=2,
                   help=f"decimal places in renderings, at most {_MAX_PLACES}")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check-cograph",
                       help="verify the compatibility graph has no induced four-path")
    p.add_argument("file")
    p.add_argument("--arc", type=_arc, required=True, metavar="L,LP")
    p.add_argument("--cap", type=_non_negative_int, default=400)
    p.set_defaults(func=cmd_check_cograph)

    p = sub.add_parser("count-paths", help="count simple start-to-target paths of a digraph")
    p.add_argument("file")
    p.add_argument("--method", choices=["reduction", "dfs", "both"], default="both")
    p.set_defaults(func=cmd_count_paths)

    p = sub.add_parser("gen", help="emit a generated instance on stdout")
    p.add_argument("--family", required=True,
                   choices=["diamond-chain", "random-dag", "random-cyclic",
                            "random-digraph", "reduction"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int, default=3, help="diamond-chain layers")
    p.add_argument("--source-emergy", type=_positive_rational,
                   default=Fraction(1), help="diamond-chain source emergy")
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--arc-density", type=float, default=0.4)
    p.add_argument("--back-arcs", type=int, default=1)
    p.add_argument("--arc-prob", type=float, default=0.5)
    p.add_argument("--digraph", default=None, help="digraph file for the reduction family")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # exact values can have more digits than `str` gives by default; numbers
    # read from files keep their own bound (`graph._MAX_DIGITS`, checked
    # before `int` runs by `graph.read_id` and the rational reader)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except SystemExit as refusal:  # a command's refusal, already printed
        return refusal.code
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

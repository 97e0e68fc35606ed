"""Command surface: output shapes and the exit code contract."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import empower
from empower.cli import decimal_string, main
from empower.fixtures import TEXTBOOK_NOTICE, textbook_path
from empower.generators import diamond_chain, random_digraph
from empower.graph import parse_graph, serialize_graph, validate_graph
from empower.hardness import parse_digraph
from empower.paths import enumerate_emergy_paths

TEXTBOOK = str(textbook_path())


@pytest.fixture
def trivial_file(tmp_path):
    f = tmp_path / "trivial.eg"
    f.write_text("node 1 source 5\nnode 2 output\narc 1 2 1\n")
    return str(f)


@pytest.fixture
def broken_file(tmp_path):
    f = tmp_path / "broken.eg"
    text = textbook_path().read_text().replace("arc 2 3 3/10", "arc 2 3 1/2")
    f.write_text(text)
    return str(f)


@pytest.fixture
def non_utf8_file(tmp_path):
    f = tmp_path / "latin1.eg"
    f.write_bytes(b"node 1 source 5\nnode 2 output # caf\xe9\narc 1 2 1\n")
    return str(f)


def assert_unreadable(argv, path, capsys, reason="'utf-8' codec"):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot read {path}: {reason}")


@pytest.fixture
def digraph_file(tmp_path):
    f = tmp_path / "tri.dg"
    f.write_text("vertex 1\nvertex 2\nvertex 3\n"
                 "edge 1 2\nedge 2 3\nedge 1 3\nstart 1\ntarget 3\n")
    return str(f)


class TestDecimalString:
    def test_renderings(self):
        assert decimal_string(Fraction(315)) == "315.00"
        assert decimal_string(Fraction(1215, 4)) == "303.75"
        assert decimal_string(Fraction(45, 8)) == "5.63"
        assert decimal_string(Fraction(-45, 8)) == "-5.63"
        assert decimal_string(Fraction(45, 8), places=4) == "5.6250"
        assert decimal_string(Fraction(45, 8), places=0) == "6"


class TestValidateCommand:
    def test_valid_instance(self, capsys):
        assert main(["validate", TEXTBOOK]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one(self, broken_file, capsys):
        assert main(["validate", broken_file]) == 1
        out = capsys.readouterr().out
        assert "violation[split-sum]" in out and "2" in out

    def test_garbage_exits_two(self, tmp_path, capsys):
        f = tmp_path / "junk.eg"
        f.write_text("what is this\n")
        assert main(["validate", str(f)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["\u00b2", "\uff13"])
    def test_non_ascii_id_exits_two(self, tmp_path, capsys, token):
        f = tmp_path / "digits.eg"
        f.write_text(f"node {token} source 1\n", encoding="utf-8")
        assert main(["validate", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_missing_file_exits_two(self, capsys):
        path = "/nonexistent/file.eg"
        assert_unreadable(["validate", path], path, capsys, reason="[Errno 2] No such file")

    def test_non_utf8_file_exits_two(self, non_utf8_file, capsys):
        assert_unreadable(["validate", non_utf8_file], non_utf8_file, capsys)


class TestSolveCommand:
    def test_textbook_solve_and_notice(self, capsys):
        assert main(["solve", TEXTBOOK, "--arc", "4,7", "--method", "cotree"]) == 0
        out = capsys.readouterr().out
        assert "Em = 315 (315.00)" in out
        assert "303.75" in out  # the published-value notice for this instance

    def test_notice_absent_elsewhere(self, capsys):
        assert main(["solve", TEXTBOOK, "--arc", "7,11"]) == 0
        assert "303.75" not in capsys.readouterr().out

    def test_notice_on_the_textbook_in_another_layout(self, tmp_path, capsys):
        f = tmp_path / "reordered.eg"
        lines = textbook_path().read_text().splitlines()
        f.write_text("# the textbook, arcs first\n" + "\n".join(reversed(lines)) + "\n")
        assert main(["solve", str(f), "--arc", "4,7"]) == 0
        assert capsys.readouterr().out == f"Em = 315 (315.00)\n{TEXTBOOK_NOTICE}\n"

    def test_no_notice_on_another_instance_of_its_size(self, tmp_path, capsys):
        f = tmp_path / "changed.eg"
        f.write_text(textbook_path().read_text().replace("node 1 source 100",
                                                          "node 1 source 101"))
        assert main(["solve", str(f), "--arc", "4,7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Em = ") and "303.75" not in out

    def test_state_listing(self, capsys):
        assert main(["solve", TEXTBOOK, "--arc", "4,7", "--state"]) == 0
        out = capsys.readouterr().out
        assert "state:" in out
        assert "  1,2,4,7 value=70" in out
        assert out.count("value=") == 5

    def test_period(self, trivial_file, capsys):
        assert main(["solve", trivial_file, "--arc", "1,2", "--period", "2"]) == 0
        out = capsys.readouterr().out
        assert "Em = 5 (5.00)" in out
        assert "empower = 5/2 (2.50)" in out

    def test_records_period(self, trivial_file, capsys):
        assert main(["solve", trivial_file, "--arc", "1,2", "--format", "records",
                     "--period", "7/4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["empower period=7/4 value=20/7 decimal=2.86"]

    def test_records_format(self, capsys):
        assert main(["solve", TEXTBOOK, "--arc", "4,7", "--format", "records",
                     "--state"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("solution arc=4,7 method=cotree em=315 decimal=315.00 "
                          "paths=6 witness=5")
        assert sum(1 for line in out if line.startswith("state-path ")) == 5

    def test_records_name_the_method_that_ran(self, capsys):
        assert main(["solve", TEXTBOOK, "--arc", "4,7", "--method", "brute",
                     "--format", "records"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "solution arc=4,7 method=brute em=315 decimal=315.00 paths=6 witness=5")

    def test_methods_agree(self, capsys):
        for method in ("auto", "cotree", "brute"):
            assert main(["solve", TEXTBOOK, "--arc", "4,7", "--method", method]) == 0
            assert "Em = 315" in capsys.readouterr().out

    def test_auto_picks_dag_on_acyclic(self, tmp_path, capsys):
        assert main(["gen", "--family", "diamond-chain", "--length", "4",
                     "--source-emergy", "7/3"]) == 0
        text = capsys.readouterr().out
        f = tmp_path / "dc.eg"
        f.write_text(text)
        for method in ("auto", "dag", "cotree"):
            assert main(["solve", str(f), "--arc", "14,15", "--method", method]) == 0
            assert "Em = 7/3 (2.33)" in capsys.readouterr().out

    def test_records_count_paths_without_expanding(self, tmp_path, capsys):
        assert main(["gen", "--family", "diamond-chain", "--length", "30"]) == 0
        f = tmp_path / "dc30.eg"
        f.write_text(capsys.readouterr().out)
        for method in ("auto", "dag", "cotree"):
            assert main(["solve", str(f), "--arc", "92,93", "--method", method,
                         "--format", "records"]) == 0
            assert capsys.readouterr().out == (
                f"solution arc=92,93 method={'cotree' if method == 'cotree' else 'dag'} "
                "em=1 decimal=1.00 paths=1073741824 witness=1073741824\n")

    def test_long_chain_state(self, tmp_path, capsys):
        n = 3000
        lines = ["node 1 source 7/3", f"node {n} output"]
        lines += [f"node {i} split" for i in range(2, n)]
        lines += [f"arc {i} {i + 1} 1" for i in range(1, n)]
        f = tmp_path / "chain.eg"
        f.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(f), "--arc", f"{n - 1},{n}", "--state"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["Em = 7/3 (2.33)", "state:"]
        assert out[2:] == ["  " + ",".join(map(str, range(1, n + 1))) + " value=7/3"]

    def test_dag_method_on_cyclic_exits_three(self, capsys):
        assert main(["solve", TEXTBOOK, "--arc", "4,7", "--method", "dag"]) == 3
        assert "acyclic" in capsys.readouterr().err

    def test_dag_method_with_state_exits_two(self, capsys):
        assert main(["solve", TEXTBOOK, "--arc", "4,7", "--method", "dag",
                     "--state"]) == 2

    def test_negative_places_exit_two(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["solve", TEXTBOOK, "--arc", "4,7", "--places", "-1"])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must not be negative" in captured.err
        assert main(["solve", TEXTBOOK, "--arc", "4,7", "--places", "0"]) == 0
        assert capsys.readouterr().out.startswith("Em = 315 (315)\n")

    @pytest.mark.parametrize("options, message", [
        (["--arc", "1,x"], "arc endpoints must be integers: '1,x'"),
        (["--arc", "4,7", "--period", "0"], "value must be positive"),
        (["--arc", "4,7", "--period", "abc"], "expected a rational, got 'abc'"),
        (["--arc", "4,7", "--places", "x"], "expected an integer, got 'x'"),
    ])
    def test_bad_option_value_exits_two(self, options, message, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["solve", TEXTBOOK, *options])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_bad_arc_exits_two(self, capsys):
        assert main(["solve", TEXTBOOK, "--arc", "1,7"]) == 2
        assert "not an arc" in capsys.readouterr().err

    @pytest.mark.parametrize("arc", ["\uff14,\uff17", "+4,7", "7,1_1"])
    def test_arc_ids_follow_the_file_rule(self, arc, capsys):
        """`int` would read these as the arcs 4,7, 4,7 and 7,11; a file
        refuses each of their ids."""
        with pytest.raises(SystemExit) as caught:
            main(["solve", TEXTBOOK, "--arc", arc])
        assert caught.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["solve", TEXTBOOK, "--arc", "4,7", "--period", "1e4301"],
        ["solve", TEXTBOOK, "--arc", "4,7", "--period", "1e999999999"],
        ["solve", TEXTBOOK, "--arc", "4,7", "--period", "1e-999999999"],
        ["gen", "--family", "diamond-chain", "--source-emergy", "1e999999999"],
    ])
    def test_value_longer_than_a_file_holds_exits_two(self, argv, capsys):
        """Refused from the text, before `Fraction` builds 10**exponent."""
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at most 4300 digits" in captured.err

    @pytest.mark.parametrize("period, rate", [
        ("0.5", "10"), ("7/4", "20/7"), ("25e-1", "2"), ("1e4299", f"1/{2 * 10 ** 4298}")])
    def test_period_forms(self, trivial_file, period, rate, capsys):
        assert main(["solve", trivial_file, "--arc", "1,2", "--period", period]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(f"empower = {rate} (")

    def test_brute_cap_exits_three(self, tmp_path, capsys):
        assert main(["gen", "--family", "diamond-chain", "--length", "5"]) == 0
        f = tmp_path / "dc5.eg"
        f.write_text(capsys.readouterr().out)
        assert main(["solve", str(f), "--arc", "17,18", "--method", "brute"]) == 3

    def test_invalid_instance_exits_one(self, broken_file):
        assert main(["solve", broken_file, "--arc", "4,7"]) == 1

    def test_non_utf8_file_exits_two(self, non_utf8_file, capsys):
        assert_unreadable(["solve", non_utf8_file, "--arc", "1,2"], non_utf8_file, capsys)


class TestPathsCommand:
    def test_text_listing(self, capsys):
        assert main(["paths", TEXTBOOK, "--arc", "4,7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0] == "1,2,3,7,8,6,4,7 value=45/4"

    def test_record_listing(self, capsys):
        assert main(["paths", TEXTBOOK, "--arc", "4,7", "--format", "records"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "path nodes=1,2,4,7 source=1 arcs=3 value=70"

    def test_unreachable_arc_is_empty_success(self, tmp_path, capsys):
        f = tmp_path / "unreachable.eg"
        f.write_text("node 1 source 2\nnode 2 output\nnode 3 split\nnode 4 output\n"
                     "arc 1 2 1\narc 3 4 1\n")
        assert main(["paths", str(f), "--arc", "3,4"]) == 0
        assert capsys.readouterr().out == ""

    def test_bad_arc_exits_two(self):
        assert main(["paths", TEXTBOOK, "--arc", "4,9"]) == 2

    def test_listing_streams(self, textbook, monkeypatch, capsys):
        """The listing is printed as the expansion yields it, never as a list."""
        expected = "".join(f"path nodes={p} source={p.source} arcs={p.arc_count} value={p.value}\n"
                           for p in enumerate_emergy_paths(textbook, (4, 7)))

        def refuse_listing(*args):
            raise AssertionError("enumerate_emergy_paths called")

        monkeypatch.setattr("empower.paths.enumerate_emergy_paths", refuse_listing)
        assert main(["paths", TEXTBOOK, "--arc", "4,7", "--format", "records"]) == 0
        assert capsys.readouterr().out == expected


class TestCheckCographCommand:
    def test_textbook(self, capsys):
        assert main(["check-cograph", TEXTBOOK, "--arc", "4,7"]) == 0
        assert capsys.readouterr().out.startswith("6 vertices, 14 edges")

    def test_injected_four_path_exits_one(self, monkeypatch, capsys):
        from empower.compat import CompatibilityGraph
        from empower.paths import EmergyPath

        def fake_build(g, arc):
            vertices = tuple(EmergyPath((i,), Fraction(1)) for i in range(4))
            return CompatibilityGraph(vertices, frozenset({(0, 1), (1, 2), (2, 3)}))

        monkeypatch.setattr("empower.compat.build_compatibility_graph", fake_build)
        assert main(["check-cograph", TEXTBOOK, "--arc", "4,7"]) == 1
        assert "induced four-path" in capsys.readouterr().out

    def test_cap_exits_three(self, capsys):
        assert main(["check-cograph", TEXTBOOK, "--arc", "4,7", "--cap", "3"]) == 3

    def test_cap_is_checked_before_building(self, tmp_path, monkeypatch, capsys):
        g, arc = diamond_chain(16)
        f = tmp_path / "dc16.eg"
        f.write_text(serialize_graph(g))

        def refuse_building(g, arc):
            raise AssertionError("built the compatibility graph over the cap")

        monkeypatch.setattr("empower.compat.build_compatibility_graph", refuse_building)
        assert main(["check-cograph", str(f), "--arc", f"{arc[0]},{arc[1]}",
                     "--cap", "10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 65536 vertices exceed the induced-path check cap 10\n"

    def test_negative_cap_exits_two(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["check-cograph", TEXTBOOK, "--arc", "4,7", "--cap", "-1"])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must not be negative" in captured.err


class TestCountPathsCommand:
    def test_both_methods(self, digraph_file, capsys):
        assert main(["count-paths", digraph_file]) == 0
        out = capsys.readouterr().out
        assert "reduction: 2" in out and "dfs: 2" in out

    def test_single_method(self, digraph_file, capsys):
        assert main(["count-paths", digraph_file, "--method", "dfs"]) == 0
        assert capsys.readouterr().out == "dfs: 2\n"

    def test_long_line(self, tmp_path, capsys):
        for n, method in ((1200, "dfs"), (120, "both")):
            lines = [f"vertex {i}" for i in range(1, n + 1)]
            lines += [f"edge {i} {i + 1}" for i in range(1, n)]
            f = tmp_path / f"line{n}.dg"
            f.write_text("\n".join(lines + ["start 1", f"target {n}"]) + "\n")
            assert main(["count-paths", str(f), "--method", method]) == 0
            out = capsys.readouterr().out
            assert out == ("dfs: 1\n" if method == "dfs" else "reduction: 1\ndfs: 1\n")

    def test_dense_digraph(self, tmp_path, capsys):
        """`random_digraph(13, 0.6, 1)`: 751,690 simple paths, which the
        reduction counts by sharing entries inside its dense component."""
        f = tmp_path / "dense.dg"
        assert main(["gen", "--family", "random-digraph", "--nodes", "13",
                     "--arc-prob", "0.6", "--seed", "1"]) == 0
        f.write_text(capsys.readouterr().out)
        assert main(["count-paths", str(f), "--method", "both"]) == 0
        assert capsys.readouterr().out == "reduction: 751690\ndfs: 751690\n"

    def test_mismatch_exits_one(self, digraph_file, monkeypatch, capsys):
        monkeypatch.setattr(
            "empower.hardness.count_simple_paths",
            lambda d, m: 1 if m == "reduction" else 2)
        assert main(["count-paths", digraph_file]) == 1
        assert "disagree" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path):
        f = tmp_path / "bad.dg"
        f.write_text("vertex 1\nstart 1\ntarget 1\n")
        assert main(["count-paths", str(f)]) == 2

    @pytest.mark.parametrize("text, site", [
        ("vertex 1\nvertex 2\nvertex 3\nedge 1 2\nedge 2 9\nstart 1\ntarget 3\n",
         "line 5, column 8: undeclared vertex 9"),
        ("vertex 1\nstart 1\ntarget 2\n", "line 3, column 8: undeclared vertex 2"),
    ], ids=["edge", "target"])
    def test_undeclared_vertex_names_its_line(self, tmp_path, capsys, text, site):
        f = tmp_path / "undeclared.dg"
        f.write_text(text)
        assert main(["count-paths", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {f}: {site}\n"

    @pytest.mark.parametrize("text, site", [
        ("vertex 1\nstart 1\ntarget 1\n", "line 3, column 8"),
        ("vertex 1\ntarget 1\nvertex 2\nstart 1\n", "line 4, column 7"),
    ], ids=["target-last", "start-last"])
    def test_start_equal_to_target_names_the_second_line(self, tmp_path, capsys, text, site):
        f = tmp_path / "loop.dg"
        f.write_text(text)
        assert main(["count-paths", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {f}: {site}: start and target must differ\n"

    @pytest.mark.parametrize("line, message", [
        ("edge 1", "edge line needs 2 vertex id(s)"),
        ("edge 2 2", "self-loop edge (2, 2)"),
        ("start 2", "duplicate start line"),
        ("target 1", "duplicate target line"),
    ])
    def test_malformed_line_exits_two(self, tmp_path, capsys, line, message):
        f = tmp_path / "bad.dg"
        f.write_text(f"vertex 1\nvertex 2\nedge 1 2\nstart 1\ntarget 2\n{line}\n")
        assert main(["count-paths", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {f}: line 6, column 1: {message}")


def unlimited_str(n: int) -> str:
    """`str(n)` past the interpreter's digit limit, which tests leave as it is."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def line_reduction(tmp_path, capsys):
    """The reduction of a 100-vertex line digraph, and its bound B. Its one
    path to the arc 100,102 has the value 1/B^99, of about 15,700 digits."""
    lines = [f"vertex {i}" for i in range(1, 101)]
    lines += [f"edge {i} {i + 1}" for i in range(1, 100)]
    dg = tmp_path / "line.dg"
    dg.write_text("\n".join(lines + ["start 1", "target 100"]) + "\n")
    assert main(["gen", "--family", "reduction", "--digraph", str(dg)]) == 0
    out = capsys.readouterr().out
    f = tmp_path / "line.eg"
    f.write_text(out)
    return str(f), int(out.split("bound=", 1)[1].split("\n", 1)[0])


class TestLongExactValues:
    """Values past the interpreter's 4,300-digit int-string limit print whole."""

    def test_solve_prints_every_digit(self, line_reduction, capsys):
        path, bound = line_reduction
        assert main(["solve", path, "--arc", "100,102"]) == 0
        assert capsys.readouterr().out == f"Em = 1/{unlimited_str(bound ** 99)} (0.00)\n"

    def test_paths_prints_every_digit(self, line_reduction, capsys):
        path, bound = line_reduction
        assert main(["paths", path, "--arc", "100,102"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.endswith(f" value=1/{unlimited_str(bound ** 99)}\n")

    def test_many_places(self, capsys):
        assert main(["solve", TEXTBOOK, "--arc", "7,8", "--places", "5000"]) == 0
        assert capsys.readouterr().out == f"Em = 350 (350.{'0' * 5000})\n"

    @pytest.mark.parametrize("places", ["100001", str(10 ** 12)])
    def test_too_many_places_exits_two(self, places, capsys):
        """Refused while parsing the arguments, before 10**places is built."""
        with pytest.raises(SystemExit) as caught:
            main(["solve", TEXTBOOK, "--arc", "7,8", "--places", places])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error:") == 1
        assert "at most 100000 places" in captured.err

    def test_most_places(self, capsys):
        assert main(["solve", TEXTBOOK, "--arc", "7,8", "--places", "100000"]) == 0
        assert capsys.readouterr().out == f"Em = 350 (350.{'0' * 100_000})\n"

    def test_overlong_number_in_a_file_exits_two(self, tmp_path, capsys):
        f = tmp_path / "long.eg"
        f.write_text("node 1 source " + "7" * 4301 + "\nnode 2 output\narc 1 2 1\n")
        assert main(["validate", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "too long" in captured.err

    @pytest.mark.parametrize("argv", [
        ["solve", TEXTBOOK, "--arc", "7,8"],
        ["solve", TEXTBOOK, "--arc", "9,9"],
        ["validate", "/nonexistent/file.eg"],
    ])
    def test_main_restores_the_limit(self, argv, capsys):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            main(argv)
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)


class TestGenCommand:
    def test_deterministic_output(self, capsys):
        argv = ["gen", "--family", "random-dag", "--nodes", "12",
                "--arc-density", "0.4", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_emitted_instances_validate(self, capsys):
        for argv in (
            ["gen", "--family", "random-dag", "--nodes", "9", "--seed", "3"],
            ["gen", "--family", "random-cyclic", "--nodes", "10", "--seed", "4"],
            ["gen", "--family", "diamond-chain", "--length", "2"],
        ):
            assert main(argv) == 0
            g = parse_graph(capsys.readouterr().out)
            assert validate_graph(g) == []

    def test_reduction_family(self, digraph_file, capsys):
        assert main(["gen", "--family", "reduction", "--digraph", digraph_file]) == 0
        out = capsys.readouterr().out
        assert "bound=15" in out
        g = parse_graph(out)
        assert validate_graph(g) == []

    def test_reduction_too_long_to_read_back_exits_two(self, tmp_path, capsys):
        n = 1600  # the bound B of this line has 4,435 digits, which no file may hold
        f = tmp_path / "line.dg"
        f.write_text("\n".join([f"vertex {i}" for i in range(1, n + 1)]
                               + [f"edge {i} {i + 1}" for i in range(1, n)]
                               + ["start 1", f"target {n}"]) + "\n")
        assert main(["gen", "--family", "reduction", "--digraph", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_random_digraph_family(self, capsys):
        assert main(["gen", "--family", "random-digraph", "--nodes", "6", "--seed", "2"]) == 0
        assert parse_digraph(capsys.readouterr().out) == random_digraph(6, 0.5, 2)

    def test_reduction_family_needs_digraph(self, capsys):
        assert main(["gen", "--family", "reduction"]) == 2

    def test_bad_parameters_exit_two(self, capsys):
        assert main(["gen", "--family", "random-dag", "--nodes", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--family", "random-dag", "--arc-density", "5"],
        ["--family", "random-cyclic", "--arc-density", "nan"],
        ["--family", "random-digraph", "--arc-prob", "-1"],
    ])
    def test_probability_outside_unit_interval_exits_two(self, argv, capsys):
        assert main(["gen", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", TEXTBOOK, "--arc", "banana"])
        assert err.value.code == 2


# Runs `main` in a fresh interpreter; its last line of output lists the
# modules that the command loaded and that were not loaded at start-up.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
from empower.cli import main
code = main(sys.argv[1:])
print(*sorted(set(sys.modules) - before))
sys.exit(code)
"""


def run_fresh(args: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh interpreter that imports this `empower`;
    it must exit 0 within `timeout` seconds."""
    src = str(Path(empower.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc


def modules_loaded_by(argv: list[str]) -> set[str]:
    """The modules `main(argv)` loads in a fresh interpreter; it must exit 0."""
    proc = run_fresh(["-c", IMPORT_PROBE, *argv])
    return set(proc.stdout.splitlines()[-1].split())


# every command once; DIGRAPH stands for a digraph file
MODULE_COMMANDS = {
    "solve": ["solve", TEXTBOOK, "--arc", "7,8"],
    "solve-4,7-state": ["solve", TEXTBOOK, "--arc", "4,7", "--state"],
    "validate": ["validate", TEXTBOOK],
    "paths": ["paths", TEXTBOOK, "--arc", "4,7"],
    "check-cograph": ["check-cograph", TEXTBOOK, "--arc", "4,7"],
    "count-paths": ["count-paths", "DIGRAPH"],
    "gen": ["gen", "--family", "random-dag", "--nodes", "12", "--seed", "1"],
}


@pytest.mark.parametrize("argv", MODULE_COMMANDS.values(), ids=MODULE_COMMANDS)
def test_python_m_runs_every_command(argv, digraph_file, capsys):
    argv = [digraph_file if a == "DIGRAPH" else a for a in argv]
    proc = run_fresh(["-m", "empower.cli", *argv])
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.fixture
def dead_chain_file(tmp_path):
    """`diamond_chain(40)`, whose 2^40 paths never reach the query arc, and
    a second source 124 feeding split 125, whose arc into output 126 is the
    query arc with its one path."""
    g, _ = diamond_chain(40)
    extra = ("node 124 source 3\nnode 125 split\nnode 126 output\n"
             "arc 124 125 1\narc 125 126 1\n")
    f = tmp_path / "dead-chain.eg"
    f.write_text(serialize_graph(g) + extra)
    return str(f)


@pytest.mark.parametrize("argv, out", [
    (["paths"], "124,125,126 value=3\n"),
    (["check-cograph"], "1 vertices, 0 edges\n"),
    (["solve", "--method", "brute"], "Em = 3 (3.00)\n"),
], ids=["paths", "check-cograph", "solve-brute"])
def test_paths_of_an_arc_skip_the_prefixes_that_never_reach_it(argv, out, dead_chain_file):
    """Listing the one path walks none of the 2^40 prefixes that cannot
    reach the arc tail; run in a child process so a walk over them fails
    at the timeout instead of hanging."""
    proc = run_fresh(["-m", "empower.cli", argv[0], dead_chain_file, "--arc", "125,126",
                      *argv[1:]], timeout=20)
    assert proc.stdout == out


@pytest.fixture
def dead_cycle_file(tmp_path):
    """Source 1 feeds split 2, which feeds split 3 (into output 4) and
    splits 5..16; each of those feeds the other eleven and 2 back. The
    cycle through 5..16 reaches the query arc 3,4 only through 2, which is
    on every path, so the arc's one emergy path is 1,2,3,4."""
    k, ring = 12, range(5, 17)
    lines = ["node 1 source 1", "node 2 split", "node 3 split", "node 4 output",
             *(f"node {v} split" for v in ring),
             "arc 1 2 1", f"arc 2 3 1/{k + 1}", "arc 3 4 1",
             *(f"arc 2 {v} 1/{k + 1}" for v in ring),
             *(f"arc {v} {w} 1/{k}" for v in ring for w in (2, *ring) if w != v)]
    text = "\n".join(lines) + "\n"
    assert validate_graph(parse_graph(text)) == []
    f = tmp_path / "dead-cycle.eg"
    f.write_text(text)
    return str(f)


@pytest.mark.parametrize("argv, out", [
    (["paths"], "1,2,3,4 value=1/13\n"),
    (["check-cograph"], "1 vertices, 0 edges\n"),
    (["solve", "--method", "brute", "--state"], "Em = 1/13 (0.08)\nstate:\n  1,2,3,4 value=1/13\n"),
], ids=["paths", "check-cograph", "solve-brute-state"])
def test_a_dead_cycle_keeps_the_listing_small(argv, out, dead_cycle_file):
    """Past the one path, a walk that does not close dead nodes enters
    every simple path into the 12-split cycle, each leading only back to
    split 2 on the path: minutes of work. The listing closes them as the
    search does; run in a child process so the walk fails at the timeout."""
    proc = run_fresh(["-m", "empower.cli", argv[0], dead_cycle_file, "--arc", "3,4",
                      *argv[1:]], timeout=30)
    assert proc.stdout == out


def test_counting_demo_agrees():
    demo = Path(__file__).parents[1] / "scripts" / "counting_demo.py"
    proc = run_fresh([str(demo), "--vertices", "5", "--seed", "3"])
    assert proc.stdout.splitlines()[-1].endswith("(AGREE)")


def test_bench_script_offers_count_paths_and_the_workloads():
    root = Path(__file__).parents[1]
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    proc = run_fresh([str(root / "scripts" / "bench.py"), "--help"])
    suites = re.search(r"\{(.*?)\}", proc.stdout).group(1).split(",")
    assert suites == ["count-paths", "load", "witness",
                      *(w["name"] for w in benchmark["workloads"])]
    for label, count in [("diamond-chain-8", 256), ("reduction-10", 2596)]:
        child = run_fresh([str(root / "scripts" / "bench.py"), "witness", "--child", label])
        out = json.loads(child.stdout.splitlines()[-1])
        assert (out["paths"], out["witness_paths"]) == (count, count)


def test_parity_script_finds_a_tree_identical_to_itself(tmp_path):
    """Two copies of this tree agree; a copy whose textbook has another
    source emergy differs first on the textbook's graph."""
    script = Path(__file__).parents[1] / "scripts" / "parity.py"
    src = Path(empower.__file__).parents[1]
    proc = run_fresh([str(script), "--src", f"a={src}", "--src", f"b={src}", "--seeds", "2"])
    lines = proc.stdout.splitlines()
    assert lines[-1] == "answers identical"
    rows = [line.split() for line in lines[1:-1]]
    assert [row[1] for row in rows] == ["a", "b"] * 7
    assert all(a[0] == b[0] and a[2:] == b[2:] for a, b in zip(rows[::2], rows[1::2]))
    shutil.copytree(src / "empower", tmp_path / "empower")
    data = tmp_path / "empower" / "data" / "textbook.eg"
    data.write_text(data.read_text().replace("node 1 source 100", "node 1 source 101"))
    proc = subprocess.run([sys.executable, str(script), "--src", f"a={src}",
                           "--src", f"b={tmp_path}", "--seeds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout.endswith("answers differ\n")
    assert "  a: ('textbook seed 0 graph'," in proc.stdout


class TestStartupImports:
    NOT_NEEDED = {"dataclasses", "empower.hardness", "empower.compat",
                  "empower.generators", "empower.dag"}
    # a solve lists no paths, and a validation neither lists nor solves
    NOT_RUN = {"solve": {"empower.paths"}, "validate": {"empower.paths", "empower.solver"}}

    @pytest.mark.parametrize("argv", [
        ["solve", TEXTBOOK, "--arc", "7,8"],
        ["solve", TEXTBOOK, "--arc", "4,7", "--state", "--format", "records"],
        ["validate", TEXTBOOK],
    ])
    def test_command_loads_only_what_it_runs(self, argv):
        loaded = modules_loaded_by(argv)
        assert "empower.cli" in loaded
        assert loaded & (self.NOT_NEEDED | self.NOT_RUN[argv[0]]) == set()

    def test_solve_times_no_import(self):
        """The solver is loaded when the clock of `solved in X ms` starts."""
        probe = """
import sys, types
from empower import cli
seen = []
def clock():
    seen.append("empower.solver" in sys.modules)
    return 0.0
cli.time = types.SimpleNamespace(perf_counter=clock)
code = cli.main(sys.argv[1:])
print(seen)
sys.exit(code)
"""
        proc = run_fresh(["-c", probe, "solve", TEXTBOOK, "--arc", "7,8"])
        assert proc.stdout.splitlines()[-1] == "[True, True]"

    def test_gen_loads_no_counting_or_compatibility(self):
        loaded = modules_loaded_by(["gen", "--family", "random-dag"])
        assert "empower.generators" in loaded
        assert loaded & {"empower.hardness", "empower.compat", "empower.solver"} == set()

    def test_gen_of_a_digraph_loads_no_solver(self):
        loaded = modules_loaded_by(["gen", "--family", "random-digraph"])
        assert "empower.hardness" in loaded
        assert loaded & {"empower.solver", "empower.paths", "empower.compat"} == set()

    def test_imports_run_one_way(self):
        """The solver loads no listing, and the path type the listing
        re-exports is the solver's."""
        proc = run_fresh(["-c", "import sys, empower.solver; print('empower.paths' in sys.modules)"])
        assert proc.stdout == "False\n"
        assert empower.EmergyPath is empower.paths.EmergyPath is empower.solver.EmergyPath

    def test_package_uses_no_dataclasses(self):
        package = Path(empower.__file__).parent
        assert [p.name for p in package.rglob("*.py") if "dataclass" in p.read_text()] == []

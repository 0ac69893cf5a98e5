"""End-to-end command-line behavior, including exit codes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaenergy import cli, closed_forms, ops
from alphaenergy.cli import (MAX_GRID_POINTS, _parse_alpha_grid, main,
                             parse_graph_source, UsageError)
from alphaenergy.closed_forms import verify_closed_form
from alphaenergy.graphs import cycle
from alphaenergy.ops import OPS, apply_op, op_label, parse_op
from alphaenergy.spectra import AlphaValue


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSourceParsing:
    def test_families(self):
        assert parse_graph_source("C5")[1].p == 5
        assert parse_graph_source("P7")[1].q == 6
        assert parse_graph_source("K4")[1].q == 6
        assert parse_graph_source("K2,3")[1].q == 6
        assert parse_graph_source("petersen")[1].q == 15

    def test_nested_ops(self):
        # L^2(C5) = C5, then the middle graph doubles the order
        label, g = parse_graph_source("op:middle:op:line:2:C5")
        assert label == "op:middle:op:line:2:C5"
        assert (g.p, g.q) == (10, 15)

    @pytest.mark.parametrize("text", [
        "X5", "C", "K2,3,4", "C2", "P0", "op:middle", "op:splitting:C4",
        "op:splitting:x:C4", "op:frob:C4", "file:/does/not/exist",
    ])
    def test_rejects(self, text):
        with pytest.raises(UsageError):
            parse_graph_source(text)

    @pytest.mark.parametrize("argv", [("gen", "{}"), ("energy", "{}", "--alpha", "0.5"),
                                      ("op", "line:0", "{}")], ids=lambda argv: argv[0])
    def test_2000_levels_print_what_the_innermost_source_prints(self, capsys, argv):
        # the op: prefixes are peeled in a loop, not one call per level
        deep = run(capsys, *(x.format("op:line:0:" * 2000 + "C3") for x in argv))
        assert deep == run(capsys, *(x.format("C3") for x in argv))
        assert deep[0] == 0

    @pytest.mark.parametrize("name", list(OPS))
    def test_every_operation_nests(self, name):
        op = name if OPS[name].param is None else f"{name}:2"
        label, g = parse_graph_source(f"op:{op}:C5")
        assert label == f"op:{op}:C5"
        assert g == apply_op(parse_op(op), cycle(5))
        assert op_label(parse_op(op)) == op


class TestGenAndOp:
    def test_gen_c4(self, capsys):
        rc, out, _ = run(capsys, "gen", "C4")
        assert rc == 0
        assert out == "4 4\n0 1\n0 3\n1 2\n2 3\n"

    def test_gen_single_vertex(self, capsys):
        rc, out, _ = run(capsys, "gen", "P1")
        assert rc == 0
        assert out == "1 0\n"

    def test_op_splitting(self, capsys):
        rc, out, _ = run(capsys, "op", "splitting:2", "C4")
        assert rc == 0
        assert out.splitlines()[0] == "12 20"

    def test_gen_error_exit_code(self, capsys):
        rc, _, err = run(capsys, "gen", "C2")
        assert rc == 2
        assert "error:" in err

    def test_file_round_trip(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "gen", "K3,3")
        path = tmp_path / "g.txt"
        path.write_text(out)
        rc, out2, _ = run(capsys, "gen", f"file:{path}")
        assert rc == 0
        assert out2 == out

    def test_file_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"\xef\xbb\xbf3 2\n0 1\n1 2\n")
        assert run(capsys, "gen", f"file:{path}") == (0, "3 2\n0 1\n1 2\n", "")

    def test_file_bad_content(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n1 1\n")
        rc, _, err = run(capsys, "gen", f"file:{path}")
        assert rc == 2
        assert "self-loop" in err


class TestSpectrum:
    def test_groups_output(self, capsys):
        rc, out, _ = run(capsys, "spectrum", "C4", "--alpha", "0.5")
        assert rc == 0
        assert out.splitlines() == ["2.0000000000 1", "1.0000000000 2",
                                    "0.0000000000 1"]

    def test_exact_route_agrees(self, capsys):
        rc, plain, _ = run(capsys, "spectrum", "op:ebd:C5", "--alpha", "0.25")
        assert rc == 0
        rc, exact, _ = run(capsys, "spectrum", "op:ebd:C5", "--alpha", "0.25",
                           "--exact")
        assert rc == 0
        assert exact == plain

    @pytest.mark.parametrize("source, want", [
        ("op:middle:C6", "3.3204650534 1\n2.6256816492 2\n1.2517834424 2\n0.6000000000 1\n"
                         "-0.1204650534 1\n-0.1256816492 2\n-0.1517834424 2\n-0.2000000000 1\n"),
        ("op:central:petersen", "7.3364327681 1\n3.5652475842 4\n2.3930869690 5\n"
                                "0.6000000000 5\n0.4347524158 4\n0.1635672319 1\n"
                                "-0.4930869690 5\n"),
        ("op:closed-splitting:C8", "4.2259406699 1\n3.5625705648 2\n1.9615773106 2\n"
                                   "1.3062257748 1\n1.0544331248 2\n0.4384226894 2\n"
                                   "0.3556173815 2\n-0.1726210711 2\n-0.3062257748 1\n"
                                   "-0.4259406699 1\n"),
    ])
    def test_exact_output_is_pinned(self, capsys, source, want):
        # --exact isolates roots without hints, so its bytes never depend
        # on the numeric eigensolver
        assert run(capsys, "spectrum", source, "--alpha", "0.3", "--exact") == (0, want, "")

    def test_exact_needs_rational_alpha(self, capsys):
        rc, _, err = run(capsys, "spectrum", "C4", "--alpha", "0.1234567890123457",
                         "--exact")
        assert rc == 2
        assert "rational" in err and "10^15" in err

    def test_exact_takes_seven_places(self, capsys):
        rc, plain, _ = run(capsys, "spectrum", "C4", "--alpha", "0.1234567")
        assert rc == 0
        rc, exact, err = run(capsys, "spectrum", "C4", "--alpha", "0.1234567",
                             "--exact")
        assert (rc, err) == (0, "")
        assert exact.splitlines() == plain.splitlines()

    def test_exact_size_cap(self, capsys):
        rc, _, err = run(capsys, "spectrum", "op:shadow:7:petersen",
                         "--alpha", "0.5", "--exact")
        assert rc == 2
        assert "64" in err


class TestEnergy:
    def test_documented_example(self, capsys):
        rc, out, _ = run(capsys, "energy", "op:closed-shadow:C4",
                         "--alpha", "0.5")
        assert rc == 0
        assert out == "7.0\n"

    def test_complete_graph(self, capsys):
        rc, out, _ = run(capsys, "energy", "K8", "--alpha", "0")
        assert rc == 0
        assert out == "14.0\n"

    def test_json_report(self, capsys):
        rc, out, _ = run(capsys, "energy", "op:ebd:C4", "--alpha", "0.25",
                         "--json")
        assert rc == 0
        rep = json.loads(out)
        assert rep["graph"]["id"] == "op:ebd:C4"
        assert rep["graph"]["p"] == 8
        assert rep["graph"]["regular"] == 3
        assert sum(e["multiplicity"] for e in rep["eigenvalues"]) == 8

    def test_alpha_one_rejected(self, capsys):
        rc, _, err = run(capsys, "energy", "C4", "--alpha", "1")
        assert rc == 2
        assert "alpha < 1" in err


class TestSweep:
    def test_csv(self, capsys):
        rc, out, _ = run(capsys, "sweep", "C4", "K8",
                         "--alphas", "0:0.5:0.25")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "graph,alpha_0.0,alpha_0.25,alpha_0.5"
        assert lines[1].startswith("C4,4.0000,")
        assert lines[2].startswith("K8,14.0000,")

    def test_default_grid(self, capsys):
        rc, out, _ = run(capsys, "sweep", "C4")
        assert rc == 0
        assert out.splitlines()[0].count(",") == 10

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "sweep", "petersen", "--format", "json",
                         "--alphas", "0:0.5:0.5")
        assert rc == 0
        table = json.loads(out)
        assert table["rows"][0]["graph"] == "petersen"
        assert table["rows"][0]["energies"][0] == pytest.approx(16.0)

    @pytest.mark.parametrize("grid", ["0:1", "0.5:0.2:0.1", "0:1:0.5", "a:b:c"])
    def test_bad_grids(self, capsys, grid):
        rc, _, err = run(capsys, "sweep", "C4", "--alphas", grid)
        assert rc == 2


def _cold(*argv):
    """``alphaenergy *argv`` in a new interpreter, killed after 2 s."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "alphaenergy.cli", *argv],
                          capture_output=True, text=True, timeout=2,
                          env={**os.environ, "PYTHONPATH": path})


class TestWeightGrammar:
    """Grid bounds are read as --alpha reads a weight, or as <int>/<int>."""

    @pytest.mark.parametrize("grid", ["0:1e99999999:1", "0:0.5:1e-99999999",
                                      "0:1:1e-9999999"])
    def test_exponent_bound_refused_at_once(self, grid):
        done = _cold("sweep", "C4", "--alphas", grid)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("text", ["1e-1", "0.5e0", ".5", "5.", "+0.5", "0.1_0"])
    def test_grid_refuses_what_alpha_refuses(self, capsys, text):
        assert run(capsys, "energy", "C4", "--alpha", text)[0] == 2
        for grid in (f"{text}:1:1", f"0:{text}:1", f"0:1:{text}"):
            rc, out, err = run(capsys, "sweep", "C4", "--alphas", grid)
            assert (rc, out) == (2, "") and err.startswith("error: alpha grid must be")

    def test_bound_of_5000_digits(self, capsys):
        t = "0." + "3" * 5000   # past int()'s 4300-digit limit, as --alpha takes it
        assert _parse_alpha_grid(f"{t}:{t}:1") == [AlphaValue.parse(t)]
        rc, out, err = run(capsys, "sweep", "C4", "--alphas", f"{t}:{t}:1")
        assert (rc, err) == (0, "")
        assert out.splitlines()[1] == "C4,2.6667"

    def test_point_cap_message_names_no_count(self, capsys):
        step = "0." + "0" * 5000 + "1"   # 10**5000 points
        rc, out, err = run(capsys, "sweep", "C4", "--alphas", f"0:1:{step}")
        assert (rc, out) == (2, "")
        assert err.startswith("error: alpha grid") and err.count("\n") == 1
        assert err.endswith("has more than the cap of 10001 points\n")


class TestVerify:
    def test_passing_run(self, capsys):
        rc, out, _ = run(capsys, "verify", "ebd", "C6")
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["alpha"] for r in records] == [0.0, 0.25, 0.5, 0.75]
        assert all(r["pass"] for r in records)
        assert all("paper_deviation" not in r for r in records)

    def test_deviation_note_in_record(self, capsys):
        rc, out, _ = run(capsys, "verify", "splitting:1", "C4",
                         "--alphas", "0.5:0.5:1")
        assert rc == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["pass"]
        assert "paper_deviation" in rec

    def test_impossible_tolerance_fails(self, capsys):
        rc, out, _ = run(capsys, "verify", "ebd", "C6", "--tol", "1e-30")
        assert rc == 1
        assert any(not json.loads(line)["pass"] for line in out.splitlines())

    def test_zero_tolerance_is_valid(self, capsys):
        # a tolerance of 0 is a valid request that only an exact match passes
        rc, out, err = run(capsys, "verify", "closed-shadow", "K2", "--tol", "0",
                           "--alphas", "0:0:1")
        assert rc in (0, 1) and err == ""
        assert json.loads(out)["pass"] == (json.loads(out)["max_dev"] == 0.0)
        rc, out, _ = run(capsys, "classify", "K8", "--alpha", "0.3", "--tol", "0")
        assert rc == 0 and json.loads(out)["graph"] == "K8"

    def test_long_decimal_skips_the_exact_oracle(self, capsys, monkeypatch):
        # 400 places is over the exactness bound, so the exact route never starts
        def no_exact(*args, **kwargs):
            raise AssertionError("exact oracle ran")
        monkeypatch.setattr(closed_forms, "charpoly_exact", no_exact)
        t = "0." + "3" * 400
        rc, out, _ = run(capsys, "verify", "ebd", "C32", "--alphas", f"{t}:{t}:1")
        assert rc == 0
        assert json.loads(out)["pass"] is True

    def test_15_place_grid_weight_runs_the_exact_oracle(self):
        t = "0.123456789012345"
        (a,) = _parse_alpha_grid(f"{t}:{t}:1")
        rec = verify_closed_form("ebd", cycle(4), a)
        assert rec.passed and rec.exact_dev is not None

    def test_precondition_violation_is_usage_error(self, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve ran")
        monkeypatch.setattr(closed_forms, "sym_eigenvalues", no_solve)   # refused first
        rc, _, err = run(capsys, "verify", "middle", "K2")
        assert rc == 2
        assert "r >= 2" in err
        assert run(capsys, "verify", "central", "op:duplicate:1:C8") == (
            2, "", "error: central closed form needs a connected base\n")
        assert run(capsys, "verify", "ebd", "P4", "--tol", "nan") == (
            2, "", "error: base graph must be regular\n")

    def test_no_closed_form(self, capsys):
        rc, _, err = run(capsys, "verify", "line:2", "K4")
        assert rc == 2
        assert "no closed form" in err

    def test_irregular_base(self, capsys):
        rc, _, err = run(capsys, "verify", "ebd", "P4")
        assert rc == 2


class TestClassifyAndTable:
    def test_classify_borderenergetic(self, capsys):
        rc, out, _ = run(capsys, "classify", "op:closed-shadow:C4",
                         "--alpha", "0.3", "--peers", "K8")
        assert rc == 0
        res = json.loads(out)
        assert res["verdict"] == "borderenergetic"
        assert res["equal_partners"] == ["K8"]
        assert res["reference"] == pytest.approx(9.8)

    @pytest.mark.parametrize("source, a", [("K1", "0.5"), ("K2", "0.3"), ("K8", "0.3")])
    def test_classify_complete_graph_is_neither(self, capsys, source, a):
        rc, out, _ = run(capsys, "classify", source, "--alpha", a)
        assert rc == 0
        assert json.loads(out)["verdict"] == "neither"

    def test_table1_csv(self, capsys):
        rc, out, _ = run(capsys, "table1")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 28
        assert lines[1].startswith("K8,14.0000,12.6000,")

    def test_table1_json(self, capsys):
        rc, out, _ = run(capsys, "table1", "--format", "json")
        assert rc == 0
        assert len(json.loads(out)["rows"]) == 27


class TestUsageContract:
    """Inputs that must end in exit 2 and an error line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ("classify", "C4", "--alpha", "0.3", "--peers", "op:line:2:P2"),
        ("energy", "op:line:1:K70", "--alpha", "0.5"),
        ("sweep", "op:line:1:K70"),
        ("classify", "op:line:1:K70", "--alpha", "0.3"),
        ("sweep", "K3", "--alphas", "0:2:1"),
        ("verify", "ebd", "C4", "--alphas", "0.5:1.5:0.5"),
        ("sweep", "K1", "--alphas", "0:0.5:1/20002"),
        ("gen", "op:line:4097:C5"),
        ("gen", "C" + "9" * 5000),
        ("op", "middle", "K1," + "9" * 5000),
        ("verify", "ebd", "C4", "--tol", "nan"),
        ("verify", "ebd", "C4", "--tol", "inf"),
        ("verify", "ebd", "C4", "--tol=-1e-8"),
        ("verify", "ebd", "C4", "--tol", "tight"),
        ("classify", "op:closed-shadow:C4", "--alpha", "0.3", "--peers", "K8", "--tol", "nan"),
        ("classify", "C4", "--alpha", "0.3", "--tol", "inf"),
        ("classify", "C4", "--alpha", "0.3", "--tol", "-1"),
    ], ids=["empty-peer", "energy-over-cap", "sweep-over-cap", "classify-over-cap",
            "sweep-grid-above-1", "verify-grid-above-1", "grid-over-point-cap",
            "line-over-iteration-cap", "family-of-5000-digits", "op-on-family-of-5000-digits",
            "verify-tol-nan", "verify-tol-inf", "verify-tol-negative", "verify-tol-not-a-number",
            "classify-tol-nan", "classify-tol-inf", "classify-tol-negative"])
    def test_usage_error(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    def test_operated_graph_over_cap_rejected_before_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("verification ran")
        monkeypatch.setattr(cli, "verify_closed_form", no_work)
        rc, _, err = run(capsys, "verify", "ebd", "C1001")
        assert rc == 2
        assert "2002 vertices" in err

    @pytest.mark.parametrize("argv, message", [
        (("verify", "middle", "K63"),
         "op:middle:K63 has 2016 vertices; numeric commands need 1..2000"),
        (("verify", "ebd", "C1001"),
         "op:ebd:C1001 has 2002 vertices; numeric commands need 1..2000"),
        (("verify", "splitting:0", "C6"), "splitting needs m >= 1, got 0"),
        (("verify", "closed-shadow", "K513"), "closed shadow result would exceed 524288 edges"),
        (("verify", "middle", "K2"), "middle closed form needs r >= 2, got r=1"),
    ], ids=["middle-K63", "ebd-C1001", "splitting-0", "closed-shadow-K513", "middle-K2"])
    def test_verify_sizes_the_operated_graph_without_building_it(self, capsys, monkeypatch,
                                                                argv, message):
        def no_build(*args, **kwargs):
            raise AssertionError("operated graph built")
        for name, op in list(OPS.items()):
            monkeypatch.setitem(OPS, name, op._replace(build=no_build))
        monkeypatch.setattr(ops, "apply_op", no_build)
        monkeypatch.setattr(cli, "apply_op", no_build)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("op", "middle", "C0", "--help"), "cycle needs n >= 3, got 0"),
        (("verify", "ebd", "P4", "--help"), "base graph must be regular"),
        (("verify", "ebd", "P4", "--tol", "nan"), "base graph must be regular"),
        (("verify", "middle", "K2", "--help"), "middle closed form needs r >= 2, got r=1"),
        (("verify", "middle", "K2", "--tol", "-1"), "middle closed form needs r >= 2, got r=1"),
        (("verify", "central", "op:duplicate:1:C8", "--alphas", "x"),
         "central closed form needs a connected base"),
    ], ids=["op-C0-help", "ebd-P4-help", "ebd-P4-tol-nan", "middle-K2-help",
            "middle-K2-tol-negative", "central-disconnected-bad-grid"])
    def test_source_refused_with_its_operation_in_argv_order(self, capsys, monkeypatch,
                                                            argv, message):
        # the source is resolved with its operation as argparse reads it, so its
        # error comes before a later option's and before --help
        def no_work(*args, **kwargs):
            raise AssertionError("work started")
        monkeypatch.setattr(cli, "verify_closed_form", no_work)
        monkeypatch.setattr(closed_forms, "sym_eigenvalues", no_work)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("spectrum", "X5", "--alpha", "0.5"), ("spectrum", "--alpha", "0.5", "X5"),
        ("spectrum", "C5", "--alpha", "abc"), ("spectrum", "--alpha", "abc", "C5"),
        ("spectrum", "C5", "--alpha", "0.1234567890123457", "--exact"),
        ("spectrum", "op:shadow:7:petersen", "--alpha", "0.5", "--exact"),
        ("energy", "P2001", "--alpha", "0.5"), ("energy", "--alpha", "0.5", "P2001"),
        ("energy", "C5", "--alpha", "1"), ("energy", "--alpha", "1", "C5"),
        ("sweep", "X5", "C5"), ("sweep", "C5", "op:line:2:P2"),
        ("sweep", "--alphas", "0:1:0.5", "C5"), ("sweep", "C5", "--alphas", "0:1:0.5"),
        ("verify", "ebd", "P2001"), ("verify", "frob", "C6"), ("verify", "line:2", "C6"),
        ("verify", "--alphas", "a:b:c", "ebd", "C6"), ("verify", "ebd", "C6", "--alphas", "a:b:c"),
        ("verify", "--tol", "nan", "ebd", "C6"), ("verify", "ebd", "C6", "--tol", "nan"),
        ("verify", "ebd", "C1001"),
        ("classify", "X5", "--alpha", "0.3"), ("classify", "--alpha", "0.3", "X5"),
        ("classify", "C5", "--alpha", "1.5"), ("classify", "--alpha", "1.5", "C5"),
        ("classify", "C5", "--alpha", "0.3", "--peers", "op:line:2:P2", "K8"),
        ("classify", "C5", "--alpha", "0.3", "--peers", "K8", "op:line:2:P2"),
        ("classify", "C5", "--alpha", "0.3", "--tol", "-1", "--peers", "K8"),
        ("classify", "C5", "--alpha", "0.3", "--peers", "K8", "--tol", "-1"),
    ], ids="-".join)
    def test_no_work_before_every_input_is_checked(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")
        for name in ("alpha_spectrum", "alpha_energy", "sweep_table", "verify_closed_form",
                     "classify", "charpoly_exact"):
            monkeypatch.setattr(cli, name, no_work)
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_family_over_cap_rejected_before_building(self, capsys):
        rc, out, err = run(capsys, "gen", "C1000000")
        assert rc == 2
        assert err.startswith("error:") and "exceeds cap" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("gen", "K3000"), ("op", "shadow:64", "K64"), ("op", "central", "P2001"),
        ("gen", "op:middle:K1,2000"), ("gen", "op:duplicate:1000000000:C4")])
    def test_oversized_request_rejected_before_building(self, capsys, argv):
        tracemalloc.start()
        try:
            rc, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and ("would exceed" in err or "exceeds cap" in err)
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv, message", [
        (("gen", "op:line:1:K1000"), "line graph would exceed 4096 vertices"),
        (("op", "splitting:1", "K640"), "splitting result would exceed 524288 edges"),
        (("op", "central", "K1000"), "central graph would exceed 4096 vertices"),
        (("op", "duplicate:13", "K1000"), "duplication result would exceed 4096 vertices"),
        (("verify", "closed-shadow", "K1000"), "closed shadow result would exceed 524288 edges"),
        (("verify", "ebd", "K1000"), "extended bipartite double would exceed 524288 edges")])
    def test_operation_on_family_sized_before_the_family(self, capsys, argv, message):
        # each family here is valid, and large: it is sized, not built
        tracemalloc.start()
        try:
            rc, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out, err) == (2, "", f"error: {message}\n")
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv, message", [
        (("gen", "op:splitting:0:C2"), "cycle needs n >= 3, got 2"),
        (("op", "shadow:1", "K2000"), "edge count 1999000 exceeds cap 524288"),
        (("gen", "op:shadow:1:K4"), "shadow needs m >= 2, got 1"),
        (("op", "line:4097", "P1"), "line iteration needs k <= 4096, got 4097"),
        (("verify", "ebd", "C3000"), "C3000 has 3000 vertices; numeric commands need 1..2000"),
        (("verify", "splitting:0", "C2"), "cycle needs n >= 3, got 2")])
    def test_family_errors_come_before_operation_errors(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_edge_list_header_over_edge_cap(self, capsys, tmp_path):
        f = tmp_path / "big.txt"
        f.write_text("10 600000\n")
        rc, out, err = run(capsys, "gen", f"file:{f}")
        assert (rc, out) == (2, "")
        assert err.startswith("error: bad edge list") and "edge count 600000 exceeds cap" in err

    def test_grid_point_cap_is_inclusive(self):
        grid = _parse_alpha_grid("0:0.5:1/20000")
        assert len(grid) == MAX_GRID_POINTS
        assert grid[-1].numeric == 0.5


def _cat(*parts):
    return st.tuples(*parts).map(lambda t: [x for part in t for x in part])


def _one(*xs):
    return st.sampled_from(xs).map(lambda x: [x])


# Every graph here has at most 30 vertices, except the empty and the
# over-cap sources, which must be rejected before any eigensolve.
_SOURCE = _one("C5", "K4", "K2,3", "petersen", "P1", "op:middle:C5",
               "op:splitting:2:C4", "op:line:2:P2", "P2001", "X5",
               "op:frob:C4", "op:middle")
_OPERATION = _one("middle", "central", "splitting:1", "ebd", "line:2",
                  "shadow:1", "frob", "splitting:x")
_ALPHA = _one("0", "0.3", "0.5", "1", "1.5", "abc", "0.1234567")
_GRID = st.sampled_from([[]] + [["--alphas", g] for g in (
    "0:0.5:0.25", "0:1:0.5", "0:2:1", "0.5:1.5:0.5", "0:0.5:1/20002",
    "a:b:c", "0.5:0.2:0.1", "-0.5:0.5:0.5")])
_HELP = st.sampled_from([[], ["--help"]])   # after a source read with its operation
_ARGV = st.one_of(
    _cat(st.just(["gen"]), _SOURCE),
    _cat(st.just(["op"]), _OPERATION, _SOURCE, _HELP),
    _cat(st.just(["spectrum"]), _SOURCE, st.just(["--alpha"]), _ALPHA,
         st.sampled_from([[], ["--exact"]])),
    _cat(st.just(["energy"]), _SOURCE, st.just(["--alpha"]), _ALPHA,
         st.sampled_from([[], ["--json"]])),
    _cat(st.just(["sweep"]), _SOURCE, _SOURCE, _GRID),
    _cat(st.just(["verify"]), _OPERATION, _SOURCE, _GRID, _HELP),
    _cat(st.just(["classify"]), _SOURCE, st.just(["--alpha"]), _ALPHA,
         st.just(["--peers"]), _SOURCE, _SOURCE),
    _one("frobnicate", "energy"),
)


@given(_ARGV)
@settings(max_examples=60, deadline=None)
def test_main_returns_an_exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


class TestArgparseBehavior:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "Exit codes" in out

"""The standalone scripts, run as the batteries they are, and the number
grammar that they share with the command line."""

from __future__ import annotations

import argparse
import importlib.util
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaenergy import closed_forms
from alphaenergy.cli import UsageError, _grid_bound, _tolerance
from alphaenergy.closed_forms import CLOSED_FORM_INSTANCES
from alphaenergy.graphs import (MAX_VERTICES, complete, cycle, natural, parse_family,
                                read_edge_list)
from alphaenergy.linalg import CHARPOLY_MAX_N
from alphaenergy.ops import OPS, apply_op, parse_op, split_op
from alphaenergy.spectra import plain_decimal



def _load(name: str):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verify_script = _load("verify_closed_forms")
observations_script = _load("observations")


@pytest.mark.parametrize("text", ["0", "-1/4", "2", "x", "1/0", "1e-1", ".5", "+1/2",
                                  "1/10002", "1/100000000", " 1/2", "1/2 ", "\u0661/2",
                                  "\u0660.\u0665"])
def test_grid_step_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError, match=r"\(0, 1\]"):
        verify_script.grid_step(text)


@pytest.mark.parametrize("text, step", [("1/2", Fraction(1, 2)), ("1", Fraction(1)),
                                        ("0.1", Fraction(1, 10)),
                                        ("1/10001", Fraction(1, 10001))])
def test_grid_step_accepts(text, step):
    assert verify_script.grid_step(text) == step


def test_verify_battery_passes(capsys):
    assert verify_script.main(["--step", "1/2"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("0 failure(s), tol 1e-08\n")
    assert "FAIL" not in out
    lines = out.splitlines()
    proved = 0
    for op in CLOSED_FORM_INSTANCES:
        for label, g in verify_script.BASES:
            line = next(x for x in lines if x.split()[:2] == [op, label])
            if "skip" in line.split() or apply_op(parse_op(op), g).p > CHARPOLY_MAX_N:
                continue
            assert line.endswith(", " + verify_script.PROVED), line
            proved += 1
    assert proved and sum(x.endswith(verify_script.PROVED) for x in lines) == proved


def test_prove_sizes_the_operated_graph_from_the_operation_table(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("operated graph built")
    with monkeypatch.context() as m:
        for name, op in list(OPS.items()):
            m.setitem(OPS, name, op._replace(build=no_build))
        assert verify_script.prove("middle", complete(12)) == ""   # 78 vertices
    calls = []
    monkeypatch.setattr(closed_forms, "apply_op", lambda op, g: calls.append(op) or apply_op(op, g))
    assert verify_script.prove("ebd", cycle(5)) == verify_script.PROVED
    assert len(calls) == 11     # one per identity, at a = t/10


@pytest.mark.parametrize("script, argv, message", [
    (observations_script, ["--tol", "nan"], "--tol must be a finite number >= 0"),
    (observations_script, ["--tol=inf"], "--tol must be a finite number >= 0"),
    (observations_script, ["--tol=-1e-6"], "--tol must be a finite number >= 0"),
    (observations_script, ["--max-failures", "-9"], "--max-failures must be an integer >= 0"),
    (observations_script, ["--max-failures", "2.5"], "--max-failures must be an integer >= 0"),
    (verify_script, ["--step", "1", "--tol=inf"], "--tol must be a finite number >= 0"),
    (verify_script, ["--tol", "nan"], "--tol must be a finite number >= 0"),
    (verify_script, ["--tol=-1"], "--tol must be a finite number >= 0"),
    # a count, like every number in input, is ASCII digits alone
    (observations_script, ["--max-failures", " +1_0"], "--max-failures must be an integer >= 0"),
    (observations_script, ["--max-failures", "+1"], "--max-failures must be an integer >= 0"),
    (observations_script, ["--max-failures", "1_0"], "--max-failures must be an integer >= 0"),
    (observations_script, ["--max-failures", "1 "], "--max-failures must be an integer >= 0"),
    (observations_script, ["--max-failures", "\u0663"], "--max-failures must be an integer >= 0"),
    (observations_script, ["--tol", "1_0e-6"], "--tol must be a finite number >= 0"),
])
def test_meaningless_flag_values_are_usage_errors(capsys, script, argv, message):
    # a NaN tolerance passes every equality bullet, an infinite one every
    # deviation, and a negative failure count prints a wrong remainder
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err.splitlines()[-1]


def test_observations_zero_failures_prints_only_counts(capsys):
    assert observations_script.main(["--max-failures", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["       ... 11 more", "5/6 bullets hold at tol 1e-06"]


# Each reader of a number in input, with what its grammar accepts of the same
# text and, for the graph readers, the range it accepts.  Written here with
# [0-9], apart from the program's own rule.  In an edge-list file, blanks
# around a number separate it from the next.
_NAT = "[0-9]+"
_DEC = rf"{_NAT}(\.{_NAT})?"
_READERS = {
    "natural": (natural, _NAT),
    "family": (lambda t: parse_family("P" + t), _NAT, lambda t: 1 <= int(t) <= MAX_VERTICES),
    "operation": (lambda t: split_op("shadow:" + t), _NAT),
    "edge-list header": (lambda t: read_edge_list(f"{t} 0\n"), rf"[ \t]*{_NAT}[ \t]*",
                         lambda t: int(t) <= MAX_VERTICES),
    "edge line": (lambda t: read_edge_list(f"10 1\n{t} 9\n"), rf"[ \t]*{_NAT}[ \t]*",
                  lambda t: int(t) < 9),
    "weight": (plain_decimal, _DEC),
    "grid bound": (_grid_bound, rf"{_DEC}|{_NAT}/{_NAT}",
                   lambda t: "/" not in t or int(t.split("/")[1]) > 0),
    "--tol": (_tolerance, rf"{_DEC}([eE][-+]?{_NAT})?", lambda t: math.isfinite(float(t))),
    "--max-failures": (observations_script.failure_count, _NAT),
}


@given(st.text(st.sampled_from("0179\u0663\uff11\u00b2 \t+-_.eE/"), max_size=6))
@settings(max_examples=300, deadline=None)
def test_every_reader_takes_ascii_digits_alone(text):
    for name, (read, grammar, *in_range) in _READERS.items():
        try:
            read(text)
            accepted = True
        except (ValueError, ZeroDivisionError, UsageError):
            accepted = False
        want = (re.fullmatch(grammar, text) is not None
                and all(ok(text) for ok in in_range))
        assert accepted == want, (name, text)

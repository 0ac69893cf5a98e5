"""The standalone verification script, run as the battery it is."""

from __future__ import annotations

import argparse
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from alphaenergy import closed_forms
from alphaenergy.closed_forms import CLOSED_FORM_INSTANCES
from alphaenergy.graphs import complete, cycle
from alphaenergy.linalg import CHARPOLY_MAX_N
from alphaenergy.ops import OPS, apply_op, parse_op



def _load(name: str):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verify_script = _load("verify_closed_forms")
observations_script = _load("observations")


@pytest.mark.parametrize("text", ["0", "-1/4", "2", "x", "1/0", "1e-1", ".5", "+1/2",
                                  "1/10002", "1/100000000"])
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

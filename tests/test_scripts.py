"""The standalone verification script, run as the battery it is."""

from __future__ import annotations

import argparse
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from alphaenergy.closed_forms import CLOSED_FORM_INSTANCES
from alphaenergy.linalg import CHARPOLY_MAX_N
from alphaenergy.ops import apply_op, parse_op

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "verify_closed_forms.py"
_SPEC = importlib.util.spec_from_file_location("verify_closed_forms", _PATH)
verify_script = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verify_script)


@pytest.mark.parametrize("text", ["0", "-1/4", "2", "x", "1/0"])
def test_grid_step_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError, match=r"\(0, 1\]"):
        verify_script.grid_step(text)


@pytest.mark.parametrize("text, step", [("1/2", Fraction(1, 2)), ("1", Fraction(1)),
                                        ("0.1", Fraction(1, 10))])
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

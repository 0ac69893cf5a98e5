"""The standalone verification script, run as the battery it is."""

from __future__ import annotations

import argparse
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

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

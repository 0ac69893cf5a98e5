"""perfbench's layer tracer still finds and restores every name it wraps."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from alphaenergy import analysis, cli, closed_forms, cycle, graphs, ops, spectra

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

_OWNERS = (analysis, cli, closed_forms, graphs, ops, spectra,
           graphs.Graph, closed_forms.RegularBase)


def _attributes() -> dict:
    return {(owner, name): value for owner in _OWNERS
            for name, value in vars(owner).items()}


def test_traced_sweep_solves_a_regular_row_once():
    before = _attributes()
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        assert spectra.sym_eigenvalues is not before[(spectra, "sym_eigenvalues")]
        table = analysis.sweep_table([("C6", cycle(6))], analysis.tenth_grid())
    finally:
        restore()
    assert t.counts["linalg.eig_calls"] == 1
    assert t.counts["linalg.eig_n3"] == 6 ** 3
    assert table.cells[0][0] == pytest.approx(8.0)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

"""The package's public names."""

import types

import pytest

import alphaenergy
from alphaenergy import (CLOSED_FORMS, AlphaValue, BulletResult, ObservationsReport,
                         RegularBase, VerificationRecord, alpha_energy, classify, cycle,
                         degree_info, make_spectrum, parse_op, sweep_table)
from alphaenergy.closed_forms import Block
from alphaenergy.ops import OPS


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(alphaenergy.__all__)) == len(alphaenergy.__all__)
    for name in alphaenergy.__all__:
        assert not isinstance(getattr(alphaenergy, name), types.ModuleType), name


def test_star_import_leaks_no_submodule():
    ns: dict = {}
    exec("from alphaenergy import *", ns)
    assert set(ns) - {"__builtins__"} == set(alphaenergy.__all__)


_HALF = AlphaValue.parse("0.5")
_BULLET = BulletResult(key="k", description="d", passed=True)
_RECORDS = {   # one instance of each record type, and one of its fields
    "Spectrum": (make_spectrum([1.0]), "values"),
    "DegreeInfo": (degree_info(cycle(3)), "regular"),
    "EnergyReport": (alpha_energy(cycle(3), _HALF), "energy"),
    "ClosedForm": (CLOSED_FORMS["ebd"], "coeffs"),
    "ClassificationResult": (classify(cycle(4), _HALF), "verdict"),
    "SweepTable": (sweep_table([("C3", cycle(3))], [_HALF]), "cells"),
    "BulletResult": (_BULLET, "passed"),
    "ObservationsReport": (ObservationsReport(tol=1e-6, bullets=(_BULLET,)), "bullets"),
    "Graph": (cycle(3), "p"),
    "AlphaValue": (_HALF, "numeric"),
    "OpDescriptor": (parse_op("splitting:1"), "param"),
    "RegularBase": (RegularBase.from_graph(cycle(3)), "r"),
    "VerificationRecord": (VerificationRecord(op="ebd", base="C4", alpha=0.5, max_dev=0.0,
                                              passed=True, numeric_dev=0.0), "passed"),
    "Block": (Block(x=(0, 0), y2=(0, 0, 0, 0), z=(0, 0)), "count"),
    "_Op": (OPS["ebd"], "build"),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_records_are_immutable(name):
    record, field = _RECORDS[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)

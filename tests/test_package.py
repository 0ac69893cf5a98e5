"""The package's public names."""

import types

import alphaenergy


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(alphaenergy.__all__)) == len(alphaenergy.__all__)
    for name in alphaenergy.__all__:
        assert not isinstance(getattr(alphaenergy, name), types.ModuleType), name


def test_star_import_leaks_no_submodule():
    ns: dict = {}
    exec("from alphaenergy import *", ns)
    assert set(ns) - {"__builtins__"} == set(alphaenergy.__all__)

"""Matrix pencil construction, spectra, and energy reports."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from alphaenergy import (AlphaValue, Graph, a_alpha_exact, a_alpha_matrix,
                         adjacency_matrix, alpha_energies, alpha_energy,
                         alpha_spectrum, complete, complete_bipartite, cycle,
                         degree_info, multiset_deviation, path, petersen,
                         spectra, table1_rows, tenth_grid)
from conftest import graphs, regular_bases


class TestAlphaValue:
    def test_parse_exact(self):
        a = AlphaValue.parse("0.25")
        assert a.numeric == 0.25
        assert a.exact == Fraction(1, 4)
        assert AlphaValue.parse("0.3").exact == Fraction(3, 10)
        assert AlphaValue.parse("1").exact == 1

    def test_parse_long_decimal_loses_exactness(self):
        a = AlphaValue.parse("0.1234567890123457")   # denominator 10**16
        assert a.exact is None
        assert a.numeric == 0.1234567890123457

    def test_parse_keeps_up_to_15_places_exact(self):
        assert AlphaValue.parse("0.1234567").exact == Fraction(1234567, 10**7)
        assert AlphaValue.parse("0.123456789012345").exact is not None
        # 16 places, but it reduces to a denominator under 10**15
        assert AlphaValue.parse("0.1234567890123456").exact is not None

    def test_one_exactness_rule(self):
        assert AlphaValue.from_fraction(Fraction(1, 3)).exact == Fraction(1, 3)
        assert AlphaValue.from_fraction(0).exact == 0
        assert AlphaValue.parse("0.1") == AlphaValue.from_fraction(Fraction(1, 10))
        assert AlphaValue.from_fraction(Fraction(1, 10**15)).exact == Fraction(1, 10**15)
        a = AlphaValue.from_fraction(Fraction(1, 10**15 + 1))
        assert a.exact is None and a.numeric == 1 / (10**15 + 1)
        long = "0." + "3" * 5000   # past int()'s 4300-digit limit
        assert AlphaValue.parse(long) == AlphaValue(numeric=float(long))

    @pytest.mark.parametrize("text", ["-0.1", "1.5", "abc", "1e-2", ".5"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            AlphaValue.parse(text)

    def test_exact_must_match_numeric(self):
        assert AlphaValue(numeric=0.5).exact is None   # a float alone is numeric only
        with pytest.raises(ValueError):
            AlphaValue(numeric=0.5, exact=Fraction(1, 3))

    def test_range(self):
        with pytest.raises(ValueError):
            AlphaValue(numeric=1.2)
        with pytest.raises(ValueError):
            AlphaValue.from_fraction(Fraction(7, 5))


class TestMatrixPencil:
    def test_alpha_zero_is_adjacency(self):
        g = cycle(5)
        assert np.array_equal(a_alpha_matrix(g, AlphaValue.parse("0")),
                              adjacency_matrix(g))

    def test_alpha_one_is_degree_diagonal(self):
        g = complete_bipartite(2, 3)
        m = a_alpha_matrix(g, AlphaValue.parse("1"))
        assert np.array_equal(m, np.diag([3.0, 3.0, 2.0, 2.0, 2.0]))

    def test_entries_at_alpha_03(self):
        m = a_alpha_matrix(cycle(4), AlphaValue.parse("0.3"))
        assert m[0, 0] == pytest.approx(0.6)
        assert m[0, 1] == pytest.approx(0.7)
        assert m[0, 2] == 0.0

    def test_exact_matches_float(self):
        g = petersen()
        a = AlphaValue.parse("0.25")
        rows, d = a_alpha_exact(g, a)
        num = a_alpha_matrix(g, a)
        assert d == 4
        assert max(abs(rows[i][j] / d - num[i, j])
                   for i in range(g.p) for j in range(g.p)) == 0.0

    @given(graphs(max_p=8))
    @settings(max_examples=30, deadline=None)
    def test_exact_is_the_float_matrix_over_d(self, g):
        # at a weight with few bits every float entry is exact: N / d equals
        # it entry for entry; at a decimal weight, within the float rounding
        for text, tol in (("0", 0), ("0.25", 0), ("0.625", 0), ("1", 0),
                          ("0.3", 2 ** -50), ("0.123456789012345", 2 ** -50)):
            a = AlphaValue.parse(text)
            rows, d = a_alpha_exact(g, a)
            assert all(type(x) is int for row in rows for x in row)
            num = a_alpha_matrix(g, a)
            for i in range(g.p):
                for j in range(g.p):
                    assert abs(Fraction(rows[i][j], d) - Fraction(num[i, j])) <= tol * g.p

    def test_exact_requires_rational_alpha(self):
        with pytest.raises(ValueError, match="rational"):
            a_alpha_exact(cycle(3), AlphaValue(numeric=0.5 ** 0.5 / 2))


class TestSpectrum:
    def test_k33_at_half(self):
        # regular shift: eigenvalues are a*r + (1-a)*lambda
        s = alpha_spectrum(complete_bipartite(3, 3), AlphaValue.parse("0.5"))
        assert multiset_deviation(s.values, [3.0, 1.5, 1.5, 1.5, 1.5, 0.0]) < 1e-10

    @given(graphs(max_p=9))
    @settings(max_examples=30, deadline=None)
    def test_trace(self, g):
        if g.p == 0:
            return
        for text in ("0", "0.3", "0.75", "1"):
            a = AlphaValue.parse(text)
            s = alpha_spectrum(g, a)
            assert abs(math.fsum(s.values) - 2 * a.numeric * g.q) < 1e-9

    @given(graphs(max_p=8))
    @settings(max_examples=20, deadline=None)
    def test_pencil_is_affine_in_alpha(self, g):
        if g.p == 0:
            return
        m0 = a_alpha_matrix(g, AlphaValue.parse("0"))
        m1 = a_alpha_matrix(g, AlphaValue.parse("1"))
        mid = a_alpha_matrix(g, AlphaValue.parse("0.25"))
        assert np.abs(0.75 * m0 + 0.25 * m1 - mid).max() < 1e-12


class TestEnergy:
    def test_complete_graph_values(self):
        # 2(n-1)(1-a) for K_n
        assert alpha_energy(complete(8), AlphaValue.parse("0")).energy == pytest.approx(14.0)
        assert alpha_energy(complete(8), AlphaValue.parse("0.5")).energy == pytest.approx(7.0)

    def test_offset_uses_average_degree(self):
        rep = alpha_energy(cycle(4), AlphaValue.parse("0.25"))
        assert rep.offset == pytest.approx(0.5)
        assert (rep.p, rep.q) == (4, 4)

    def test_edgeless_graph_has_zero_energy(self):
        assert alpha_energy(Graph(5), AlphaValue.parse("0.5")).energy == 0.0

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError, match="alpha < 1"):
            alpha_energy(cycle(3), AlphaValue.parse("1"))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            alpha_energy(Graph(0), AlphaValue.parse("0"))

    def test_graph_id_default_and_override(self):
        assert alpha_energy(cycle(3), AlphaValue.parse("0")).graph_id == "graph(p=3,q=3)"
        assert alpha_energy(cycle(3), AlphaValue.parse("0"), graph_id="C3").graph_id == "C3"

    def test_regular_identity(self, bases):
        # (1-a) times the adjacency energy, for regular graphs
        for _, g in bases:
            e0 = alpha_energy(g, AlphaValue.parse("0")).energy
            for text in ("0.1", "0.5", "0.9"):
                a = AlphaValue.parse(text)
                got = alpha_energy(g, a).energy
                assert abs(got - (1 - a.numeric) * e0) < 1e-9

    @given(graphs(min_p=1, max_p=8))
    @settings(max_examples=30, deadline=None)
    def test_energy_positive_iff_edges(self, g):
        e = alpha_energy(g, AlphaValue.parse("0.5")).energy
        if g.q == 0:
            assert e == 0.0
        else:
            assert e > 1e-12


def _counted_solves(monkeypatch) -> list[int]:
    """Count the calls of the numeric eigensolver made through spectra."""
    calls: list[int] = []
    solve = spectra.sym_eigenvalues

    def counted(m):
        calls.append(1)
        return solve(m)

    monkeypatch.setattr(spectra, "sym_eigenvalues", counted)
    return calls


_TABLE1 = table1_rows()
_REGULAR_ROWS = [(label, g) for label, g in _TABLE1 if degree_info(g).regular is not None]
_IRREGULAR_ROWS = [(label, g) for label, g in _TABLE1 if degree_info(g).regular is None]


class TestAlphaEnergies:
    def test_table1_has_19_regular_rows(self):
        assert len(_REGULAR_ROWS) == 19
        assert [label for label, _ in _IRREGULAR_ROWS] == [
            f"{op}({base})" for base in ("C4", "C5", "C6", "K3,3") for op in ("Spl", "Lambda")]

    @pytest.mark.parametrize("label, g", regular_bases() + _REGULAR_ROWS)
    def test_regular_rows_match_the_direct_route(self, label, g):
        grid = tenth_grid()
        for a, got in zip(grid, alpha_energies(g, grid)):
            want = alpha_energy(g, a).energy
            assert abs(got - want) <= 1e-12 * max(1.0, want), (label, a.numeric)

    @pytest.mark.parametrize("label, g", _IRREGULAR_ROWS + [("P5", path(5))])
    def test_irregular_rows_are_the_direct_route(self, label, g):
        grid = tenth_grid()
        assert alpha_energies(g, grid) == tuple(alpha_energy(g, a).energy for a in grid)

    @pytest.mark.parametrize("g, solves", [(cycle(6), 1), (path(6), 10)])
    def test_one_solve_per_regular_graph(self, monkeypatch, g, solves):
        calls = _counted_solves(monkeypatch)
        alpha_energies(g, tenth_grid())
        assert len(calls) == solves

    @pytest.mark.parametrize("g", [cycle(6), path(6)])
    def test_weight_one_rejected_before_any_solve(self, monkeypatch, g):
        calls = _counted_solves(monkeypatch)
        with pytest.raises(ValueError, match="alpha < 1"):
            alpha_energies(g, (*tenth_grid(), AlphaValue.parse("1")))
        assert calls == []

    def test_weight_checked_before_vertices(self):
        with pytest.raises(ValueError, match="alpha < 1"):
            alpha_energies(Graph(0), (AlphaValue.parse("0"), AlphaValue.parse("1")))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="energy needs at least one vertex"):
            alpha_energies(Graph(0), tenth_grid())

    def test_edgeless_graph_has_zero_energy(self):
        assert alpha_energies(Graph(5), tenth_grid()) == (0.0,) * 10

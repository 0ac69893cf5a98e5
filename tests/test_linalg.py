"""Eigensolver and exact characteristic polynomial oracle."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphaenergy import (RationalPoly, Spectrum, SymMatrix, a_alpha_exact,
                         adjacency_matrix, alpha, charpoly_exact, complete,
                         complete_bipartite, cycle, make_spectrum,
                         multiset_deviation, petersen, poly_roots_real,
                         sym_eigenvalues)
from alphaenergy import linalg
from alphaenergy.linalg import _div_exact, _nonroot_point, _yun_squarefree


def _sym_random(rng: random.Random, n: int, span: float = 5.0) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = rng.uniform(-span, span)
    return a


class TestSymMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(np.array([[np.nan]]))

    def test_data_is_read_only(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0


class TestSpectrumHelpers:
    def test_make_spectrum_sorts_and_clusters(self):
        s = make_spectrum([0.5, 1.0, 1.0 + 1e-9])
        assert s.values[0] >= s.values[1] >= s.values[2]
        assert [count for _, count in s.groups] == [2, 1]

    def test_make_spectrum_trace_check(self):
        make_spectrum([1.0, 2.0], trace=3.0, scale=2.0)
        with pytest.raises(ValueError, match="trace"):
            make_spectrum([1.0, 2.0], trace=4.0, scale=2.0)

    def test_multiset_deviation(self):
        assert multiset_deviation([3.0, 1.0], [1.0, 3.0]) == 0.0
        assert multiset_deviation([0.0, 2.0], [0.5, 2.0]) == 0.5
        with pytest.raises(ValueError, match="mismatch"):
            multiset_deviation([1.0], [1.0, 2.0])


class TestJacobi:
    def test_cycle_spectrum(self):
        s = sym_eigenvalues(adjacency_matrix(cycle(4)))
        assert multiset_deviation(s.values, [2.0, 0.0, 0.0, -2.0]) < 1e-10

    def test_petersen_multiplicities(self):
        s = sym_eigenvalues(adjacency_matrix(petersen()))
        reps = [(round(v, 9), c) for v, c in s.groups]
        assert reps == [(3.0, 1), (1.0, 5), (-2.0, 4)]

    def test_complete_bipartite(self):
        s = sym_eigenvalues(adjacency_matrix(complete_bipartite(3, 3)))
        assert multiset_deviation(s.values, [3, 0, 0, 0, 0, -3]) < 1e-10

    def test_deterministic(self):
        a = _sym_random(random.Random(11), 10)
        assert sym_eigenvalues(a).values == sym_eigenvalues(a).values

    def test_diagonal_matrix_is_fixed_point(self):
        s = sym_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert s.values == (3.0, 2.0, -1.0)

    def test_dimension_bounds(self):
        with pytest.raises(ValueError, match="dimension"):
            sym_eigenvalues(np.zeros((0, 0)))


class TestCharpoly:
    def test_k2(self):
        pl = charpoly_exact([[0, 1], [1, 0]])
        assert pl.coefficients == (Fraction(-1), Fraction(0), Fraction(1))

    def test_half_alpha_k2(self):
        h = Fraction(1, 2)
        pl = charpoly_exact([[h, h], [h, h]])
        assert pl.coefficients == (Fraction(0), Fraction(-1), Fraction(1))

    def test_c4(self):
        rows = [[int(x) for x in row] for row in adjacency_matrix(cycle(4))]
        pl = charpoly_exact(rows)
        assert pl.coefficients == (Fraction(0), Fraction(0), Fraction(-4),
                                   Fraction(0), Fraction(1))

    def test_rational_diagonal(self):
        pl = charpoly_exact([[Fraction(1, 3), 0], [0, Fraction(1, 2)]])
        assert pl.coefficients == (Fraction(1, 6), Fraction(-5, 6), Fraction(1))

    def test_monic_and_trace(self):
        rng = random.Random(4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(5)] for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                rows[j][i] = rows[i][j]
        pl = charpoly_exact(rows)
        assert pl.coefficients[-1] == 1
        assert pl.coefficients[-2] == -sum(rows[i][i] for i in range(5))

    def test_entry_types_give_identical_coefficients(self):
        halves = [[1, -3, 0], [-3, 2, 5], [0, 5, -1]]   # entries over 2
        frac = charpoly_exact([[Fraction(x, 2) for x in row] for row in halves])
        assert charpoly_exact([[x / 2 for x in row] for row in halves]) == frac
        assert charpoly_exact([[f"{x}/2" for x in row] for row in halves]) == frac
        assert charpoly_exact(np.array(halves) / 2) == frac
        ints = charpoly_exact(halves)
        assert charpoly_exact([[Fraction(x) for x in row] for row in halves]) == ints
        assert charpoly_exact(np.array(halves, dtype=np.int64)) == ints
        assert ints.coefficients == (18, -35, -2, 1)     # 18 = -det, -35 = -sum of 2x2 minors
        assert all(type(c) is Fraction for c in ints.coefficients + frac.coefficients)

    def test_dimension_cap(self):
        big = [[int(i == j) for j in range(65)] for i in range(65)]
        with pytest.raises(ValueError, match="cap"):
            charpoly_exact(big)


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by exact Gaussian elimination with row swaps."""
    a = [row[:] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r][c:] = [x - f * y if y else x for x, y in zip(a[r][c:], a[c][c:])]
    return det


def _assert_is_charpoly(rows) -> None:
    """det(xI - M) equals the polynomial at n + 1 distinct rational x."""
    n = len(rows)
    neg = [[-Fraction(v) for v in row] for row in rows]
    coeffs = charpoly_exact(rows).coefficients
    assert len(coeffs) == n + 1
    for k in range(n + 1):
        x = Fraction(2 * k - n, 3)
        value = Fraction(0)
        for c in reversed(coeffs):
            value = value * x + c
        shifted = [row[:] for row in neg]
        for i in range(n):
            shifted[i][i] += x
        assert value == _det(shifted), f"mismatch at x = {x}"


def _sparse(n: int, entries: dict[tuple[int, int], Fraction | int]) -> list[list]:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in entries.items():
        rows[i][j] = Fraction(v)
    return rows


class TestCharpolyAgainstDeterminant:
    """Independent check: no code is shared with ``charpoly_exact``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_nonsymmetric_rational(self, seed):
        rng = random.Random(seed)
        n = 2 + seed
        _assert_is_charpoly([[Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                              for _ in range(n)] for _ in range(n)])

    def test_one_by_one(self):
        _assert_is_charpoly([[Fraction(-7, 3)]])
        _assert_is_charpoly([[0]])

    def test_all_zero(self):
        _assert_is_charpoly([[0] * 6 for _ in range(6)])

    def test_identity_at_the_cap(self):
        # rows of norm 1, yet the coefficients reach C(64, 32) > 2**60
        _assert_is_charpoly([[int(i == j) for j in range(64)] for i in range(64)])

    def test_block_diagonal(self):
        # the Hessenberg reduction finds no pivot below the blocks
        _assert_is_charpoly(_sparse(7, {(0, 1): 2, (1, 0): -1, (1, 1): 3,
                                        (2, 2): Fraction(5, 2),
                                        (3, 5): 1, (4, 3): 4, (5, 4): -2,
                                        (6, 6): -1}))

    @pytest.mark.parametrize("stride", [2, 3, 5])
    def test_permutation_like(self, stride):
        # entries that sit far below the subdiagonal force row swaps
        n = 9
        _assert_is_charpoly(_sparse(n, {(i, (stride * i + 1) % n): i - 4
                                        for i in range(n)}))

    def test_pivot_only_in_last_row(self):
        _assert_is_charpoly(_sparse(5, {(4, 0): 1, (0, 4): 2, (3, 1): -3,
                                        (1, 2): Fraction(1, 2), (2, 3): 7}))

    def test_denominator_of_one_million(self):
        _assert_is_charpoly(a_alpha_exact(petersen(), alpha("0.500001")))
        rng = random.Random(7)
        _assert_is_charpoly([[Fraction(rng.randint(-10 ** 6, 10 ** 6), 10 ** 6)
                              for _ in range(6)] for _ in range(6)])

    def test_entries_near_one_million(self):
        rng = random.Random(8)
        _assert_is_charpoly([[rng.choice((-1, 1)) * rng.randint(10 ** 6 - 50, 10 ** 6 + 50)
                              for _ in range(8)] for _ in range(8)])

    def test_cap_boundary_cycle(self):
        _assert_is_charpoly(a_alpha_exact(cycle(64), alpha("0.3")))

    def test_cap_boundary_banded_nonsymmetric(self):
        rng = random.Random(9)
        _assert_is_charpoly(_sparse(64, {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                         for i in range(64)
                                         for j in range(max(0, i - 2), min(64, i + 2))}))


def _from_roots(*roots) -> RationalPoly:
    """prod (x - r) with rational coefficients, ascending."""
    c = [Fraction(1)]
    for r in roots:
        c = [a - Fraction(r) * b for a, b in zip([Fraction(0)] + c, c + [Fraction(0)])]
    return RationalPoly(tuple(c))


def _value(c, x: Fraction) -> Fraction:
    value = Fraction(0)
    for a in reversed(c):
        value = value * x + a
    return value


ROOT_TOL = Fraction(1, 2 ** 43)


def _assert_roots_accurate(pl: RationalPoly) -> None:
    """Each root lies within 2**-43 of a sign change of a square-free factor.

    The factors are evaluated here in ``Fraction`` arithmetic, apart from
    the integer evaluator that isolates the roots.  Each factor of degree
    d and multiplicity m must account for exactly d * m of the roots.
    """
    coeffs = pl.coefficients
    s = math.lcm(*(c.denominator for c in coeffs))
    roots = poly_roots_real(pl)
    assert len(roots) == pl.degree
    found = 0
    for g, mult in _yun_squarefree([int(c * s) for c in coeffs]):
        near = [r for r in roots
                if _value(g, Fraction(r) - ROOT_TOL) * _value(g, Fraction(r) + ROOT_TOL) <= 0]
        assert len(near) == (len(g) - 1) * mult, (g, near)
        found += len(near)
    assert found == len(roots)


def _refine_exponents(monkeypatch, pls) -> list[list[int]]:
    """Find the roots of each polynomial; per ``_refine`` call, the exponents
    of its ``_value_at`` calls."""
    runs: list[list[int]] = []
    inside = [False]
    value_at, refine = linalg._value_at, linalg._refine

    def traced_value_at(c, m, e):
        if inside[0]:
            runs[-1].append(e)
        return value_at(c, m, e)

    def traced_refine(*args):
        runs.append([])
        inside[0] = True
        try:
            return refine(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(linalg, "_value_at", traced_value_at)
    monkeypatch.setattr(linalg, "_refine", traced_refine)
    for pl in pls:
        poly_roots_real(pl)
    return runs


class TestRootIsolation:
    @pytest.mark.parametrize("pl", [
        charpoly_exact(a_alpha_exact(complete(8), alpha(0))),
        charpoly_exact(a_alpha_exact(complete(32), alpha(0))),
        charpoly_exact(a_alpha_exact(complete(64), alpha(0))),
        _from_roots(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 12), Fraction(-7, 2)),
        RationalPoly((0, -2, 0, 1)),          # root 0 is the first midpoint
        RationalPoly((2, 0, -3, 0, 1)),       # (x^2 - 1)(x^2 - 2)
        _from_roots(0, 2, -2, Fraction(1, 2), Fraction(1, 4)),
        charpoly_exact(a_alpha_exact(petersen(), alpha("0.500001"))),
    ], ids=["K8", "K32", "K64", "cluster", "x3-2x", "quartic", "dyadic", "petersen"])
    def test_roots_within_2_pow_43_of_sign_change(self, pl):
        _assert_roots_accurate(pl)

    def test_refinement_is_quadratic(self, monkeypatch):
        # bisection to 2**-44 takes about 41 evaluations per root
        runs = _refine_exponents(monkeypatch, [
            charpoly_exact(a_alpha_exact(complete(64), alpha(0))),
            charpoly_exact(a_alpha_exact(petersen(), alpha("0.500001"))),
            charpoly_exact(a_alpha_exact(cycle(32), alpha("0.3"))),
        ])
        assert len(runs) == 17
        assert sum(map(len, runs)) / len(runs) <= 16

    def test_refinement_bisects_after_a_missed_secant(self, monkeypatch):
        # grid points lie at exponent e + t with t >= 2 and a bisection
        # midpoint at e + 1, so the exponent falls only where a secant
        # step missed and the interval was bisected
        runs = _refine_exponents(monkeypatch, [RationalPoly((-2, 0, 1))])
        assert any(b < a for run in runs for a, b in zip(run, run[1:]))

    def test_sturm_chain_evaluated_once_per_split(self, monkeypatch):
        calls = {"variations": 0, "splits": 0, "chains": 0}
        variations, isolate, sturm_chain = (linalg._variations, linalg._isolate,
                                            linalg._sturm_chain)

        def traced_variations(*args):
            calls["variations"] += 1
            return variations(*args)

        def traced_isolate(f, chain, lo, hi, e, vlo, vhi, depth=0):
            calls["splits"] += vlo - vhi >= 2
            return isolate(f, chain, lo, hi, e, vlo, vhi, depth)

        def traced_sturm_chain(f):
            calls["chains"] += 1
            return sturm_chain(f)

        monkeypatch.setattr(linalg, "_variations", traced_variations)
        monkeypatch.setattr(linalg, "_isolate", traced_isolate)
        monkeypatch.setattr(linalg, "_sturm_chain", traced_sturm_chain)
        poly_roots_real(charpoly_exact(a_alpha_exact(cycle(32), alpha("0.3"))))
        poly_roots_real(_from_roots(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 12),
                                    Fraction(-7, 2), 5))
        assert calls["splits"] > calls["chains"] > 0
        assert calls["variations"] == calls["splits"] + 2 * calls["chains"]

    def test_root_bound_shortens_isolation(self, monkeypatch):
        # Cauchy's bound puts the roots 1..20 of prod(x - i) inside +-2**64,
        # Fujiwara's inside +-2**9; from the former isolation takes 84
        # chain evaluations
        calls = [0]
        variations = linalg._variations

        def traced_variations(*args):
            calls[0] += 1
            return variations(*args)

        monkeypatch.setattr(linalg, "_variations", traced_variations)
        f = _from_roots(*range(1, 21))
        assert linalg._root_exponent([int(c) for c in f.coefficients]) == 9
        assert poly_roots_real(f) == [float(i) for i in range(20, 0, -1)]
        assert calls[0] == 29

    def test_nonroot_point_moves_right_inside_interval(self):
        # x(x - 4)(x - 2)(x - 1) on (-8, 8): the midpoint and the points a
        # quarter, an eighth and a sixteenth of the width right of it are
        # roots, so the fifth candidate, 1/2, is taken
        f = [0, -8, 14, -7, 1]
        assert _nonroot_point(f, -8, 8, 0) == (16, 5)
        roots = poly_roots_real(RationalPoly(tuple(f)))
        assert multiset_deviation(roots, [4.0, 2.0, 1.0, 0.0]) <= 2.0 ** -44

    def test_div_exact(self):
        assert _div_exact([-1, 0, 1], [1, 1]) == [-1, 1]
        with pytest.raises(ArithmeticError, match="not exact"):
            _div_exact([1, 0, 1], [1, 1])          # (x^2 + 1) / (x + 1)
        with pytest.raises(ArithmeticError, match="not integral"):
            _div_exact([0, 2], [0, 3])             # 2x / 3x

    def test_linear_and_quadratic(self):
        assert multiset_deviation(poly_roots_real(RationalPoly((-1, 0, 1))),
                                  [1.0, -1.0]) < 1e-12
        assert multiset_deviation(poly_roots_real(RationalPoly((0, -1, 1))),
                                  [1.0, 0.0]) < 1e-12
        # linear factors come out exactly rational
        assert poly_roots_real(RationalPoly((-3, 2))) == [1.5]

    def test_repeated_root(self):
        # (x-1)^3, exercises the square-free split
        roots = poly_roots_real(RationalPoly((-1, 3, -3, 1)))
        assert roots == [1.0, 1.0, 1.0]

    def test_negative_leading_coefficient(self):
        roots = poly_roots_real(RationalPoly((1, 0, -1)))
        assert max(abs(r) - 1.0 for r in roots) < 1e-12

    def test_c5_roots_match_cosines(self):
        rows = [[int(x) for x in row] for row in adjacency_matrix(cycle(5))]
        roots = poly_roots_real(charpoly_exact(rows))
        want = sorted((2 * math.cos(2 * math.pi * k / 5) for k in range(5)),
                      reverse=True)
        assert multiset_deviation(roots, want) < 1e-12

    def test_complex_roots_rejected(self):
        with pytest.raises(ArithmeticError, match="real roots"):
            poly_roots_real(RationalPoly((1, 0, 1)))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots_real(RationalPoly((0,)))

    def test_irrational_precision(self):
        # x^2 - 2 to the bisection width
        roots = poly_roots_real(RationalPoly((-2, 0, 1)))
        assert abs(roots[0] - math.sqrt(2)) < 1e-12
        assert abs(roots[1] + math.sqrt(2)) < 1e-12


@st.composite
def small_int_sym(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    entries = draw(st.lists(st.integers(min_value=-3, max_value=3),
                            min_size=n * (n + 1) // 2,
                            max_size=n * (n + 1) // 2))
    a = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = next(it)
    return a


@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=8),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_rational_roots_recovered(roots):
    # the distinct roots form square-free factors of degree up to 6, so
    # isolation and refinement run and often meet a root at a dyadic point
    got = poly_roots_real(_from_roots(*roots))
    want = sorted(roots, reverse=True)
    assert all(abs(Fraction(g) - w) <= Fraction(1, 2 ** 44) for g, w in zip(got, want))


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=40),
                          st.integers(min_value=-10 ** 6, max_value=10 ** 6)),
                min_size=2, max_size=8))
@settings(max_examples=200, deadline=None)
def test_root_exponent_bounds_every_root(factors):
    # f = prod(a x - c) has the roots c / a
    assume(any(c for _, c in factors))
    f = [1]
    for a, c in factors:
        f = [a * x - c * y for x, y in zip([0] + f, f + [0])]
    b = linalg._root_exponent(f)
    cauchy = (max(abs(x) for x in f[:-1]) // abs(f[-1]) + 1).bit_length()
    assert 0 <= b <= cauchy
    assert all(abs(Fraction(c, a)) < 2 ** b for a, c in factors)


@given(small_int_sym())
@settings(max_examples=40, deadline=None)
def test_jacobi_agrees_with_exact_roots(a):
    numeric = sym_eigenvalues(np.array(a, dtype=float)).values
    exact = poly_roots_real(charpoly_exact(a))
    assert multiset_deviation(numeric, exact) < 1e-7


def test_spectrum_is_frozen():
    s = make_spectrum([1.0])
    assert isinstance(s, Spectrum)
    with pytest.raises(AttributeError):
        s.values = (2.0,)

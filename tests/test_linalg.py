"""Eigensolver and exact characteristic polynomial oracle."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphaenergy import (AlphaValue, Spectrum, a_alpha_exact, a_alpha_matrix,
                         adjacency_matrix, alpha, charpoly_exact, complete,
                         complete_bipartite, cycle, make_spectrum,
                         multiset_deviation, path, petersen, poly_roots_real,
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
    """The input checks of ``sym_eigenvalues``."""

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sym_eigenvalues(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            sym_eigenvalues(np.array([[np.nan]]))

    def test_rejects_eigenvalues_off_trace(self, monkeypatch):
        # the bound is 1e-9 * n * max|entry| = 4e-9 here
        monkeypatch.setattr(linalg, "_jacobi", lambda a: np.array([1.0, 2.0]))
        assert sym_eigenvalues(np.diag([2.0, 1.0 + 3e-9])).values == (2.0, 1.0)
        with pytest.raises(ValueError, match="off trace by 5.000e-09"):
            sym_eigenvalues(np.diag([2.0, 1.0 + 5e-9]))


class TestSpectrumHelpers:
    def test_make_spectrum_sorts_and_clusters(self):
        s = make_spectrum([0.5, 1.0, 1.0 + 1e-9])
        assert s.values[0] >= s.values[1] >= s.values[2]
        assert [count for _, count in s.groups] == [2, 1]

    def test_groups_are_anchored_at_their_largest_value(self):
        # by design: a group is every value within GROUP_TOL of its first,
        # largest member, which is the value printed for it, so 0.0 starts
        # a new group although it is as close to 0.9e-7 as 1.8e-7 is
        assert make_spectrum([0.0, 0.9e-7, 1.8e-7]).groups == ((1.8e-7, 2), (0.0, 1))
        assert make_spectrum([0.0, 0.9e-7]).groups == ((0.9e-7, 2),)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=30),
           st.floats(1e-9, 3e-7))
    def test_every_value_lies_within_group_tol_of_its_representative(self, ks, step):
        spec = make_spectrum([k * step for k in ks])
        reps = [rep for rep, count in spec.groups for _ in range(count)]
        assert len(reps) == len(spec.values)
        assert all(abs(v - rep) <= linalg.GROUP_TOL for v, rep in zip(spec.values, reps))

    def test_multiset_deviation(self):
        assert multiset_deviation([3.0, 1.0], [1.0, 3.0]) == 0.0
        assert multiset_deviation([0.0, 2.0], [0.5, 2.0]) == 0.5
        with pytest.raises(ValueError, match="mismatch"):
            multiset_deviation([1.0], [1.0, 2.0])
        assert multiset_deviation([], []) == 0.0


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


def _copying_jacobi(a: np.ndarray) -> np.ndarray:
    """The copying form of ``_jacobi``: each rotation copies both rows and
    builds the new ones from temporaries.  The in-place rotations must match
    it bit for bit."""
    n = a.shape[0]
    target = linalg.JACOBI_REL_TOL * float(np.linalg.norm(a))
    skip = target / (2 * n)
    for sweep in range(linalg.JACOBI_MAX_SWEEPS + 1):
        off = float(np.linalg.norm(a - np.diag(a.diagonal())))
        if off <= target:
            return a.diagonal().copy()
        thresh = skip
        if sweep < linalg.JACOBI_THRESHOLD_SWEEPS:
            thresh = max(skip, linalg.JACOBI_THRESHOLD * off / n)
        for i in range(n - 1):
            for j in range(i + 1, n):
                aij = a[i, j]
                if abs(aij) <= thresh:
                    continue
                app, aqq = a[i, i], a[j, j]
                theta = (aqq - app) / (2.0 * aij)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                ai = a[i].copy()
                aj = a[j].copy()
                a[i] = ai - s * (aj + tau * ai)
                a[j] = aj + s * (ai - tau * aj)
                a[:, i] = a[i]
                a[:, j] = a[j]
                a[i, i] = app - t * aij
                a[j, j] = aqq + t * aij
                a[i, j] = 0.0
                a[j, i] = 0.0
    raise ArithmeticError("no convergence")


def _seeded(kind: str, n: int, seed: int) -> np.ndarray:
    rng = random.Random(seed)
    if kind == "integer":
        a = np.array([[float(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        return a + a.T
    if kind == "clustered":
        return np.eye(n) + 1e-9 * _sym_random(rng, n, span=1.0)
    if kind == "block":
        h = n // 2
        a = np.zeros((n, n))
        a[:h, :h] = _sym_random(rng, h)
        a[h:, h:] = _sym_random(rng, n - h)
        return a
    return _sym_random(rng, n)


def _assert_near_lapack(a: np.ndarray) -> None:
    """Within 1e-12 * ||A||_F of LAPACK; a solve that does not converge in
    JACOBI_MAX_SWEEPS raises."""
    got = np.sort(linalg._jacobi(a.copy()))
    assert np.abs(got - np.linalg.eigvalsh(a)).max() <= 1e-12 * np.linalg.norm(a)


class TestThresholdJacobi:
    @pytest.mark.parametrize("g", [complete(12), cycle(31), path(40)], ids=["K12", "C31", "P40"])
    def test_families(self, g):
        _assert_near_lapack(adjacency_matrix(g))

    def test_equal_blocks(self):
        block = _sym_random(random.Random(3), 8)
        _assert_near_lapack(np.kron(np.eye(4), block))

    def test_clustered_spectrum(self):
        s = _sym_random(random.Random(4), 30, span=1.0)
        _assert_near_lapack(np.eye(30) + 1e-9 * s)

    @pytest.mark.parametrize("seed", range(20))
    def test_random(self, seed):
        _assert_near_lapack(_sym_random(random.Random(100 + seed), 5 * seed + 1))   # n = 1..96

    def test_threshold_saves_rotations(self, monkeypatch):
        a = _sym_random(random.Random(5), 32)

        def rotations(threshold_sweeps: int) -> int:
            # each rotation takes two square roots
            calls = []
            monkeypatch.setattr(linalg, "JACOBI_THRESHOLD_SWEEPS", threshold_sweeps)
            monkeypatch.setattr(linalg, "math", SimpleNamespace(
                sqrt=lambda x: calls.append(x) or math.sqrt(x)))
            linalg._jacobi(a.copy())
            return len(calls) // 2

        assert rotations(3) < 0.95 * rotations(0)

    @pytest.mark.parametrize("kind", ["random", "integer", "clustered", "block"])
    @pytest.mark.parametrize("n", [1, 2, 9, 40, 96])
    def test_in_place_rotations_are_bit_identical(self, kind, n):
        a = _seeded(kind, n, 1000 * n + len(kind))
        assert np.array_equal(linalg._jacobi(a.copy()), _copying_jacobi(a.copy()))

    def test_allocates_no_n_by_n_array(self):
        n = 96
        a = _sym_random(random.Random(6), n)
        tracemalloc.start()
        try:
            linalg._jacobi(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2

    def test_gives_up_after_max_sweeps(self, monkeypatch):
        # the off-norm is tested once more after the last sweep, so with no
        # sweeps only a matrix that is already diagonal passes
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(ArithmeticError, match="Jacobi iteration did not converge in 0 sweeps"):
            linalg._jacobi(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert list(linalg._jacobi(np.diag([1.0, 2.0]))) == [1.0, 2.0]
        assert list(linalg._jacobi(np.array([[3.0]]))) == [3.0]


def _over(rows) -> tuple[list[list[int]], int]:
    """A matrix of rationals as (N, d), N / d, d the lcm of its denominators."""
    d = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(Fraction(x) * d) for x in row] for row in rows], d


class TestCharpoly:
    def test_k2(self):
        assert charpoly_exact([[0, 1], [1, 0]]) == (-1, 0, 1)

    def test_half_alpha_k2(self):
        # [[1/2, 1/2], [1/2, 1/2]]: det(xI - M) = x^2 - x, times 2**2
        assert charpoly_exact([[1, 1], [1, 1]], 2) == (0, -4, 4)

    def test_c4(self):
        rows = [[int(x) for x in row] for row in adjacency_matrix(cycle(4))]
        assert charpoly_exact(rows) == (0, 0, -4, 0, 1)

    def test_rational_diagonal(self):
        # diag(1/3, 1/2): det(xI - M) = x^2 - 5/6 x + 1/6, times 6**2
        assert charpoly_exact([[2, 0], [0, 3]], 6) == (6, -30, 36)

    def test_monic_and_trace(self):
        rng = random.Random(4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(5)] for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                rows[j][i] = rows[i][j]
        nmat, d = _over(rows)
        coeffs = charpoly_exact(nmat, d)    # d**5 times the monic det(xI - M)
        assert coeffs[-1] == d ** 5
        assert coeffs[-2] == -d ** 4 * sum(nmat[i][i] for i in range(5))

    def test_entry_types_give_identical_coefficients(self):
        halves = [[1, -3, 0], [-3, 2, 5], [0, 5, -1]]
        ints = charpoly_exact(halves)
        assert ints == (18, -35, -2, 1)     # 18 = -det, -35 = -sum of 2x2 minors
        assert charpoly_exact(np.array(halves, dtype=np.int64)) == ints
        # the same matrix over 2, and over 2**70 with entries past int64
        assert charpoly_exact(halves, 2) == (18, -70, -8, 8)
        big = charpoly_exact([[x << 70 for x in row] for row in halves], 2 ** 70)
        assert big == tuple(c << 210 for c in ints)
        assert all(type(c) is int for c in ints + big)

    def test_non_integers_refused(self):
        # a float or a Fraction entry is refused, not truncated
        for rows in ([[0.5]], [[Fraction(1, 2)]], [[Fraction(2)]], np.eye(2)):
            with pytest.raises(TypeError):
                charpoly_exact(rows)
        with pytest.raises(TypeError):
            charpoly_exact([[1]], 2.0)
        with pytest.raises(ValueError, match="denominator"):
            charpoly_exact([[1]], 0)
        with pytest.raises(TypeError):
            poly_roots_real((Fraction(-1, 2), 1))
        with pytest.raises(TypeError):
            poly_roots_real((-0.5, 1.0))

    def test_dimension_cap(self):
        big = [[int(i == j) for j in range(65)] for i in range(65)]
        with pytest.raises(ValueError, match="cap"):
            charpoly_exact(big)
        with pytest.raises(ValueError, match="at least 1x1"):
            charpoly_exact([])
        with pytest.raises(ValueError, match="square"):
            charpoly_exact([[1, 2]])

    def test_entries_past_int64(self):
        # the residues are taken in Python integers when int64 cannot hold N
        a, b = 2 ** 64 + 1, -(2 ** 70)
        assert charpoly_exact([[a, 3], [3, b]]) == (a * b - 9, -(a + b), 1)
        _assert_is_charpoly([[2 ** 63, 1, 0], [-1, 0, 2 ** 80], [5, -(2 ** 63) - 1, 7]])

    def test_denominator_past_int64(self):
        # a = 1/2**70, with N holding 2**70 - 1 off the diagonal
        f = Fraction(1, 2 ** 70)
        _assert_is_charpoly(*a_alpha_exact(petersen(), AlphaValue(numeric=float(f), exact=f)))

    def test_sums_fit_int64(self):
        # _charpoly_mod reduces a sum of CHARPOLY_MAX_N products plus one residue once
        q = max(linalg._primes(1))
        assert q < 2 ** 28
        assert linalg.CHARPOLY_MAX_N * q ** 2 + q < 2 ** 63


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


def _assert_is_charpoly(rows, d: int = 1) -> None:
    """det(d*x*I - N) equals the polynomial at n + 1 distinct rational x."""
    n = len(rows)
    coeffs = charpoly_exact(rows, d)
    assert len(coeffs) == n + 1
    for k in range(n + 1):
        x = Fraction(2 * k - n, 3)
        shifted = [[-Fraction(v) for v in row] for row in rows]
        for i in range(n):
            shifted[i][i] += d * x
        assert _value(coeffs, x) == _det(shifted), f"mismatch at x = {x}"


def _sparse(n: int, entries: dict[tuple[int, int], Fraction | int]) -> tuple[list[list[int]], int]:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in entries.items():
        rows[i][j] = Fraction(v)
    return _over(rows)


class TestCharpolyAgainstDeterminant:
    """Independent check: no code is shared with ``charpoly_exact``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_nonsymmetric_rational(self, seed):
        rng = random.Random(seed)
        n = 2 + seed
        _assert_is_charpoly(*_over([[Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                                     for _ in range(n)] for _ in range(n)]))

    def test_one_by_one(self):
        _assert_is_charpoly([[-7]], 3)
        _assert_is_charpoly([[0]])

    def test_all_zero(self):
        _assert_is_charpoly([[0] * 6 for _ in range(6)])

    def test_identity_at_the_cap(self):
        # rows of norm 1, yet the coefficients reach C(64, 32) > 2**60
        _assert_is_charpoly([[int(i == j) for j in range(64)] for i in range(64)])

    def test_block_diagonal(self):
        # the Hessenberg reduction finds no pivot below the blocks
        _assert_is_charpoly(*_sparse(7, {(0, 1): 2, (1, 0): -1, (1, 1): 3,
                                         (2, 2): Fraction(5, 2),
                                         (3, 5): 1, (4, 3): 4, (5, 4): -2,
                                         (6, 6): -1}))

    @pytest.mark.parametrize("stride", [2, 3, 5])
    def test_permutation_like(self, stride):
        # entries that sit far below the subdiagonal force row swaps
        n = 9
        _assert_is_charpoly(*_sparse(n, {(i, (stride * i + 1) % n): i - 4
                                         for i in range(n)}))

    def test_pivot_only_in_last_row(self):
        _assert_is_charpoly(*_sparse(5, {(4, 0): 1, (0, 4): 2, (3, 1): -3,
                                         (1, 2): Fraction(1, 2), (2, 3): 7}))

    def test_denominator_of_one_million(self):
        _assert_is_charpoly(*a_alpha_exact(petersen(), alpha("0.500001")))
        rng = random.Random(7)
        _assert_is_charpoly([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(6)]
                             for _ in range(6)], 10 ** 6)

    def test_entries_near_one_million(self):
        rng = random.Random(8)
        _assert_is_charpoly([[rng.choice((-1, 1)) * rng.randint(10 ** 6 - 50, 10 ** 6 + 50)
                              for _ in range(8)] for _ in range(8)])

    def test_cap_boundary_cycle(self):
        _assert_is_charpoly(*a_alpha_exact(cycle(64), alpha("0.3")))

    def test_cap_boundary_banded_nonsymmetric(self):
        rng = random.Random(9)
        _assert_is_charpoly(*_sparse(64, {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                          for i in range(64)
                                          for j in range(max(0, i - 2), min(64, i + 2))}))


def _from_roots(*roots) -> tuple[int, ...]:
    """prod (q*x - p) over the roots p/q, ascending."""
    c = [1]
    for r in map(Fraction, roots):
        c = [r.denominator * a - r.numerator * b for a, b in zip([0] + c, c + [0])]
    return tuple(c)


def _value(c, x: Fraction) -> Fraction:
    value = Fraction(0)
    for a in reversed(c):
        value = value * x + a
    return value


ROOT_TOL = Fraction(1, 2 ** 43)


def _assert_roots_accurate(coeffs: tuple[int, ...]) -> None:
    """Each root lies within 2**-43 of a sign change of a square-free factor.

    The factors are evaluated here in ``Fraction`` arithmetic, apart from
    the integer evaluator that isolates the roots.  Each factor of degree
    d and multiplicity m must account for exactly d * m of the roots.
    """
    roots = poly_roots_real(coeffs)
    assert len(roots) == len(coeffs) - 1
    found = 0
    for g, mult in _yun_squarefree(list(coeffs)):
        near = [r for r in roots
                if _value(g, Fraction(r) - ROOT_TOL) * _value(g, Fraction(r) + ROOT_TOL) <= 0]
        assert len(near) == (len(g) - 1) * mult, (g, near)
        found += len(near)
    assert found == len(roots)


def _refine_exponents(monkeypatch, polys) -> list[list[int]]:
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
    for coeffs in polys:
        poly_roots_real(coeffs)
    return runs


class TestRootIsolation:
    @pytest.mark.parametrize("coeffs", [
        charpoly_exact(*a_alpha_exact(complete(8), alpha(0))),
        charpoly_exact(*a_alpha_exact(complete(32), alpha(0))),
        charpoly_exact(*a_alpha_exact(complete(64), alpha(0))),
        _from_roots(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 12), Fraction(-7, 2)),
        (0, -2, 0, 1),          # root 0 is the first midpoint
        (2, 0, -3, 0, 1),       # (x^2 - 1)(x^2 - 2)
        _from_roots(0, 2, -2, Fraction(1, 2), Fraction(1, 4)),
        charpoly_exact(*a_alpha_exact(petersen(), alpha("0.500001"))),
    ], ids=["K8", "K32", "K64", "cluster", "x3-2x", "quartic", "dyadic", "petersen"])
    def test_roots_within_2_pow_43_of_sign_change(self, coeffs):
        _assert_roots_accurate(coeffs)

    def test_refinement_is_quadratic(self, monkeypatch):
        # bisection to 2**-44 takes about 41 evaluations per root
        runs = _refine_exponents(monkeypatch, [
            charpoly_exact(*a_alpha_exact(complete(64), alpha(0))),
            charpoly_exact(*a_alpha_exact(petersen(), alpha("0.500001"))),
            charpoly_exact(*a_alpha_exact(cycle(32), alpha("0.3"))),
        ])
        assert len(runs) == 17
        assert sum(map(len, runs)) / len(runs) <= 16

    def test_refinement_bisects_after_a_missed_secant(self, monkeypatch):
        # grid points lie at exponent e + t with t >= 2 and a bisection
        # midpoint at e + 1, so the exponent falls only where a secant
        # step missed and the interval was bisected
        runs = _refine_exponents(monkeypatch, [(-2, 0, 1)])
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
        poly_roots_real(charpoly_exact(*a_alpha_exact(cycle(32), alpha("0.3"))))
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
        assert linalg._root_exponent(list(f)) == 9
        assert poly_roots_real(f) == [float(i) for i in range(20, 0, -1)]
        assert calls[0] == 29

    def test_nonroot_point_moves_right_inside_interval(self):
        # x(x - 4)(x - 2)(x - 1) on (-8, 8): the midpoint and the points a
        # quarter, an eighth and a sixteenth of the width right of it are
        # roots, so the fifth candidate, 1/2, is taken
        f = [0, -8, 14, -7, 1]
        assert _nonroot_point(f, -8, 8, 0) == (16, 5)
        roots = poly_roots_real(f)
        assert multiset_deviation(roots, [4.0, 2.0, 1.0, 0.0]) <= 2.0 ** -44

    def test_div_exact(self):
        assert _div_exact([-1, 0, 1], [1, 1]) == [-1, 1]
        with pytest.raises(ArithmeticError, match="not exact"):
            _div_exact([1, 0, 1], [1, 1])          # (x^2 + 1) / (x + 1)
        with pytest.raises(ArithmeticError, match="not integral"):
            _div_exact([0, 2], [0, 3])             # 2x / 3x

    def test_linear_and_quadratic(self):
        assert multiset_deviation(poly_roots_real((-1, 0, 1)), [1.0, -1.0]) < 1e-12
        assert multiset_deviation(poly_roots_real((0, -1, 1)), [1.0, 0.0]) < 1e-12
        # linear factors come out exactly rational
        assert poly_roots_real((-3, 2)) == [1.5]

    def test_repeated_root(self):
        # (x-1)^3, exercises the square-free split
        roots = poly_roots_real((-1, 3, -3, 1))
        assert roots == [1.0, 1.0, 1.0]

    def test_negative_leading_coefficient(self):
        roots = poly_roots_real((1, 0, -1))
        assert max(abs(r) - 1.0 for r in roots) < 1e-12

    def test_c5_roots_match_cosines(self):
        rows = [[int(x) for x in row] for row in adjacency_matrix(cycle(5))]
        roots = poly_roots_real(charpoly_exact(rows))
        want = sorted((2 * math.cos(2 * math.pi * k / 5) for k in range(5)),
                      reverse=True)
        assert multiset_deviation(roots, want) < 1e-12

    def test_complex_roots_rejected(self):
        with pytest.raises(ArithmeticError, match="real roots"):
            poly_roots_real((1, 0, 1))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots_real((0,))

    def test_nonzero_constant_has_no_roots(self):
        assert poly_roots_real([5]) == []

    def test_irrational_precision(self):
        # x^2 - 2 to the bisection width
        roots = poly_roots_real((-2, 0, 1))
        assert abs(roots[0] - math.sqrt(2)) < 1e-12
        assert abs(roots[1] + math.sqrt(2)) < 1e-12


def _counted(monkeypatch, *names) -> dict[str, int]:
    """Count the calls of the named ``linalg`` functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(linalg, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(linalg, name, counted)
    return calls


def _roots_and_hints(g) -> tuple[tuple[int, ...], list[float]]:
    a = alpha("0.3")
    return (charpoly_exact(*a_alpha_exact(g, a)),
            list(sym_eigenvalues(a_alpha_matrix(g, a)).values))


class TestHintedRoots:
    """Numeric hints only choose where the exact polynomial's sign is read."""

    @pytest.mark.parametrize("g", [path(7), complete_bipartite(2, 3)], ids=["P7", "K2,3"])
    @pytest.mark.parametrize("spoil", [
        lambda h: [x + 1e-3 for x in h],
        lambda h: h[:-1],
        lambda h: h[:1] + h[:-1],       # the largest root lost to a copy of its neighbour
        lambda h: [],
        lambda h: h[:-1] + [math.nan],
        lambda h: h[:-1] + [math.inf],
        lambda h: [math.nan] * len(h),
    ], ids=["shifted", "too-few", "duplicated", "empty", "nan", "inf", "all-nan"])
    def test_bad_hints_take_the_fallback(self, monkeypatch, g, spoil):
        coeffs, hints = _roots_and_hints(g)
        want = poly_roots_real(coeffs)
        calls = _counted(monkeypatch, "_sturm_chain")
        assert poly_roots_real(coeffs, spoil(hints)) == want
        assert calls["_sturm_chain"] >= 1

    def test_square_free_skips_yun_and_sturm(self, monkeypatch):
        coeffs, hints = _roots_and_hints(path(7))
        want = poly_roots_real(coeffs)
        calls = _counted(monkeypatch, "_yun_squarefree", "_sturm_chain")
        got = poly_roots_real(coeffs, hints)
        assert calls == {"_yun_squarefree": 0, "_sturm_chain": 0}
        assert multiset_deviation(got, want) <= 2.0 ** -43

    def test_repeated_root_certifies_each_factor(self, monkeypatch):
        # K2,3 at 0.3: a simple cubic factor and a double linear one
        coeffs, hints = _roots_and_hints(complete_bipartite(2, 3))
        want = poly_roots_real(coeffs)
        calls = _counted(monkeypatch, "_yun_squarefree", "_sturm_chain")
        got = poly_roots_real(coeffs, hints)
        assert calls == {"_yun_squarefree": 1, "_sturm_chain": 0}
        assert multiset_deviation(got, want) <= 2.0 ** -43

    def test_hints_are_not_trusted(self, monkeypatch):
        # hints at the roots of a different polynomial are refused by its signs
        coeffs, _ = _roots_and_hints(path(7))
        _, other = _roots_and_hints(cycle(7))
        # and two roots 1e-12 apart share one group of hints
        cluster = _from_roots(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 12), -3)
        want = [poly_roots_real(coeffs), poly_roots_real(cluster)]
        calls = _counted(monkeypatch, "_sturm_chain")
        assert [poly_roots_real(coeffs, other),
                poly_roots_real(cluster, [1 / 3, 1 / 3 + 1e-12, -3.0])] == want
        assert calls["_sturm_chain"] == 2

    def test_hint_chains_wider_than_group_tol_give_disjoint_intervals(self):
        # roots 3e-7 apart, each hinted by a chain of members 0.9e-7 apart
        # that spans up to 1.8e-7: chaining makes one group per root, and
        # the groups' intervals do not meet
        f = list(_from_roots(*(Fraction(30 * k, 10 ** 8) for k in range(5))))
        hints = [k * 3e-7 + j * 0.9e-7 for k in range(5) for j in range(1 + k % 3)]
        intervals = linalg._hinted_intervals(f, hints)
        assert intervals is not None and len(intervals) == 5
        assert max(hi - lo for lo, hi, _ in intervals) > linalg.GROUP_TOL * 2 ** 27
        ends = sorted((lo, hi) for lo, hi, _ in intervals)
        assert all(hi < lo for (_, hi), (lo, _) in zip(ends, ends[1:]))


class TestRemainderSequence:
    """gcd and Sturm read one signed primitive remainder sequence."""

    @pytest.mark.parametrize("mults", [
        {2: 3, -1: 1}, {0: 2, 3: 2, -4: 1}, {1: 4}, {5: 1, 1: 1, -2: 1},
        {Fraction(1, 3): 2, Fraction(-7, 2): 3, 6: 1}])
    @pytest.mark.parametrize("scale", [1, 6, -10])
    def test_gcd_with_the_derivative(self, mults, scale):
        # gcd(f, f') = prod (x - r)**(m - 1), primitive with a positive lead
        f = [scale * c for c in _from_roots(*(r for r, m in mults.items() for _ in range(m)))]
        want = list(_from_roots(*(r for r, m in mults.items() for _ in range(m - 1))))
        assert linalg._gcd_int(f, linalg._deriv_int(f)) == want

    def test_gcd_of_a_constant_and_with_zero(self):
        assert linalg._gcd_int([6, -5, 1], [4]) == [1]
        assert linalg._gcd_int([-6, 3, 0], [0, 0]) == [-2, 1]
        assert linalg._gcd_int([6, -3], []) == [-2, 1]
        assert linalg._gcd_int([], [4, -2]) == [-2, 1]
        assert linalg._gcd_int([0], []) == []

    def test_sturm_chain_refuses_a_repeated_root(self):
        with pytest.raises(ArithmeticError,
                           match=r"^Sturm chain hit a zero remainder \(input not square-free\)$"):
            linalg._sturm_chain(list(_from_roots(1, 1, 2)))

    def test_sturm_chain_is_the_sequence_of_f_and_its_derivative(self):
        f = list(_from_roots(*range(-3, 4)))
        chain = linalg._sturm_chain(f)
        assert chain[:2] == [f, linalg._primitive(linalg._deriv_int(f))]
        assert len(chain[-1]) == 1 and len(chain) == len(f)


def _prime_count(bound: int) -> int:
    return -(-(2 * bound).bit_length() // 27)


@pytest.mark.parametrize("seed", range(12))
def test_principal_minor_bound(monkeypatch, seed):
    """max |c_j| <= prod_i (1 + ceil(||N_i||_2)), which sizes the CRT and
    never takes more primes than 2**n * prod_i max(1, ceil(||N_i||_2))."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    span = 2 ** 70 if seed % 3 == 2 else 50   # every third matrix past int64
    rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
    if seed == 0:   # a Hadamard matrix of order 8 meets Hadamard's bound: |det| = 8**4
        rows = [[(-1) ** bin(i & j).count("1") for j in range(8)] for i in range(8)]
    new, old = 1, 2 ** len(rows)
    for row in rows:
        norm = math.isqrt(sum(x * x for x in row) - 1) + 1 if any(row) else 0
        new, old = new * (1 + norm), old * max(1, norm)
    _assert_is_charpoly(rows)
    counts = []
    primes = linalg._primes
    monkeypatch.setattr(linalg, "_primes", lambda k: counts.append(k) or primes(k))
    coeffs = charpoly_exact(rows)
    assert max(map(abs, coeffs)) <= new
    assert counts == [_prime_count(new)] and counts[0] <= _prime_count(old)


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

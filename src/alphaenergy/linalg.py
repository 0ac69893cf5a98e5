"""Symmetric eigensolver and exact characteristic polynomials.

Two independent routes to a spectrum live here on purpose:

* ``sym_eigenvalues`` is a cyclic-by-row Jacobi iteration in float64.
* ``charpoly_exact`` + ``poly_roots_real`` go through exact arithmetic
  (Hessenberg reduction mod 31-bit primes with a CRT lift past a Hadamard
  bound, then Yun square-free splitting, Sturm isolation from the smaller
  of Cauchy's and Fujiwara's root bounds and quadratic interval
  refinement at dyadic points m / 2**e in Python integers) and
  touch floating point only when each refined root is rounded to a float.

Keep them independent; tests compare one against the other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

SYM_EIG_MAX_N = 2000
CHARPOLY_MAX_N = 64
_PRIME_BATCH = 16        # primes reduced together in one int64 stack
JACOBI_REL_TOL = 1e-12   # off-diagonal Frobenius target, relative to ||M||_F
JACOBI_MAX_SWEEPS = 100
GROUP_TOL = 1e-7         # eigenvalue clustering width for multiplicities


@dataclass(frozen=True)
class SymMatrix:
    """Square, finite, exactly symmetric float matrix."""

    data: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        if not (a == a.T).all():
            raise ValueError("matrix must be exactly symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in non-increasing order plus clustered multiplicities."""

    values: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]


def _cluster(values: Sequence[float], tol: float) -> tuple[tuple[float, int], ...]:
    groups: list[tuple[float, int]] = []
    rep, count = None, 0
    for v in values:
        if rep is not None and abs(v - rep) <= tol:
            count += 1
        else:
            if rep is not None:
                groups.append((rep, count))
            rep, count = v, 1
    if rep is not None:
        groups.append((rep, count))
    return tuple(groups)


def make_spectrum(values: Iterable[float],
                  trace: Optional[float] = None,
                  scale: Optional[float] = None) -> Spectrum:
    """Sort values and cluster multiplicities.

    When ``trace`` is given, the sum of values must reproduce it within
    1e-9 * n * scale (scale = max matrix entry magnitude).
    """
    vals = tuple(sorted((float(v) for v in values), reverse=True))
    if trace is not None:
        tol = 1e-9 * max(1, len(vals)) * (scale if scale is not None else 1.0)
        err = abs(math.fsum(vals) - trace)
        if err > tol:
            raise ValueError(f"eigenvalue sum off trace by {err:.3e} (tol {tol:.3e})")
    return Spectrum(values=vals, groups=_cluster(vals, GROUP_TOL))


def multiset_deviation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Max elementwise gap between two sorted multisets of reals."""
    if len(xs) != len(ys):
        raise ValueError(f"multiset size mismatch: {len(xs)} vs {len(ys)}")
    if not xs:
        return 0.0
    a = sorted(xs)
    b = sorted(ys)
    return max(abs(x - y) for x, y in zip(a, b))


# ----------------------------------------------------------------------
# cyclic Jacobi

def _jacobi(a0: np.ndarray) -> np.ndarray:
    a = np.array(a0, dtype=float)
    n = a.shape[0]
    target = JACOBI_REL_TOL * float(np.linalg.norm(a0))
    if n == 1:
        return a.diagonal().copy()
    skip = target / (2 * n)   # elements below this cannot push off-norm past target

    def offnorm() -> float:
        off = a - np.diag(a.diagonal())
        return float(np.linalg.norm(off))

    converged = False
    for _ in range(JACOBI_MAX_SWEEPS):
        if offnorm() <= target:
            converged = True
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                aij = a[i, j]
                if abs(aij) <= skip:
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
    if not converged and offnorm() > target:
        raise ArithmeticError(f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    return a.diagonal().copy()


def sym_eigenvalues(m: SymMatrix | np.ndarray) -> Spectrum:
    sm = m if isinstance(m, SymMatrix) else SymMatrix(np.asarray(m))
    if sm.n < 1 or sm.n > SYM_EIG_MAX_N:
        raise ValueError(f"matrix dimension {sm.n} outside 1..{SYM_EIG_MAX_N}")
    d = _jacobi(sm.data)
    scale = float(np.abs(sm.data).max()) if sm.n else 0.0
    return make_spectrum(sorted(d, reverse=True), trace=float(sm.data.trace()), scale=scale)


# ----------------------------------------------------------------------
# exact characteristic polynomial

@dataclass(frozen=True)
class RationalPoly:
    """Polynomial with exact rational coefficients, ascending degree."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients",
                           tuple(Fraction(c) for c in self.coefficients))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _is_prime_31(m: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for odd 7 < m < 3.2e9."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _primes(count: int) -> tuple[int, ...]:
    """The ``count`` largest primes below 2**31, in descending order."""
    out, m = [], 2 ** 31 - 1
    while len(out) < count:
        if _is_prime_31(m):
            out.append(m)
        m -= 2
    return tuple(out)


def _charpoly_mod(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a stack of matrices, one prime each.

    ``h`` is a (k, n, n) int64 array of residues mod the k primes in
    ``p`` (each below 2**31); it is overwritten.  Returns the (k, n + 1)
    ascending coefficient residues.  Every product of two residues is
    below 2**62 and is reduced before it is summed, so nothing overflows.
    """
    k, n, _ = h.shape
    p2, p3 = p[:, None], p[:, None, None]
    primes = p.tolist()
    # similarity transforms to upper Hessenberg form (Cohen, Alg. 2.2.9)
    for c in range(n - 2):
        r = c + 1
        pivots = []
        for b, col in enumerate(h[:, r:, c].tolist()):
            i = next((row for row, v in enumerate(col) if v), 0)
            if i:
                h[b, [r, r + i]] = h[b, [r + i, r]]
                h[b][:, [r, r + i]] = h[b][:, [r + i, r]]
            pivots.append(col[i])
        if not any(pivots):
            continue
        inv = [pow(t, -1, q) if t else 0 for t, q in zip(pivots, primes)]
        u = h[:, r + 1:, c] * np.array(inv, dtype=np.int64)[:, None] % p2
        h[:, r + 1:, c:] = (h[:, r + 1:, c:] - u[:, :, None] * h[:, r:r + 1, c:]) % p3
        h[:, :, r] = ((h[:, :, r + 1:] * u[:, None, :] % p3).sum(axis=2) + h[:, :, r]) % p2
    # p_m = (x - h_mm) p_(m-1) - sum_i h_im (h_(i+1,i) ... h_(m,m-1)) p_(i-1)
    polys = np.zeros((k, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    sub = np.zeros((k, n), dtype=np.int64)   # products of subdiagonal runs
    for j in range(n):
        prev, cur = polys[:, j], polys[:, j + 1]
        cur[:, 1:] = prev[:, :-1]
        cur -= h[:, j, j, None] * prev % p2
        if j:
            sub[:, j - 1] = 1
            sub[:, :j] = sub[:, :j] * h[:, j, j - 1, None] % p2
            t = h[:, :j, j] * sub[:, :j] % p2
            cur -= (t[:, :, None] * polys[:, :j] % p3).sum(axis=1)
        cur %= p2
    return polys[:, n]


def charpoly_exact(mat: Sequence[Sequence[Fraction | int]]) -> RationalPoly:
    """det(xI - M) with exact rational coefficients.

    M is scaled by the lcm s of its denominators to an integer matrix N.
    The charpoly of N is computed mod 31-bit primes, counting down from
    2**31 - 1, by reduction to Hessenberg form, and the residues are
    combined by CRT.  Each coefficient of det(xI - N) is a signed sum of
    at most 2**n principal minors, each bounded by Hadamard's inequality,
    so its size is at most B = 2**n * prod_i max(1, ceil(||N_i||_2)) over
    the rows N_i.  Enough primes are taken that their product exceeds 2B,
    so the symmetric residue is the integer coefficient itself.  The
    primes are fixed and the reduction is a similarity over GF(p) for
    every prime, so the result is exact and deterministic.  Coefficient j
    of det(xI - M) is then c_j / s**(n - j).
    """
    # int and Fraction both carry numerator and denominator; convert the rest
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in r] for r in mat]
    n = len(rows)
    if n < 1:
        raise ValueError("matrix must be at least 1x1")
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n > CHARPOLY_MAX_N:
        raise ValueError(f"matrix dimension {n} exceeds cap {CHARPOLY_MAX_N}")
    s = math.lcm(*{x.denominator for row in rows for x in row})
    nmat = [[x.numerator * (s // x.denominator) for x in row] for row in rows]

    bound = 2 ** n
    for row in nmat:
        sq = sum(x * x for x in row)
        bound *= math.isqrt(sq - 1) + 1 if sq else 1
    primes = _primes(-(-(2 * bound).bit_length() // 30))   # each exceeds 2**30
    modulus = math.prod(primes)
    residues = []
    for lo in range(0, len(primes), _PRIME_BATCH):
        chunk = primes[lo:lo + _PRIME_BATCH]
        h = np.array([[[x % q for x in row] for row in nmat] for q in chunk],
                     dtype=np.int64)
        residues.extend(_charpoly_mod(h, np.array(chunk, dtype=np.int64)).tolist())
    weights = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    coeffs = []
    for j in range(n + 1):
        c = sum(r[j] * w for r, w in zip(residues, weights)) % modulus
        coeffs.append(c - modulus if 2 * c > modulus else c)
    return RationalPoly(tuple(Fraction(coeffs[j], s ** (n - j)) for j in range(n + 1)))


# ----------------------------------------------------------------------
# integer polynomial helpers (coefficients ascending, index = degree)

def _strip(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _content(c: Sequence[int]) -> int:
    g = 0
    for x in c:
        g = math.gcd(g, x)
    return g or 1


def _primitive(c: Sequence[int]) -> list[int]:
    """Divide by positive content; sign of leading coefficient is kept."""
    g = _content(c)
    return [x // g for x in c]


def _deriv_int(c: Sequence[int]) -> list[int]:
    return [i * c[i] for i in range(1, len(c))]


def _pseudo_rem(u: Sequence[int], v: Sequence[int]) -> tuple[list[int], int]:
    """Pseudo-remainder of u by v and the sign of the implied multiplier.

    Returns (r, sign) with lc(v)^k * u = q*v + r for some k >= 0, where
    sign = sign(lc(v)^k), so that sign*r has the sign of the true
    rational remainder.
    """
    r = list(u)
    dv = len(v) - 1
    lv = v[-1]
    sign = 1
    while len(_strip(r)) - 1 >= dv and r:
        r = _strip(r)
        k = len(r) - 1 - dv
        lead = r[-1]
        r = [lv * x for x in r]
        for idx in range(dv + 1):
            r[k + idx] -= lead * v[idx]
        if lv < 0:
            sign = -sign
        r = _strip(r)
        if not r:
            break
    return r, sign


def _gcd_int(u: Sequence[int], v: Sequence[int]) -> list[int]:
    a = _strip(list(u))
    b = _strip(list(v))
    while b:
        r, _ = _pseudo_rem(a, b)
        a, b = b, _primitive(_strip(r)) if r else []
    a = _primitive(a)
    if a and a[-1] < 0:
        a = [-x for x in a]
    return a


def _div_exact(u: Sequence[int], v: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials (raises if not exact).

    The divisors here are primitive gcds, so by Gauss's lemma an exact
    quotient has integer coefficients and ``divmod`` finds each one.
    """
    num = list(u)
    dv = len(v) - 1
    quot = [0] * (len(u) - dv)
    for k in range(len(num) - 1, dv - 1, -1):
        c, rem = divmod(num[k], v[-1])
        if rem:
            raise ArithmeticError("polynomial quotient was not integral")
        quot[k - dv] = c
        if c:
            for idx in range(dv + 1):
                num[k - dv + idx] -= c * v[idx]
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return _strip(quot)


def _sub_int(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _strip(out)


def _yun_squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """Square-free decomposition: [(factor, multiplicity)], factors primitive."""
    fp = _deriv_int(f)
    d = _gcd_int(f, fp)
    if len(d) - 1 == 0:
        return [(_primitive(f), 1)]
    w = _div_exact(f, d)
    y = _div_exact(fp, d)
    z = _sub_int(y, _deriv_int(w))
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(w) - 1 > 0:
        g = _gcd_int(w, z)
        if len(g) - 1 > 0:
            out.append((g, i))
        w = _div_exact(w, g)
        z = _sub_int(_div_exact(z, g), _deriv_int(w))
        i += 1
    total = sum((len(g) - 1) * mult for g, mult in out)
    if total != len(f) - 1:
        raise ArithmeticError("square-free decomposition lost degree")
    return out


def _value_at(c: Sequence[int], m: int, e: int) -> int:
    """The integer 2**(e*n) * f(m / 2**e) = sum c_j m^j 2**(e*(n-j)), by Horner."""
    n = len(c) - 1
    acc = 0
    for k in range(n + 1):
        acc = acc * m + (c[n - k] << (e * k))
    return acc


def _sign_at(c: Sequence[int], m: int, e: int) -> int:
    """Sign of the integer polynomial at the dyadic point m / 2**e."""
    v = _value_at(c, m, e)
    return (v > 0) - (v < 0)


def _sturm_chain(f: list[int]) -> list[list[int]]:
    chain = [list(f), _primitive(_deriv_int(f))]
    while len(chain[-1]) - 1 > 0:
        r, sign = _pseudo_rem(chain[-2], chain[-1])
        r = _strip(r)
        if not r:
            raise ArithmeticError("Sturm chain hit a zero remainder (input not square-free)")
        nxt = [-sign * x for x in _primitive(r)]
        chain.append(nxt)
    return chain


def _variations(chain: Sequence[Sequence[int]], m: int, e: int) -> int:
    signs = [s for s in (_sign_at(c, m, e) for c in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _nonroot_point(f: Sequence[int], lo: int, hi: int, e: int) -> tuple[int, int]:
    """A point strictly inside (lo, hi) / 2**e where f is non-zero.

    Tries the midpoint, then moves right of it by 1/4, 1/8, ... of the
    width.  The candidates are distinct, so one of the first deg(f) + 1
    is not a root.
    """
    mid = m = lo + hi
    j = 0
    while _sign_at(f, m, e + 1 + j) == 0:
        j += 1
        m = (mid << j) + hi - lo
    return m, e + 1 + j


def _isolate(f: list[int], chain: list[list[int]], lo: int, hi: int, e: int,
             vlo: int, vhi: int, depth: int = 0) -> list[tuple[int, int, int]]:
    """Split (lo, hi) / 2**e into intervals holding one root each.

    ``vlo`` and ``vhi`` are the Sturm sign variations at the two ends, so
    each split evaluates the chain only at its new point.
    """
    if vlo - vhi == 0:
        return []
    if vlo - vhi == 1:
        return [(lo, hi, e)]
    if depth > 200:
        raise ArithmeticError("root isolation failed to separate roots")
    mid, em = _nonroot_point(f, lo, hi, e)
    lo, hi = lo << (em - e), hi << (em - e)
    vmid = _variations(chain, mid, em)
    return (_isolate(f, chain, lo, mid, em, vlo, vmid, depth + 1)
            + _isolate(f, chain, mid, hi, em, vmid, vhi, depth + 1))


def _refine(f: Sequence[int], lo: int, hi: int, e: int) -> float:
    """Quadratic interval refinement (Abbott) with exact values, to 2**-44.

    The secant picks a point of the grid that cuts (lo, hi) / 2**e into
    N = 2**t parts; it and its neighbour towards the root are evaluated.
    If they bracket the root, N squares; if not, the interval is bisected
    and N goes to max(4, sqrt N).  Kept values 2**(e*n) * f shift left by
    t*n when the exponent grows by t.
    """
    n = len(f) - 1
    vlo, vhi = _value_at(f, lo, e), _value_at(f, hi, e)
    if not (vlo < 0 < vhi or vhi < 0 < vlo):
        raise ArithmeticError("interval does not bracket a sign change")
    t = 2
    while (hi - lo) << 44 > 1 << e:
        # secant estimate round(N * vlo / (vlo - vhi)), kept off the ends
        num, den = vlo << t, vlo - vhi
        k = min(max((2 * num + den) // (2 * den), 1), (1 << t) - 1)
        et, base, step = e + t, lo << t, hi - lo
        vk = _value_at(f, base + k * step, et)
        if vk == 0:
            return (base + k * step) / (1 << et)
        j = k + 1 if (vk < 0) == (vlo < 0) else k - 1
        vj = ((vhi if j else vlo) << (t * n) if j in (0, 1 << t)
              else _value_at(f, base + j * step, et))
        if vj == 0:
            return (base + j * step) / (1 << et)
        if (vj < 0) != (vk < 0):
            if j < k:
                k, j, vk, vj = j, k, vj, vk
            lo, hi, vlo, vhi, e, t = base + k * step, base + j * step, vk, vj, et, 2 * t
            continue
        mid, e, t = lo + hi, e + 1, max(2, t // 2)
        vm = _value_at(f, mid, e)
        if vm == 0:
            return mid / (1 << e)
        if (vm < 0) == (vlo < 0):
            lo, hi, vlo, vhi = mid, 2 * hi, vm, vhi << n
        else:
            lo, hi, vlo, vhi = 2 * lo, mid, vlo << n, vm
    return (lo + hi) / (1 << (e + 1))


def _root_exponent(f: Sequence[int]) -> int:
    """b >= 0 with every root of f strictly inside (-2**b, 2**b).

    The smaller of Cauchy's bound 1 + max_j |f_j / f_n| and Fujiwara's
    2 * max_k |f_{n-k} / f_n|**(1/k), each rounded up to a power of two in
    integers: |f_{n-k} / f_n| < 2**(len(f_{n-k}) - len(f_n) + 1) in bit lengths.
    """
    lead = abs(f[-1]).bit_length()
    cauchy = (max(abs(c) for c in f[:-1]) // abs(f[-1]) + 1).bit_length()
    fujiwara = 1 + max(-((lead - 1 - abs(c).bit_length()) // k)
                       for k, c in enumerate(reversed(f[:-1]), 1) if c)
    return min(cauchy, max(fujiwara, 0))


def poly_roots_real(pl: RationalPoly) -> list[float]:
    """All real roots with multiplicity, descending.

    Intended for polynomials known to have only real roots (e.g. the
    characteristic polynomial of a symmetric matrix); raises if any
    square-free factor has fewer real roots than its degree.
    """
    coeffs = list(pl.coefficients)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has no well-defined root set")
    if len(coeffs) == 1:
        return []
    s = 1
    for c in coeffs:
        s = math.lcm(s, c.denominator)
    f = _primitive([int(c * s) for c in coeffs])
    if f[-1] < 0:
        f = [-x for x in f]
    roots: list[float] = []
    for factor, mult in _yun_squarefree(f):
        deg = len(factor) - 1
        if deg == 1:
            roots.extend([-factor[0] / factor[1]] * mult)
            continue
        chain = _sturm_chain(factor)
        b = _root_exponent(factor)
        lo, hi = -(1 << b), 1 << b
        vlo, vhi = _variations(chain, lo, 0), _variations(chain, hi, 0)
        if vlo - vhi != deg:
            raise ArithmeticError(
                f"factor of degree {deg} has only {vlo - vhi} real roots")
        for interval in _isolate(factor, chain, lo, hi, 0, vlo, vhi):
            roots.extend([_refine(factor, *interval)] * mult)
    roots.sort(reverse=True)
    if len(roots) != len(coeffs) - 1:
        raise ArithmeticError("lost roots during isolation")
    return roots

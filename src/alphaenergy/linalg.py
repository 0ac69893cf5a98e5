"""Symmetric eigensolver and exact characteristic polynomials.

Two independent routes to a spectrum live here on purpose:

* ``sym_eigenvalues`` is a threshold cyclic-by-row Jacobi iteration in
  float64.
* ``charpoly_exact`` + ``poly_roots_real`` stay in Python integers from
  an integer matrix N over a denominator d to the roots (Hessenberg
  reduction mod primes below 2**28 with a CRT lift past prod_i (1 +
  ||N_i||_2), root intervals certified by sign changes near numeric hints
  or else found by Yun square-free splitting and Sturm isolation from the
  smaller of Cauchy's and Fujiwara's root bounds, and quadratic interval
  refinement at dyadic points m / 2**e) and touch floating point only
  when each refined root is rounded to a float.

Keep them independent; tests compare one against the other.  A hint only
picks where the exact polynomial's sign is read: a wrong one costs time.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

SYM_EIG_MAX_N = 2000
CHARPOLY_MAX_N = 64
_PRIME_BATCH = 16        # primes reduced together in one int64 stack
JACOBI_REL_TOL = 1e-12   # off-diagonal Frobenius target, relative to ||M||_F
JACOBI_MAX_SWEEPS = 100
# the first JACOBI_THRESHOLD_SWEEPS sweeps skip |a_ij| <= JACOBI_THRESHOLD * offnorm / n
JACOBI_THRESHOLD = 0.2
JACOBI_THRESHOLD_SWEEPS = 3
GROUP_TOL = 1e-7         # eigenvalue clustering width for multiplicities


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in non-increasing order plus clustered multiplicities."""

    values: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]


def _cluster(values: Sequence[float], tol: float) -> tuple[tuple[float, int], ...]:
    """(representative, count) groups of non-increasing ``values``.  A group is
    every value within ``tol`` of its first, largest member, its representative:
    anchored, not chained, so each member is within ``tol`` of the value shown."""
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


def make_spectrum(values: Iterable[float]) -> Spectrum:
    """Sort values in non-increasing order and cluster multiplicities."""
    vals = tuple(sorted((float(v) for v in values), reverse=True))
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

def _jacobi(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric float64 array ``a``, which is overwritten.
    Rotations update ``a`` in place through two work rows: nothing is
    allocated per rotation, and nothing of size n x n per sweep."""
    n = a.shape[0]
    target = JACOBI_REL_TOL * float(np.linalg.norm(a))
    skip = target / (2 * n)   # elements below this cannot push off-norm past target
    ai = np.empty(n)          # row i before its rotation
    w = np.empty(n)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        diag = a.diagonal().copy()
        np.fill_diagonal(a, 0.0)
        off = float(np.linalg.norm(a))
        np.fill_diagonal(a, diag)
        if off <= target:
            return diag
        if sweep == JACOBI_MAX_SWEEPS:
            raise ArithmeticError(f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps")
        # Rutishauser's threshold: the first sweeps leave small elements,
        # which the rotations of the large ones change anyway
        thresh = skip
        if sweep < JACOBI_THRESHOLD_SWEEPS:
            thresh = max(skip, JACOBI_THRESHOLD * off / n)
        for i in range(n - 1):
            ri = a[i]
            for j in range(i + 1, n):
                aij = a.item(i, j)   # Python floats: cheaper scalar arithmetic
                if abs(aij) <= thresh:
                    continue
                app, aqq = a.item(i, i), a.item(j, j)
                theta = (aqq - app) / (2.0 * aij)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                rj = a[j]
                # ri <- ai - s*(aj + tau*ai), rj <- aj + s*(ai - tau*aj),
                # each operation in the order that rounds as written
                np.copyto(ai, ri)
                np.multiply(ai, tau, out=w)
                w += rj
                w *= s
                ri -= w
                np.multiply(rj, tau, out=w)
                np.subtract(ai, w, out=w)
                w *= s
                rj += w
                a[:, i] = ri
                a[:, j] = rj
                a[i, i] = app - t * aij
                a[j, j] = aqq + t * aij
                a[i, j] = 0.0
                a[j, i] = 0.0


def sym_eigenvalues(m: np.ndarray) -> Spectrum:
    """Spectrum of a square, finite, exactly symmetric matrix of order
    1..``SYM_EIG_MAX_N``.  The eigenvalues must sum to the trace within
    1e-9 * n * max|entry|."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not (a == a.T).all():
        raise ValueError("matrix must be exactly symmetric")
    n = a.shape[0]
    if not 1 <= n <= SYM_EIG_MAX_N:
        raise ValueError(f"matrix dimension {n} outside 1..{SYM_EIG_MAX_N}")
    tol = 1e-9 * n * float(np.abs(a).max())
    trace = float(a.trace())
    spec = make_spectrum(_jacobi(a))   # overwrites a
    err = abs(math.fsum(spec.values) - trace)
    if err > tol:
        raise ValueError(f"eigenvalue sum off trace by {err:.3e} (tol {tol:.3e})")
    return spec


# ----------------------------------------------------------------------
# exact characteristic polynomial

def _is_prime(m: int) -> bool:
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
    """The ``count`` largest primes below 2**28, in descending order.

    Below 2**28, a sum of ``CHARPOLY_MAX_N`` products of two residues plus
    one residue stays below 2**63, so ``_charpoly_mod`` reduces each sum
    once, not each product.
    """
    out, m = [], 2 ** 28 - 1
    while len(out) < count:
        if _is_prime(m):
            out.append(m)
        m -= 2
    return tuple(out)


def _charpoly_mod(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a stack of matrices, one prime each.

    ``h`` is a (k, n, n) int64 array of residues mod the k primes in
    ``p`` (each below 2**28); it is overwritten.  Returns the (k, n + 1)
    ascending coefficient residues.  Each row sum of the Hessenberg step
    and each sum of the recurrence adds at most n <= ``CHARPOLY_MAX_N``
    products of two residues to one residue, so it stays below 2**63 and
    is reduced once.
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
        h[:, :, r] = (np.matmul(h[:, :, r + 1:], u[:, :, None])[:, :, 0] + h[:, :, r]) % p2
    # p_m = (x - h_mm) p_(m-1) - sum_i h_im (h_(i+1,i) ... h_(m,m-1)) p_(i-1)
    polys = np.zeros((k, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    sub = np.zeros((k, n), dtype=np.int64)   # products of subdiagonal runs
    for j in range(n):
        prev, cur = polys[:, j], polys[:, j + 1]
        acc = h[:, j, j, None] * prev
        if j:
            sub[:, j - 1] = 1
            sub[:, :j] = sub[:, :j] * h[:, j, j - 1, None] % p2
            t = h[:, :j, j] * sub[:, :j] % p2
            acc += np.matmul(t[:, None, :], polys[:, :j])[:, 0]
        cur[:, 1:] = prev[:, :-1]
        cur[:] = (cur - acc) % p2
    return polys[:, n]


def charpoly_exact(mat: Sequence[Sequence[int]], d: int = 1) -> tuple[int, ...]:
    """Ascending coefficients of det(d*x*I - N) for an integer matrix N and
    an integer d >= 1.  Its roots are the eigenvalues of N / d.

    With det(xI - N) = sum_j c_j x**j, the result is c_j * d**j.  The c_j
    are computed mod primes below 2**28, counting down from 2**28 - 1, by
    reduction to Hessenberg form, and the residues are combined by CRT.
    Each c_j is a signed sum of principal minors of N.  By Hadamard's
    inequality the minor on S is at most prod_(i in S) ||N_i||_2 over the
    rows N_i, and over all S these sum to B = prod_i (1 + ceil(||N_i||_2)).  Enough
    primes are taken that their product exceeds 2B, so the symmetric
    residue is the integer c_j itself.  The primes are fixed and the
    reduction is a similarity over GF(p) for every prime, so the result is
    exact and deterministic.  Entries and d are read with
    ``operator.index``: a float or a Fraction raises TypeError.
    """
    nmat = [[operator.index(x) for x in row] for row in mat]
    d = operator.index(d)
    n = len(nmat)
    if n < 1:
        raise ValueError("matrix must be at least 1x1")
    if any(len(r) != n for r in nmat):
        raise ValueError("matrix must be square")
    if n > CHARPOLY_MAX_N:
        raise ValueError(f"matrix dimension {n} exceeds cap {CHARPOLY_MAX_N}")
    if d < 1:
        raise ValueError(f"denominator must be at least 1, got {d}")

    bound = 1
    for row in nmat:
        sq = sum(x * x for x in row)
        bound *= 2 + math.isqrt(sq - 1) if sq else 1   # 1 + ceil(sqrt(sq))
    primes = _primes(-(-(2 * bound).bit_length() // 27))   # each exceeds 2**27
    modulus = math.prod(primes)
    try:
        big = np.array(nmat, dtype=np.int64)
    except OverflowError:   # an entry needs more than 64 bits: reduce Python ints
        big = np.array(nmat, dtype=object)
    residues = []
    for lo in range(0, len(primes), _PRIME_BATCH):
        chunk = np.array(primes[lo:lo + _PRIME_BATCH], dtype=np.int64)
        h = (big % chunk[:, None, None]).astype(np.int64, copy=False)
        residues.extend(_charpoly_mod(h, chunk).tolist())
    weights = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    coeffs = []
    for j in range(n + 1):
        c = sum(r[j] * w for r, w in zip(residues, weights)) % modulus
        coeffs.append((c - modulus if 2 * c > modulus else c) * d ** j)
    return tuple(coeffs)


# ----------------------------------------------------------------------
# integer polynomial helpers (coefficients ascending, index = degree)

def _strip(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _primitive(c: Sequence[int]) -> list[int]:
    """Divide by positive content; sign of leading coefficient is kept."""
    g = math.gcd(*c) or 1
    return [x // g for x in c]


def _deriv_int(c: Sequence[int]) -> list[int]:
    return [i * c[i] for i in range(1, len(c))]


def _pseudo_rem(u: Sequence[int], v: Sequence[int]) -> tuple[list[int], int]:
    """Pseudo-remainder of u by v and the sign of the implied multiplier.

    Returns (r, sign) with lc(v)^k * u = q*v + r for some k >= 0, where
    sign = sign(lc(v)^k), so that sign*r has the sign of the true
    rational remainder.
    """
    r = _strip(list(u))
    dv = len(v) - 1
    lv = v[-1]
    sign = 1
    while len(r) - 1 >= dv:
        k = len(r) - 1 - dv
        lead = r[-1]
        r = [lv * x for x in r]
        for idx in range(dv + 1):
            r[k + idx] -= lead * v[idx]
        if lv < 0:
            sign = -sign
        _strip(r)
    return r, sign


def _remainder_sequence(u: list[int], v: list[int]) -> Iterator[list[int]]:
    """The signed primitive remainder sequence of (u, v) up to its last
    non-zero term: u, the primitive part of v, then the primitive part of
    each pseudo-remainder, with the sign of minus the true remainder.  Only
    the last two terms are held."""
    yield u
    prev, r, sign = u, v, -1
    while r:
        cur = [-sign * x for x in _primitive(r)]
        yield cur
        r, sign = _pseudo_rem(prev, cur)
        prev = cur


def _gcd_int(u: Sequence[int], v: Sequence[int]) -> list[int]:
    """gcd(u, v), primitive with a positive leading coefficient ([] if both are 0)."""
    for last in _remainder_sequence(_strip(list(u)), _strip(list(v))):
        pass
    a = _primitive(last)
    return [-x for x in a] if a and a[-1] < 0 else a


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
    chain = list(_remainder_sequence(list(f), _deriv_int(f)))
    if len(chain[-1]) > 1:
        raise ArithmeticError("Sturm chain hit a zero remainder (input not square-free)")
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


def _hinted_intervals(f: list[int], hints: Sequence[float]) -> list[tuple[int, int, int]] | None:
    """deg(f) intervals (lo, hi, e) holding one root of f each, or None.

    Hints less than ``GROUP_TOL`` apart form a group, widened by 1 to 2 steps
    of 2**-27 on each side.  Unlike ``_cluster``'s, groups chain neighbours, so
    one may span more than ``GROUP_TOL``, but groups are over 13 steps apart and
    their intervals are disjoint.  If deg(f) show a sign change, each holds
    exactly one root."""
    if not all(abs(h) < 2.0 ** 60 for h in hints):   # also NaN and inf
        return None
    groups: list[list[float]] = []
    for h in sorted(hints):
        if groups and h - groups[-1][1] <= GROUP_TOL:
            groups[-1][1] = h
        else:
            groups.append([h, h])
    if len(groups) < len(f) - 1:
        return None
    ends = [(math.floor(lo * 2 ** 27) - 1, math.ceil(hi * 2 ** 27) + 1) for lo, hi in groups]
    out = [(lo, hi, 27) for lo, hi in ends if _sign_at(f, lo, 27) * _sign_at(f, hi, 27) < 0]
    return out if len(out) == len(f) - 1 else None


def poly_roots_real(coeffs: Sequence[int], hints: Sequence[float] = ()) -> list[float]:
    """All real roots with multiplicity, descending, of the integer
    polynomial with ascending ``coeffs`` (read with ``operator.index``).

    Intended for polynomials known to have only real roots (e.g. the
    characteristic polynomial of a symmetric matrix); raises if any
    square-free factor has fewer real roots than its degree.  Approximate
    roots ``hints`` only save time: a polynomial, or else a square-free
    factor, that ``_hinted_intervals`` certifies skips Sturm isolation.
    """
    coeffs = _strip([operator.index(c) for c in coeffs])
    if not coeffs:
        raise ValueError("zero polynomial has no well-defined root set")
    if len(coeffs) == 1:
        return []
    f = _primitive(coeffs)
    if f[-1] < 0:
        f = [-x for x in f]
    roots: list[float] = []
    whole = _hinted_intervals(f, hints)
    for factor, mult in [(f, 1)] if whole else _yun_squarefree(f):
        deg = len(factor) - 1
        if deg == 1:
            roots.extend([-factor[0] / factor[1]] * mult)
            continue
        intervals = whole or _hinted_intervals(factor, hints)
        if intervals is None:
            chain = _sturm_chain(factor)
            b = _root_exponent(factor)
            lo, hi = -(1 << b), 1 << b
            vlo, vhi = _variations(chain, lo, 0), _variations(chain, hi, 0)
            if vlo - vhi != deg:
                raise ArithmeticError(
                    f"factor of degree {deg} has only {vlo - vhi} real roots")
            intervals = _isolate(factor, chain, lo, hi, 0, vlo, vhi)
        for interval in intervals:
            roots.extend([_refine(factor, *interval)] * mult)
    roots.sort(reverse=True)
    if len(roots) != len(coeffs) - 1:
        raise ArithmeticError("lost roots during isolation")
    return roots

"""Closed-form spectra for operations applied to regular graphs.

``CLOSED_FORMS`` declares each form once: its structural constants (the
integers in the algebra) and a block, per base eigenvalue, that both
routes read.  ``ClosedForm.__call__`` evaluates it in floats over the base
spectrum, and ``verify_closed_form`` compares that with the numeric
eigensolver and, at an exact weight on a small enough graph, with roots of
the exact characteristic polynomial.  ``closed_form_identity`` proves
the block exactly, from the base's adjacency matrix, with no eigenvalue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping, NamedTuple, Optional

import numpy as np

from .graphs import Graph, adjacency_matrix, component_counts, degree_info
from .linalg import (CHARPOLY_MAX_N, Spectrum, charpoly_exact, make_spectrum,
                     multiset_deviation, poly_roots_real, sym_eigenvalues)
from .ops import OpDescriptor, apply_op, op_label, parse_op
from .spectra import AlphaValue, a_alpha_exact, alpha_spectrum

BASE_TOL = 1e-8


@dataclass(frozen=True)
class RegularBase:
    """Regular graph summary; its adjacency spectrum is solved when first read."""

    p: int
    q: int
    r: int
    connected: bool
    graph: Graph = field(repr=False, compare=False)

    @classmethod
    def from_graph(cls, g: Graph) -> "RegularBase":
        r = degree_info(g).regular
        if r is None:
            raise ValueError("base graph must be regular")
        return cls(g.p, g.q, r, component_counts(g)[0] == 1, g)

    @functools.cached_property
    def base_spectrum(self) -> tuple[float, ...]:   # non-increasing; r and -r exact
        # r is an eigenvalue once per component, -r once per bipartite component;
        # pin both, or sqrt(lambda + r) in the closed forms magnifies noise at -r.
        spec = list(sym_eigenvalues(adjacency_matrix(self.graph)).values)
        components, bipartite = component_counts(self.graph)
        for i in [*range(components), *range(len(spec) - bipartite, len(spec))]:
            want = self.r if i < components else -self.r
            if abs(spec[i] - want) > BASE_TOL:
                raise ValueError(f"adjacency eigenvalue {spec[i]!r} should be {want}")
            spec[i] = float(want)
        return tuple(spec)


def _pair(x: float, y: float, z: float) -> tuple[float, float]:
    """Eigenvalues of [[x, y], [y, z]]; no subtraction under the root."""
    mid, half = (x + z) / 2.0, math.hypot(x - z, 2.0 * y) / 2.0
    return mid + half, mid - half


class Block(NamedTuple):
    """Per base eigenvalue lambda, [[x, y], [y, z]] with x = x0 + x1*lambda
    (+ j*p on the leading lambda = r, from j*J), y**2 = g2*(l0 + l1*lambda)**e
    and z = z0 + z1*lambda; then ``count`` values ``rep``."""

    x: tuple   # (x0, x1)
    y2: tuple  # (g2, l0, l1, e), e in {0, 1, 2}
    z: tuple   # (z0, z1)
    j: Any = 0
    rep: Any = 0
    count: int = 0


@dataclass(frozen=True)
class ClosedForm:
    """``block(c, al, w, base, m)`` takes the coefficients, a, 1 - a, the base and
    the operation's parameter, and uses only + - *: floats and Fractions both pass."""

    coeffs: Mapping[str, float]
    block: Callable[..., Block]
    deviation: Optional[str] = None   # where the form departs from the paper

    def __call__(self, b: RegularBase, m: Optional[int], a: AlphaValue) -> Spectrum:
        """The float spectrum: ``_pair`` over the base spectrum."""
        k = self.block(self.coeffs, a.numeric, 1.0 - a.numeric, b, m)
        (x0, x1), (g2, l0, l1, e), (z0, z1) = k.x, k.y2, k.z
        vals = [k.rep] * k.count
        for i, lam in enumerate(b.base_spectrum):
            # l first: y**2 expanded in powers of lambda cancels where y is 0
            y = math.sqrt(g2 * (l0 + l1 * lam) ** e)
            vals.extend(_pair(x0 + x1 * lam + (k.j * b.p if i == 0 else 0), y,
                              z0 + z1 * lam))
        return make_spectrum(vals)


def _middle(c, al, w, b, m) -> Block:
    """[[a*r, y], [y, 2*a*r + (1-a)*(lambda + r - 2)]], y = (1-a)*sqrt(lambda + r),
    on x and R^T x (R the incidence matrix); ker R: q - p values 2*a*r - 2*(1-a)."""
    if b.r < 2:
        raise ValueError(f"middle closed form needs r >= 2, got r={b.r}")
    return Block(x=(al * b.r, 0), y2=(w * w, b.r, 1, 1),
                 z=(c["edge_deg"] * al * b.r + w * (b.r - c["edge_shift"]), w),
                 rep=c["rep_deg"] * al * b.r - c["rep_adj"] * w, count=b.q - b.p)


def _central(c, al, w, b, m) -> Block:
    """[[a*(p-1) - (1-a)*(lambda + 1) + (1-a)*J, y], [y, 2*a]], y as for middle,
    on x and R^T x; ker R: q - p values 2*a."""
    if b.r < 2:
        raise ValueError(f"central closed form needs r >= 2, got r={b.r}")
    if not b.connected:
        raise ValueError("central closed form needs a connected base")
    return Block(x=(al * (b.p - c["deg_one"]) - w * c["comp_one"], -w),
                 y2=(w * w, b.r, 1, 1), z=(c["edge_deg"] * al, 0),
                 j=c["join"] * w, rep=c["rep_gain"] * al, count=b.q - b.p)


def _splitting(c, al, w, b, m) -> Block:
    """[[a*(m+1)*r + (1-a)*lambda, sqrt(m)*(1-a)*lambda], [., a*r]], on x and x
    spread over the m clone layers; the other clone sums: p*(m-1) values a*r."""
    if m < 1:
        raise ValueError(f"splitting closed form needs m >= 1, got {m}")
    return Block(x=(al * (m + c["orig_one"]) * b.r, w), y2=(m * w * w, 0, 1, 2),
                 z=(c["clone_deg"] * al * b.r, 0), rep=c["rep"] * al * b.r,
                 count=b.p * (m - 1))


def _closed_splitting(c, al, w, b, m) -> Block:
    """[[a*(2r+1) + (1-a)*lambda, (1-a)*(lambda + 1)], [., a*(r+1)]], on x at
    the originals and at the clones."""
    return Block(x=(al * (c["orig_deg"] * b.r + c["orig_one"]), w),
                 y2=(w * w, c["match_one"], 1, 2), z=(al * (b.r + c["clone_one"]), 0))


def _closed_shadow(c, al, w, b, m) -> Block:
    """Diagonal: 2*(1-a)*lambda + 2*a*r + 1, and 2*a*(r+1) - 1, per lambda."""
    return Block(x=(c["pair_deg"] * al * b.r + c["pair_one"], c["pair_adj"] * w),
                 y2=(0, 0, 0, 0), z=(c["flat_deg"] * al * (b.r + 1) - c["flat_one"], 0))


def _ebd(c, al, w, b, m) -> Block:
    """[[a*(r+1), (1-a)*(lambda + 1)], [., a*(r+1)]], on x at both copies."""
    centre = al * (b.r + c["deg_one"])
    return Block(x=(centre, 0), y2=(w * w, c["adj_one"], 1, 2), z=(centre, 0))


CLOSED_FORMS: dict[str, ClosedForm] = {
    "middle": ClosedForm({"rep_deg": 2.0, "rep_adj": 2.0,      # repeated 2*a*r - 2*(1-a)
                          "edge_deg": 2.0, "edge_shift": 2.0},  # degree 2r; R^T R - 2I
                         _middle),
    "central": ClosedForm({"rep_gain": 2.0,                # repeated value 2*a
                           "edge_deg": 2.0,                # subdivision-vertex degree 2
                           "deg_one": 1.0, "comp_one": 1.0,  # degree p - 1; J - I - A
                           "join": 1.0},                   # J is p on the all-ones vector
                          _central, "constant term uses (2p - r)*a^2, reading the "
                                    "printed '2n - r' with n = p"),
    "splitting": ClosedForm({"orig_one": 1.0,    # original-vertex degree (m + 1)*r
                             "clone_deg": 1.0,   # clone degree r
                             "rep": 1.0},        # repeated value a*r (m >= 2 only)
                            _splitting, "discriminant leading term is (a*r*m)^2; the "
                                        "printed form has (a*r*(m+2))^2, which fails "
                                        "the numeric oracle"),
    "closed-splitting": ClosedForm({"orig_deg": 2.0, "orig_one": 1.0,  # degree 2r + 1
                                    "clone_one": 1.0,   # clone degree r + 1
                                    "match_one": 1.0},  # coupling (1-a)*(lambda + 1)
                                   _closed_splitting),
    "closed-shadow": ClosedForm({"pair_adj": 2.0, "pair_deg": 2.0,  # 2(1-a)lambda + 2ar
                                 "pair_one": 1.0,                   # ... + 1
                                 "flat_deg": 2.0, "flat_one": 1.0},  # 2a(r+1) - 1
                                _closed_shadow),
    "ebd": ClosedForm({"deg_one": 1.0, "adj_one": 1.0}, _ebd),  # a*(r+1); (1-a)*(lambda+1)
}
# The former private name, still called by perfbench as (base, m, weight, None).
_CF_DISPATCH = {name: lambda b, m, a, _, n=name: CLOSED_FORMS[n](b, m, a) for name in CLOSED_FORMS}


# The public names: (base, [m,] weight) -> Spectrum, from the registry entry alone.
def cf_middle_spectrum(b, a):
    return CLOSED_FORMS["middle"](b, None, a)
def cf_central_spectrum(b, a):
    return CLOSED_FORMS["central"](b, None, a)
def cf_splitting_spectrum(b, m, a):
    return CLOSED_FORMS["splitting"](b, m, a)
def cf_closed_splitting_spectrum(b, a):
    return CLOSED_FORMS["closed-splitting"](b, None, a)
def cf_closed_shadow_spectrum(b, a):
    return CLOSED_FORMS["closed-shadow"](b, None, a)
def cf_ebd_spectrum(b, a):
    return CLOSED_FORMS["ebd"](b, None, a)


def cf_remark_energies(b: RegularBase, op: OpDescriptor | str, a: AlphaValue) -> float:
    """Energy identities for shadow, duplicate and iterated line graphs.

    shadow:m    -> m*(1-a)*E(G)
    duplicate:m -> 2^m*(1-a)*E(G)
    line:k      -> (1-a)*2*p*(r-2)*prod_{i=0}^{k-2}(2^i*r - 2^(i+1) + 2),
                   valid for k >= 2 and r >= 3
    """
    if isinstance(op, str):
        op = parse_op(op)
    if a.numeric >= 1.0:
        raise ValueError("energy identities hold for alpha < 1 only")
    w = 1.0 - a.numeric
    if op.name == "shadow":
        if op.param < 2:
            raise ValueError("shadow energy identity needs m >= 2")
        return op.param * w * math.fsum(abs(v) for v in b.base_spectrum)
    if op.name == "duplicate":
        if op.param < 1:
            raise ValueError("duplicate energy identity needs m >= 1")
        return (2 ** op.param) * w * math.fsum(abs(v) for v in b.base_spectrum)
    if op.name == "line":
        k = op.param
        if k < 2:
            raise ValueError("line energy identity needs k >= 2")
        if b.r < 3:
            raise ValueError("line energy identity needs r >= 3")
        prod = 1.0
        for i in range(k - 1):
            prod *= (2 ** i) * b.r - 2 ** (i + 1) + 2
        return w * 2.0 * b.p * (b.r - 2.0) * prod
    raise ValueError(f"no energy identity for operation {op.name!r}")


# What the batteries check: every operation, with splitting at m = 1, 2, 3.
CLOSED_FORM_INSTANCES = ("middle", "central", "splitting:1", "splitting:2",
                         "splitting:3", "closed-splitting", "closed-shadow", "ebd")


def closed_form_base(op: OpDescriptor | str,
                     g: Graph) -> tuple[OpDescriptor, ClosedForm, RegularBase]:
    """The operation, its form and the base's summary, or the refusal that needs no
    weight: no form, an irregular base, an unmet precondition.  It solves nothing."""
    op = parse_op(op) if isinstance(op, str) else op
    if op.name not in CLOSED_FORMS:
        raise ValueError(f"no closed form for operation {op.name!r}")
    form, b = CLOSED_FORMS[op.name], RegularBase.from_graph(g)
    form.block(form.coeffs, 0.0, 1.0, b, op.param)   # a precondition raises; reads no eigenvalue
    return op, form, b


@dataclass(frozen=True)
class VerificationRecord:
    op: str
    base: str
    alpha: float
    max_dev: float
    passed: bool
    numeric_dev: float                  # closed form against the numeric oracle
    paper_deviation: Optional[str] = None
    exact_dev: Optional[float] = None   # None when the exact oracle did not run

    def to_json_dict(self) -> dict:
        out = {"op": self.op, "base": self.base, "alpha": self.alpha,
               "max_dev": self.max_dev, "pass": self.passed}
        if self.paper_deviation is not None:
            out["paper_deviation"] = self.paper_deviation
        return out


def verify_closed_form(op: OpDescriptor | str, g: Graph, a: AlphaValue, tol: float = 1e-8,
                       base_id: Optional[str] = None) -> VerificationRecord:
    """Compare a closed-form spectrum against the numeric oracle, which always
    runs, and the exact one (roots of the integer det(d*x*I - N), isolated
    near the numeric spectrum where that is certified), which runs
    if and only if ``a`` is exact (see ``AlphaValue.from_fraction``)
    and the operated graph has at most ``CHARPOLY_MAX_N`` vertices."""
    op, form, b = closed_form_base(op, g)
    cf = form(b, op.param, a)
    operated = apply_op(op, g)
    numeric = alpha_spectrum(operated, a).values
    numeric_dev = multiset_deviation(cf.values, numeric)
    dev, exact_dev = numeric_dev, None
    if a.exact is not None and operated.p <= CHARPOLY_MAX_N:
        roots = poly_roots_real(charpoly_exact(*a_alpha_exact(operated, a)), numeric)
        exact_dev = multiset_deviation(cf.values, roots)
        dev = max(dev, exact_dev)
    return VerificationRecord(
        op=op_label(op), base=base_id if base_id is not None else f"graph(p={g.p},q={g.q})",
        alpha=a.numeric, max_dev=dev, passed=dev <= tol, numeric_dev=numeric_dev,
        paper_deviation=form.deviation, exact_dev=exact_dev)


def closed_form_identity(op: OpDescriptor | str, g: Graph, a: AlphaValue) -> bool:
    """Whether det(xI - M_a(op G)) == (x - rep)**count * det(xI - [[X, Y2], [I, Z]])
    at a rational weight, with X = x0*I + x1*A + j*J, Y2 = g2*(l0*I + l1*A)**e
    and Z = z0*I + z1*A in the base's adjacency matrix A.  These commute, so
    that is det((xI - X)(xI - Z) - Y2), the block's.  Each coefficient has
    degree <= n in a (n the operated order): n + 1 weights prove every a.
    Both sides are d**n and s**n times the monic ones (a = t/d, s the block's
    denominator): each is scaled by the other's leading coefficient."""
    op, form, b = closed_form_base(op, g)
    if a.exact is None:
        raise ValueError("the identity needs a rational alpha")
    c = {name: Fraction(v) for name, v in form.coeffs.items()}
    k = form.block(c, a.exact, 1 - a.exact, b, op.param)
    got = charpoly_exact(*a_alpha_exact(apply_op(op, g), a))   # det(d*x*I - N)
    g2, l0, l1, e = k.y2
    y2 = [g2]
    for _ in range(e):   # g2*(l0 + l1*t)**e, ascending in t
        y2 = [u * l0 + v * l1 for u, v in zip(y2 + [0], [0] + y2)]
    # s * sum_i coefs[i] * A**i in Python integers (object arrays: no int64 overflow)
    s = math.lcm(*(Fraction(v).denominator for v in (*k.x, *y2, *k.z, k.j, k.rep)))
    adj = adjacency_matrix(g).astype(np.int64)
    powers = [m.astype(object) for m in (np.eye(g.p, dtype=np.int64), adj, adj @ adj)]
    x, y, one, z = (sum(int(s * v) * pw for v, pw in zip(coefs, powers))
                    for coefs in (k.x, y2, (1,), k.z))
    blk = np.block([[x + int(s * k.j), y], [one, z]])
    want = list(charpoly_exact(blk.tolist(), s))   # det(s*x*I - s*block)
    rep = int(s * k.rep)
    for _ in range(k.count):   # times (s*x - s*rep)
        want = [s * u - rep * v for u, v in zip([0] + want, want + [0])]
    return tuple(v * want[-1] for v in got) == tuple(v * got[-1] for v in want)

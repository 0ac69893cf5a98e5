"""Closed-form spectra for operations applied to regular graphs.

Each formula is written against a named table of structural constants
(the integers that appear in the algebra).  Passing ``coeffs`` overrides
individual constants, which lets the verification harness corrupt a
single constant and confirm the check trips; production callers leave it
None.

``verify_closed_form`` compares a closed form against the numeric
eigensolver and, when the weight is rational and the graph is small
enough, against roots of the exact characteristic polynomial as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .graphs import Graph, adjacency_matrix, component_counts, degree_info
from .linalg import (CHARPOLY_MAX_N, Spectrum, charpoly_exact, make_spectrum,
                     multiset_deviation, poly_roots_real, sym_eigenvalues)
from .ops import OpDescriptor, apply_op, op_label, parse_op
from .spectra import AlphaValue, a_alpha_exact, alpha_spectrum

BASE_TOL = 1e-8


@dataclass(frozen=True)
class RegularBase:
    """Regular graph summary: order, size, degree, adjacency spectrum."""

    p: int
    q: int
    r: int
    base_spectrum: tuple[float, ...]   # non-increasing; r and -r exact
    connected: bool = True

    @classmethod
    def from_graph(cls, g: Graph) -> "RegularBase":
        r = degree_info(g).regular
        if r is None:
            raise ValueError("base graph must be regular")
        # r is an eigenvalue once per component, -r once per bipartite component;
        # pin both, or sqrt(lambda + r) in the closed forms magnifies noise at -r.
        spec = list(sym_eigenvalues(adjacency_matrix(g)).values)
        components, bipartite = component_counts(g)
        for i in [*range(components), *range(len(spec) - bipartite, len(spec))]:
            want = r if i < components else -r
            if abs(spec[i] - want) > BASE_TOL:
                raise ValueError(f"adjacency eigenvalue {spec[i]!r} should be {want}")
            spec[i] = float(want)
        return cls(p=g.p, q=g.q, r=r, base_spectrum=tuple(spec),
                   connected=components == 1)


def _merge(defaults: Mapping[str, float],
           coeffs: Optional[Mapping[str, float]]) -> dict[str, float]:
    out = dict(defaults)
    if coeffs:
        unknown = set(coeffs) - set(out)
        if unknown:
            raise ValueError(f"unknown coefficients: {sorted(unknown)}")
        out.update(coeffs)
    return out


def _pair(x: float, y: float, z: float) -> tuple[float, float]:
    """Eigenvalues of [[x, y], [y, z]]; no subtraction under the root."""
    mid, half = (x + z) / 2.0, math.hypot(x - z, 2.0 * y) / 2.0
    return mid + half, mid - half


MIDDLE_COEFFS: dict[str, float] = {
    "rep_deg": 2.0,     # repeated value 2*a*r ...
    "rep_adj": 2.0,     # ... minus 2*(1-a)
    "edge_deg": 2.0,    # edge-vertex degree 2r
    "edge_shift": 2.0,  # edge-vertex adjacency R^T R - 2I
}


def cf_middle_spectrum(b: RegularBase, a: AlphaValue,
                       coeffs: Optional[Mapping[str, float]] = None) -> Spectrum:
    """Spectrum of M_a(middle(G)) for an r-regular base, r >= 2.

    Per lambda, the block [[a*r, y], [y, 2*a*r + (1-a)*(lambda + r - 2)]]
    with y = (1-a)*sqrt(lambda + r), on x and R^T x (R the incidence
    matrix); the kernel of R adds q - p values 2*a*r - 2*(1-a).
    """
    if b.r < 2:
        raise ValueError(f"middle closed form needs r >= 2, got r={b.r}")
    c = _merge(MIDDLE_COEFFS, coeffs)
    al, w, r = a.numeric, 1.0 - a.numeric, float(b.r)
    vals = [c["rep_deg"] * al * r - c["rep_adj"] * w] * (b.q - b.p)
    for lam in b.base_spectrum:
        vals.extend(_pair(al * r, w * math.sqrt(lam + r),
                          c["edge_deg"] * al * r + w * (lam + r - c["edge_shift"])))
    return make_spectrum(vals)


CENTRAL_COEFFS: dict[str, float] = {
    "rep_gain": 2.0,   # repeated value 2*a
    "edge_deg": 2.0,   # subdivision-vertex degree 2
    "deg_one": 1.0,    # original-vertex degree p - 1
    "comp_one": 1.0,   # complement adjacency J - I - A
    "join": 1.0,       # J is p on the all-ones vector
}


def cf_central_spectrum(b: RegularBase, a: AlphaValue,
                        coeffs: Optional[Mapping[str, float]] = None) -> Spectrum:
    """Spectrum of M_a(central(G)) for a connected r-regular base, r >= 2.

    Per lambda, the block [[a*(p-1) - (1-a)*(lambda + 1), y], [y, 2*a]] with
    y = (1-a)*sqrt(lambda + r), on x and R^T x, plus (1-a)*p in the corner
    from J for the leading lambda = r; the kernel of R adds q - p values 2*a.
    """
    if b.r < 2:
        raise ValueError(f"central closed form needs r >= 2, got r={b.r}")
    if not b.connected:
        raise ValueError("central closed form needs a connected base")
    c = _merge(CENTRAL_COEFFS, coeffs)
    al, w, r, p = a.numeric, 1.0 - a.numeric, float(b.r), float(b.p)
    vals = [c["rep_gain"] * al] * (b.q - b.p)
    for i, lam in enumerate(b.base_spectrum):
        x = al * (p - c["deg_one"]) - w * (lam + c["comp_one"])
        if i == 0:
            x += c["join"] * w * p
        vals.extend(_pair(x, w * math.sqrt(lam + r), c["edge_deg"] * al))
    return make_spectrum(vals)


SPLITTING_COEFFS: dict[str, float] = {
    "orig_one": 1.0,   # original-vertex degree (m + 1)*r
    "clone_deg": 1.0,  # clone degree r
    "rep": 1.0,        # repeated value a*r (m >= 2 only)
}


def cf_splitting_spectrum(b: RegularBase, m: int, a: AlphaValue,
                          coeffs: Optional[Mapping[str, float]] = None) -> Spectrum:
    """Spectrum of M_a(splitting_m(G)) for an r-regular base.

    Per lambda, the block [[a*(m+1)*r + (1-a)*lambda, y], [y, a*r]] with
    y = sqrt(m)*(1-a)*lambda, on x and x spread evenly over the m clone
    layers; the other clone combinations add p*(m-1) values a*r.
    """
    if m < 1:
        raise ValueError(f"splitting closed form needs m >= 1, got {m}")
    c = _merge(SPLITTING_COEFFS, coeffs)
    al, w, r = a.numeric, 1.0 - a.numeric, float(b.r)
    vals = [c["rep"] * al * r] * (b.p * (m - 1))
    for lam in b.base_spectrum:
        vals.extend(_pair(al * (m + c["orig_one"]) * r + w * lam,
                          math.sqrt(m) * w * lam, c["clone_deg"] * al * r))
    return make_spectrum(vals)


CLOSED_SPLITTING_COEFFS: dict[str, float] = {
    "orig_deg": 2.0,    # original-vertex degree 2r + 1
    "orig_one": 1.0,
    "clone_one": 1.0,   # clone degree r + 1
    "match_one": 1.0,   # coupling (1-a)*(lambda + 1)
}


def cf_closed_splitting_spectrum(b: RegularBase, a: AlphaValue,
                                 coeffs: Optional[Mapping[str, float]] = None) -> Spectrum:
    """Spectrum of M_a(closed_splitting(G)) for an r-regular base.

    Per lambda, the block [[a*(2r+1) + (1-a)*lambda, (1-a)*(lambda + 1)],
    [(1-a)*(lambda + 1), a*(r+1)]], on x at the originals and at the clones.
    """
    c = _merge(CLOSED_SPLITTING_COEFFS, coeffs)
    al, w, r = a.numeric, 1.0 - a.numeric, float(b.r)
    return make_spectrum([
        v for lam in b.base_spectrum
        for v in _pair(al * (c["orig_deg"] * r + c["orig_one"]) + w * lam,
                       w * (lam + c["match_one"]), al * (r + c["clone_one"]))])


CLOSED_SHADOW_COEFFS: dict[str, float] = {
    "pair_adj": 2.0,   # 2*(1-a)*lambda
    "pair_deg": 2.0,   # + 2*a*r
    "pair_one": 1.0,   # + 1
    "flat_deg": 2.0,   # repeated 2*a*(r+1)
    "flat_one": 1.0,   # repeated ... - 1
}


def cf_closed_shadow_spectrum(b: RegularBase, a: AlphaValue,
                              coeffs: Optional[Mapping[str, float]] = None) -> Spectrum:
    """Spectrum of M_a(closed_shadow(G)) for an r-regular base."""
    c = _merge(CLOSED_SHADOW_COEFFS, coeffs)
    al, w, r = a.numeric, 1.0 - a.numeric, float(b.r)
    vals = [c["flat_deg"] * al * (r + 1.0) - c["flat_one"]] * b.p
    vals.extend(c["pair_adj"] * w * lam + c["pair_deg"] * al * r + c["pair_one"]
                for lam in b.base_spectrum)
    return make_spectrum(vals)


EBD_COEFFS: dict[str, float] = {
    "deg_one": 1.0,   # centre a*(r + 1)
    "adj_one": 1.0,   # halfwidth (1-a)*(lambda + 1)
}


def cf_ebd_spectrum(b: RegularBase, a: AlphaValue,
                    coeffs: Optional[Mapping[str, float]] = None) -> Spectrum:
    """Spectrum of M_a(ebd(G)) for an r-regular base.

    Per lambda, the block [[a*(r+1), (1-a)*(lambda + 1)],
    [(1-a)*(lambda + 1), a*(r+1)]], on x at both copies.
    """
    c = _merge(EBD_COEFFS, coeffs)
    al, w, r = a.numeric, 1.0 - a.numeric, float(b.r)
    centre = al * (r + c["deg_one"])
    return make_spectrum([v for lam in b.base_spectrum
                          for v in _pair(centre, w * (lam + c["adj_one"]), centre)])


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
    base_energy = math.fsum(abs(v) for v in b.base_spectrum)
    if op.name == "shadow":
        if op.param < 2:
            raise ValueError("shadow energy identity needs m >= 2")
        return op.param * w * base_energy
    if op.name == "duplicate":
        if op.param < 1:
            raise ValueError("duplicate energy identity needs m >= 1")
        return (2 ** op.param) * w * base_energy
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


# ----------------------------------------------------------------------
# verification against the two oracles

# Places where the implemented algebra deviates from its printed source.
PAPER_DEVIATIONS: dict[str, str] = {
    "splitting": ("discriminant leading term is (a*r*m)^2; the printed form "
                  "has (a*r*(m+2))^2, which fails the numeric oracle"),
    "central": ("constant term uses (2p - r)*a^2, reading the printed "
                "'2n - r' with n = p"),
}

_CF_DISPATCH = {
    "middle": lambda b, m, a, coeffs: cf_middle_spectrum(b, a, coeffs),
    "central": lambda b, m, a, coeffs: cf_central_spectrum(b, a, coeffs),
    "splitting": lambda b, m, a, coeffs: cf_splitting_spectrum(b, m, a, coeffs),
    "closed-splitting": lambda b, m, a, coeffs: cf_closed_splitting_spectrum(b, a, coeffs),
    "closed-shadow": lambda b, m, a, coeffs: cf_closed_shadow_spectrum(b, a, coeffs),
    "ebd": lambda b, m, a, coeffs: cf_ebd_spectrum(b, a, coeffs),
}

CLOSED_FORM_OPS = tuple(_CF_DISPATCH)

# What the batteries check: every operation, with splitting at m = 1, 2, 3.
CLOSED_FORM_INSTANCES = ("middle", "central", "splitting:1", "splitting:2",
                         "splitting:3", "closed-splitting", "closed-shadow", "ebd")

COEFF_TABLES: dict[str, dict[str, float]] = {
    "middle": MIDDLE_COEFFS,
    "central": CENTRAL_COEFFS,
    "splitting": SPLITTING_COEFFS,
    "closed-splitting": CLOSED_SPLITTING_COEFFS,
    "closed-shadow": CLOSED_SHADOW_COEFFS,
    "ebd": EBD_COEFFS,
}


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


def verify_closed_form(op: OpDescriptor | str, g: Graph, a: AlphaValue,
                       tol: float = 1e-8,
                       coeffs: Optional[Mapping[str, float]] = None,
                       exact: Optional[bool] = None,
                       base_id: Optional[str] = None) -> VerificationRecord:
    """Compare a closed-form spectrum against independently computed ones.

    The numeric oracle always runs.  The exact oracle (rational
    characteristic polynomial) runs when ``exact`` is True, or by default
    whenever alpha is rational and the operated graph is small enough.
    """
    if isinstance(op, str):
        op = parse_op(op)
    if op.name not in _CF_DISPATCH:
        raise ValueError(f"no closed form for operation {op.name!r}")
    b = RegularBase.from_graph(g)
    cf = _CF_DISPATCH[op.name](b, op.param, a, coeffs)
    operated = apply_op(op, g)
    numeric_dev = multiset_deviation(cf.values, alpha_spectrum(operated, a).values)
    dev, exact_dev = numeric_dev, None
    if exact is None:
        exact = a.exact is not None and operated.p <= CHARPOLY_MAX_N
    if exact:
        roots = poly_roots_real(charpoly_exact(a_alpha_exact(operated, a)))
        exact_dev = multiset_deviation(cf.values, roots)
        dev = max(dev, exact_dev)
    return VerificationRecord(
        op=op_label(op),
        base=base_id if base_id is not None else f"graph(p={g.p},q={g.q})",
        alpha=a.numeric,
        max_dev=dev,
        passed=dev <= tol,
        numeric_dev=numeric_dev,
        paper_deviation=PAPER_DEVIATIONS.get(op.name),
        exact_dev=exact_dev)

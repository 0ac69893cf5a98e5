"""Convex degree/adjacency matrix pencils and their energies.

For a graph G and weight a in [0, 1] the matrix is

    M_a(G) = a*D(G) + (1-a)*A(G)

and for a < 1 the energy is sum_i |lambda_i(M_a) - 2*a*q/p|, i.e.
deviations are measured from the average diagonal value.  For an r-regular
graph M_a = a*r*I + (1-a)*A, so its eigenvalues are a*r + (1-a)*lambda_i(A),
the offset is a*r, and the energy is (1-a)*E(A).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .graphs import DIGITS, Graph, adjacency_matrix, degree_info
from .linalg import Spectrum, sym_eigenvalues

_DECIMAL_RE = re.compile(rf"{DIGITS}(\.{DIGITS})?")
EXACT_MAX_DENOMINATOR = 10**15   # every decimal of up to 15 places


def plain_decimal(text: str) -> Fraction:
    """The exact value of ``DIGITS``, optionally followed by a point and more
    ``DIGITS``.  Signs, blanks, exponents and a bare point are refused."""
    if not _DECIMAL_RE.fullmatch(text):
        raise ValueError(f"alpha must be a plain decimal, got {text!r}")
    return Fraction(Decimal(text))   # Fraction(str) stops at 4300 digits


@dataclass(frozen=True)
class AlphaValue:
    """Weight in [0, 1]; carries an exact rational when one is known."""

    numeric: float
    exact: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.numeric <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.numeric}")
        if self.exact is not None and float(self.exact) != self.numeric:
            raise ValueError("exact alpha disagrees with numeric value")

    @classmethod
    def parse(cls, text: str) -> "AlphaValue":
        """Parse a plain decimal string; exact as ``from_fraction`` decides."""
        return cls.from_fraction(plain_decimal(text))

    @classmethod
    def from_fraction(cls, fr: Fraction | int) -> "AlphaValue":
        """The weight ``fr``, exact if and only if its reduced denominator is at
        most ``EXACT_MAX_DENOMINATOR``.  That bounds the exact route's work
        before it starts; a finer weight is below its float's precision."""
        fr = Fraction(fr)
        exact = fr if fr.denominator <= EXACT_MAX_DENOMINATOR else None
        return cls(numeric=float(fr), exact=exact)


def a_alpha_matrix(g: Graph, a: AlphaValue) -> np.ndarray:
    deg = np.array(degree_info(g).degrees, dtype=float)
    m = (1.0 - a.numeric) * adjacency_matrix(g)
    m[np.diag_indices(g.p)] += a.numeric * deg
    return m


def a_alpha_exact(g: Graph, a: AlphaValue) -> tuple[list[list[int]], int]:
    """The same matrix as (N, d) in Python integers, M_a = N / d: at a = t/d,
    N = t*D + (d - t)*A.  Needs an exact alpha."""
    if a.exact is None:
        raise ValueError("exact matrix needs a rational alpha")
    t, d = a.exact.numerator, a.exact.denominator
    deg = degree_info(g).degrees
    rows = [[0] * g.p for _ in range(g.p)]
    for v in range(g.p):
        rows[v][v] = t * deg[v]
    for i, j in g.edges:
        rows[i][j] = rows[j][i] = d - t
    return rows, d


def alpha_spectrum(g: Graph, a: AlphaValue) -> Spectrum:
    return sym_eigenvalues(a_alpha_matrix(g, a))


class EnergyReport(NamedTuple):
    graph_id: str
    alpha: AlphaValue
    p: int
    q: int
    offset: float
    eigenvalues: Spectrum
    energy: float


def _check_energy(g: Graph, alphas: Sequence[AlphaValue]) -> None:
    if any(a.numeric >= 1.0 for a in alphas):
        raise ValueError("energy is defined for alpha < 1 only")
    if g.p < 1:
        raise ValueError("energy needs at least one vertex")


def alpha_energy(g: Graph, a: AlphaValue, graph_id: Optional[str] = None) -> EnergyReport:
    """Energy report for one graph and one weight; rejects a = 1."""
    _check_energy(g, (a,))
    spec = alpha_spectrum(g, a)
    offset = 2.0 * a.numeric * g.q / g.p
    energy = math.fsum(abs(v - offset) for v in spec.values)
    return EnergyReport(
        graph_id=graph_id if graph_id is not None else f"graph(p={g.p},q={g.q})",
        alpha=a, p=g.p, q=g.q, offset=offset,
        eigenvalues=spec, energy=energy)


def alpha_energies(g: Graph, alphas: Sequence[AlphaValue]) -> tuple[float, ...]:
    """Energies of g at each weight, all weights checked before any solve.
    A regular graph takes one adjacency solve, as E_a = (1-a)*E(A); any
    other graph takes one alpha_energy per weight."""
    _check_energy(g, alphas)
    if degree_info(g).regular is None:
        return tuple(alpha_energy(g, a).energy for a in alphas)
    e = math.fsum(abs(v) for v in sym_eigenvalues(adjacency_matrix(g)).values)
    return tuple((1.0 - a.numeric) * e for a in alphas)

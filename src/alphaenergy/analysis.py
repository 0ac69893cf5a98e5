"""Energy comparisons: reference values, classification, sweep tables.

The complete graph K_n is the yardstick: its energy is 2*(n-1)*(1-a).
A graph on n vertices is borderenergetic when it matches that value
within tolerance without being K_n itself, and hyperenergetic when it
exceeds it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Optional, Sequence

from .graphs import Graph, complete, complete_bipartite, cycle
from .ops import (closed_shadow_graph, closed_splitting_graph, duplicate_graph,
                  ebd_graph, shadow_graph, splitting_graph)
from .spectra import AlphaValue, EnergyReport, alpha_energies, alpha_energy

DEFAULT_TOL = 1e-6


def reference_energy(n: int, a: AlphaValue) -> float:
    """Energy of K_n: 2*(n-1)*(1-a)."""
    if n < 1:
        raise ValueError(f"reference needs n >= 1, got {n}")
    return 2.0 * (n - 1) * (1.0 - a.numeric)


def _verdict(energy: float, reference: float, tol: float) -> str:
    """Borderenergetic within ``tol`` of the K_n reference, else
    hyperenergetic above it, else neither."""
    if abs(energy - reference) <= tol:
        return "borderenergetic"
    return "hyperenergetic" if energy > reference + tol else "neither"


@dataclass(frozen=True)
class ClassificationResult:
    graph_id: str
    alpha: float
    energy: float
    reference: float
    verdict: str                      # "borderenergetic" | "hyperenergetic" | "neither"
    equal_partners: tuple[str, ...]   # peers with energy within tolerance


def classify(g: Graph, a: AlphaValue,
             peers: Sequence[tuple[str, Graph]] = (),
             tol: float = DEFAULT_TOL,
             graph_id: Optional[str] = None) -> ClassificationResult:
    """Compare a graph's energy against K_n on the same order and against peers.

    Borderenergetic takes precedence over hyperenergetic when the energy
    sits within tolerance of the reference; K_n itself is neither.
    """
    rep = alpha_energy(g, a, graph_id=graph_id)
    ref = reference_energy(g.p, a)
    complete_graph = g.q == g.p * (g.p - 1) // 2
    verdict = "neither" if complete_graph else _verdict(rep.energy, ref, tol)
    partners = tuple(
        label for label, peer in peers
        if abs(alpha_energy(peer, a).energy - rep.energy) <= tol)
    return ClassificationResult(
        graph_id=rep.graph_id, alpha=a.numeric, energy=rep.energy,
        reference=ref, verdict=verdict, equal_partners=partners)


# ----------------------------------------------------------------------
# sweep tables

@dataclass(frozen=True)
class SweepTable:
    """Energies of several graphs over a shared weight grid."""

    row_labels: tuple[str, ...]
    alphas: tuple[AlphaValue, ...]
    cells: tuple[tuple[float, ...], ...]   # cells[row][col], full precision


def sweep_table(rows: Sequence[tuple[str, Graph]],
                alphas: Sequence[AlphaValue]) -> SweepTable:
    # tuple([...]), not tuple(<generator>): a generator's tuple is built
    # oversized and shrunk, which leaves a block on CPython's free list
    cells = tuple([alpha_energies(g, alphas) for _, g in rows])
    return SweepTable(row_labels=tuple([label for label, _ in rows]),
                      alphas=tuple(alphas), cells=cells)


def tenth_grid() -> tuple[AlphaValue, ...]:
    """The standard weight grid 0.0, 0.1, ..., 0.9."""
    return tuple(AlphaValue.from_fraction(Fraction(k, 10)) for k in range(10))


def table1_rows() -> list[tuple[str, Graph]]:
    """Row families for the headline energy table."""
    rows: list[tuple[str, Graph]] = []
    for label, g, n in (("C4", cycle(4), 8), ("C5", cycle(5), 10),
                        ("C6", cycle(6), 12), ("K3,3", complete_bipartite(3, 3), 12)):
        kn = ("K%d" % n, complete(n))
        if kn[0] not in {lbl for lbl, _ in rows}:
            rows.append(kn)
        rows.append((f"Spl({label})", splitting_graph(g, 1)))
        rows.append((f"Lambda({label})", closed_splitting_graph(g)))
        rows.append((f"D2[{label}]", closed_shadow_graph(g)))
        rows.append((f"Ebd({label})", ebd_graph(g)))
        rows.append((f"D2({label})", shadow_graph(g, 2)))
        rows.append((f"D({label})", duplicate_graph(g, 1)))
    return rows


def table1() -> SweepTable:
    """Headline energy sweep: splitting/closed-splitting/closed-shadow/ebd/
    shadow/duplicate of C4, C5, C6 and K3,3 next to matching complete graphs."""
    return sweep_table(table1_rows(), tenth_grid())


def _fmt4(x: float) -> str:
    """Fixed 4-decimal formatting, ties away from zero."""
    return str(Decimal(repr(x)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def _alpha_label(a: AlphaValue) -> str:
    return f"alpha_{a.numeric!r}"


def format_csv(table: SweepTable) -> str:
    """CSV rendering: header 'graph,alpha_...', cells at 4 decimals."""
    lines = ["graph," + ",".join(_alpha_label(a) for a in table.alphas)]
    for label, row in zip(table.row_labels, table.cells):
        lines.append(label + "," + ",".join(_fmt4(x) for x in row))
    return "\n".join(lines) + "\n"


def format_table_json(table: SweepTable) -> str:
    out = {
        "alphas": [a.numeric for a in table.alphas],
        "rows": [{"graph": label, "energies": list(row)}
                 for label, row in zip(table.row_labels, table.cells)],
    }
    return json.dumps(out, indent=2) + "\n"


def energy_report_json(rep: EnergyReport, regular: Optional[int]) -> str:
    out = {
        "graph": {"id": rep.graph_id, "p": rep.p, "q": rep.q, "regular": regular},
        "alpha": rep.alpha.numeric,
        "offset": rep.offset,
        "eigenvalues": [{"value": v, "multiplicity": m}
                        for v, m in rep.eigenvalues.groups],
        "energy": rep.energy,
    }
    return json.dumps(out, indent=2) + "\n"


# ----------------------------------------------------------------------
# observation battery

@dataclass(frozen=True)
class BulletResult:
    key: str
    description: str
    passed: bool
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class ObservationsReport:
    tol: float
    bullets: tuple[BulletResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(b.passed for b in self.bullets)


def observations_report(tol: float = DEFAULT_TOL) -> ObservationsReport:
    """Check the headline equienergetic/borderenergetic/hyperenergetic claims
    over the 0.0..0.9 weight grid, on table1's rows and the closed shadows of
    K_{p,p}.  Each graph is solved once, and only if a bullet reads it; the
    splitting rows only at the weights >= 0.3 that their bullet reads."""
    grid = tenth_grid()
    upper = tuple(a for a in grid if a.numeric >= 0.3)
    bases = ("C4", "C5", "C6", "K3,3")
    graphs = dict(table1_rows())
    graphs.update((f"D2[K{p},{p}]", closed_shadow_graph(complete_bipartite(p, p)))
                  for p in (2, 4, 5))

    def weights(label: str) -> tuple[AlphaValue, ...]:
        return upper if label.startswith("Spl(") else grid

    @functools.cache
    def energies(label: str) -> tuple[float, ...]:
        return alpha_energies(graphs[label], weights(label))

    def same(x: str, *others: str) -> list[str]:
        """Where another graph's energy differs from x's."""
        return [f"{x} vs {y} alpha={a.numeric}: gap {abs(ex - ey):.3e}"
                for y in others
                for a, ex, ey in zip(grid, energies(x), energies(y))
                if abs(ex - ey) > tol]

    def verdict(want: str, *labels: str) -> list[str]:
        """Where a graph's verdict against K_n on its own order is not want."""
        fails = []
        for label in labels:
            n = graphs[label].p
            for a, e in zip(weights(label), energies(label)):
                ref = reference_energy(n, a)
                got = _verdict(e, ref, tol)
                if got != want:
                    fails.append(
                        f"{label} alpha={a.numeric}: {got} (energy {e:.4f}, reference {ref:.4f})"
                        if want == "hyperenergetic" else
                        f"{label} vs K{n} alpha={a.numeric}: gap {abs(e - ref):.3e}")
        return fails

    checks = (
        ("shadow2-equals-duplicate",
         "two-fold shadow and duplicate are equienergetic for every weight",
         [f for b in bases for f in same(f"D2({b})", f"D({b})")]),
        ("closed-shadow-c4-borderenergetic",
         "closed shadow of C4 matches the K8 energy for every weight",
         verdict("borderenergetic", "D2[C4]")),
        ("closed-shadow-c6-k33",
         "closed shadows of C6 and K3,3 are equienergetic and both match K12",
         same("D2[C6]", "D2[K3,3]") + verdict("borderenergetic", "D2[C6]", "D2[K3,3]")),
        ("ebd-c6-equienergetic",
         "extended bipartite double of C6 matches shadow and duplicate of C6",
         same("Ebd(C6)", "D2(C6)", "D(C6)")),
        ("closed-shadow-kpp-borderenergetic",
         "closed shadow of K_{p,p} matches the K_{4p} energy (p=2..5)",
         verdict("borderenergetic", *(f"D2[K{p},{p}]" for p in range(2, 6)))),
        ("splitting-hyperenergetic",
         "one-fold splitting is hyperenergetic for weights >= 0.3",
         verdict("hyperenergetic", *(f"Spl({b})" for b in bases))),
    )
    return ObservationsReport(tol=tol, bullets=tuple(
        BulletResult(key=key, description=description, passed=not fails,
                     failures=tuple(fails))
        for key, description, fails in checks))

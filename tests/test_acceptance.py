"""Acceptance battery: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
Reference energies live here frozen at the published 4-decimal precision,
next to the documented corrections of the published one-fold splitting rows
(README, "Reference data discrepancies"); comparisons are at ±5e-4.
"""

from __future__ import annotations

import math
import random
import re
import time
from fractions import Fraction

import pytest

from alphaenergy import (CLOSED_FORMS, AlphaValue, RegularBase, alpha,
                         alpha_energy, alpha_spectrum, a_alpha_exact,
                         apply_op, cf_remark_energies, charpoly_exact,
                         complete, complete_bipartite, cycle, degree_info,
                         duplicate_graph, iterated_line_graph,
                         multiset_deviation, observations_report, parse_op,
                         petersen, poly_roots_real, reference_energy,
                         shadow_graph, splitting_graph, table1, tenth_grid,
                         verify_closed_form)
from alphaenergy.closed_forms import CLOSED_FORM_INSTANCES
from conftest import (corrupt_coefficient, printed_splitting_spectrum, random_graph,
                      regular_bases)

# ----------------------------------------------------------------------
# frozen reference data (4-decimal published values, 10 columns = the
# weight grid 0.0 .. 0.9)

REFERENCE_TABLE: list[tuple[str, tuple[float, ...]]] = [
    ("K8", (14, 12.6, 11.2, 9.8, 8.4, 7, 5.6, 4.2, 2.8, 1.4)),
    ("Spl(C4)", (8.9443, 9.3369, 9.9395, 10.8071, 11.9801, 13.4641,
                 15.2257, 17.2099, 19.3617, 21.6362)),
    ("Lambda(C4)", (13.153, 11.7889, 10.4985, 9.3106, 8.2676, 7.434,
                    6.903, 6.737, 6.8958, 7.3227)),
    ("D2[C4]", (14, 12.6, 11.2, 9.8, 8.4, 7, 5.6, 4.2, 2.8, 1.4)),
    ("Ebd(C4)", (12, 10.8, 9.6, 8.4, 7.2, 6, 4.8, 3.6, 2.4, 1.2)),
    ("D2(C4)", (8, 7.2, 6.4, 5.6, 4.8, 4, 3.2, 2.4, 1.6, 0.8)),
    ("D(C4)", (8, 7.2, 6.4, 5.6, 4.8, 4, 3.2, 2.4, 1.6, 0.8)),
    ("K10", (18, 16.2, 14.4, 12.6, 10.8, 9, 7.2, 5.4, 3.6, 1.8)),
    ("Spl(C5)", (14.4721, 13.5192, 13.3638, 13.9305, 15.1374, 16.8829,
                 19.0463, 21.5154, 24.2026, 27.0452)),
    ("Lambda(C5)", (16.986, 15.1326, 13.3447, 11.8961, 10.5946, 9.3861,
                    8.4907, 8.3826, 8.6148, 9.1532)),
    ("D2[C5]", (18.9443, 17.0498, 15.1554, 13.261, 11.3666, 9.4721,
                7.5777, 5.6833, 3.7889, 1.8944)),
    ("Ebd(C5)", (14.9443, 13.4498, 11.9554, 10.461, 8.9666, 7.4721,
                 5.9777, 4.4833, 2.9889, 1.4944)),
    ("D2(C5)", (12.9442, 11.6498, 10.3554, 9.0609, 7.7665, 6.4721,
                5.1777, 3.8833, 2.5888, 1.2944)),
    ("D(C5)", (12.9442, 11.6498, 10.3554, 9.0609, 7.7665, 6.4721,
               5.1777, 3.8833, 2.5888, 1.2944)),
    ("K12", (22, 19.8, 17.6, 15.4, 13.2, 11, 8.8, 6.6, 4.4, 2.2)),
    ("Spl(C6)", (17.8885, 16.5299, 16.1352, 16.7224, 18.156, 20.2551,
                 22.8544, 25.8183, 29.043, 32.4543)),
    ("Lambda(C6)", (19.3992, 17.4954, 15.6352, 13.8385, 12.1401, 10.6056,
                    10.144, 10.0525, 10.3368, 10.9838)),
    ("D2[C6]", (22, 19.8, 17.6, 15.4, 13.2, 11, 8.8, 6.6, 4.4, 2.2)),
    ("Ebd(C6)", (16, 14.4, 12.8, 11.2, 9.6, 8, 6.4, 4.8, 3.2, 1.6)),
    ("D2(C6)", (16, 14.4, 12.8, 11.2, 9.6, 8, 6.4, 4.8, 3.2, 1.6)),
    ("D(C6)", (16, 14.4, 12.8, 11.2, 9.6, 8, 6.4, 4.8, 3.2, 1.6)),
    ("Spl(K3,3)", (13.4164, 15.8053, 18.5093, 21.6107, 25.1702, 29.1962,
                   33.6385, 38.4149, 43.4426, 48.6542)),
    ("Lambda(K3,3)", (21.544, 19.426, 17.575, 16.0566, 14.9225, 14.2111,
                      13.9742, 14.2751, 15.1022, 16.3675)),
    ("D2[K3,3]", (22, 19.8, 17.6, 15.4, 13.2, 11, 8.8, 6.6, 4.4, 2.2)),
    ("Ebd(K3,3)", (20, 18, 16, 14, 12, 10, 8, 6, 4, 2)),
    ("D2(K3,3)", (12, 10.8, 9.6, 8.4, 7.2, 6, 4.8, 3.6, 2.4, 1.2)),
    ("D(K3,3)", (12, 10.8, 9.6, 8.4, 7.2, 6, 4.8, 3.6, 2.4, 1.2)),
]

# The published one-fold splitting rows follow a closed form whose
# discriminant leads with (alpha*r*(m+2))^2 where the algebra gives
# (alpha*r*m)^2.  The two agree at alpha = 0, so only the cells at
# alpha = 0.1 .. 0.9 are wrong.  The corrected values below are energies of
# the explicit block adjacency [[A, A], [A, 0]] from numpy eigvalsh, rounded
# to the table's 4 decimals; keys are (row, alpha).
SPLITTING_ERRATA: dict[tuple[str, float], float] = {
    (label, k / 10): value
    for label, row in (
        ("Spl(C4)", (8.4578, 7.9912, 7.5530, 7.1572, 6.8284, 6.6105,
                     6.5746, 6.7963, 7.2889)),
        ("Spl(C5)", (13.1522, 11.9183, 10.7894, 9.7943, 8.9821, 8.4350,
                     8.2563, 8.4988, 9.1111)),
        ("Spl(C6)", (16.1394, 14.4897, 12.9811, 11.6781, 10.6700, 10.0509,
                     9.8861, 10.1961, 10.9333)),
        ("Spl(K3,3)", (13.2867, 13.1868, 13.1295, 13.1358, 13.2426, 13.5157,
                       14.0619, 14.9944, 16.3333)),
    )
    for k, value in enumerate(row, start=1)
}

SPLITTING_BASES = {"Spl(C4)": cycle(4), "Spl(C5)": cycle(5),
                   "Spl(C6)": cycle(6), "Spl(K3,3)": complete_bipartite(3, 3)}

# (row, alpha) cases where the claim "one-fold splitting is hyperenergetic
# for alpha >= 0.3" fails against the computed energies.  The published
# values of these cells exceed the K_p energy, so the claim rests on the
# misprint.  The closest computed case, Spl(C5) at 0.5, sits 0.0179 below
# K_10, far outside the battery's 1e-6 tolerance.
SPLITTING_NOT_HYPERENERGETIC = frozenset({
    ("Spl(C4)", 0.3), ("Spl(C4)", 0.4), ("Spl(C4)", 0.5),
    ("Spl(C5)", 0.3), ("Spl(C5)", 0.4), ("Spl(C5)", 0.5),
    ("Spl(C6)", 0.3), ("Spl(C6)", 0.4), ("Spl(C6)", 0.5),
    ("Spl(K3,3)", 0.3), ("Spl(K3,3)", 0.4),
})

# closed forms for middle/central need degree >= 2
PRECONDITION_SKIPS = {("middle", "K2"), ("central", "K2")}


def _status(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}")


def _published_cells() -> dict[tuple[str, float], float]:
    return {(label, a.numeric): value
            for label, row in REFERENCE_TABLE
            for a, value in zip(tenth_grid(), row)}


def _misprinted_splitting_energy(g, a: AlphaValue) -> float:
    """Energy of Spl(g) from the closed form with the printed discriminant."""
    spl = splitting_graph(g, 1)
    offset = 2.0 * a.numeric * spl.q / spl.p
    return math.fsum(abs(v - offset) for v in printed_splitting_spectrum(g, 1, a))


def test_criterion_1_reference_table():
    t0 = time.perf_counter()
    got = table1()
    elapsed = time.perf_counter() - t0
    assert list(got.row_labels) == [label for label, _ in REFERENCE_TABLE]
    mismatches = []
    documented = 0
    worst = 0.0
    for (label, published_row), have_row in zip(REFERENCE_TABLE, got.cells):
        for a, published, have in zip(got.alphas, published_row, have_row):
            corrected = SPLITTING_ERRATA.get((label, a.numeric))
            want = published if corrected is None else corrected
            diff = abs(have - want)
            worst = max(worst, diff)
            if diff > 5e-4:
                mismatches.append(
                    f"{label} alpha={a.numeric}: computed {have:.4f}, "
                    f"{'published' if corrected is None else 'corrected'} "
                    f"{want:.4f}")
            if corrected is None:
                continue
            documented += 1
            misprint = _misprinted_splitting_energy(SPLITTING_BASES[label], a)
            if abs(published - misprint) > 5e-4 or abs(corrected - published) <= 5e-4:
                mismatches.append(
                    f"{label} alpha={a.numeric}: erratum unexplained, "
                    f"published {published:.4f}, misprinted form "
                    f"{misprint:.4f}, corrected {corrected:.4f}")
    ok = (not mismatches and documented == len(SPLITTING_ERRATA) == 36
          and elapsed < 30.0)
    _status(1, ok,
            f"reference energy table, 27 rows x 10 columns, "
            f"{documented} documented errata, {len(mismatches)} new "
            f"mismatches, worst |diff| {worst:.3e}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert documented == len(SPLITTING_ERRATA) == 36
    assert not mismatches, (
        f"{len(mismatches)} cells disagree with their frozen values:\n"
        + "\n".join(mismatches))


def test_criterion_2_closed_forms_vs_numeric_oracle():
    t0 = time.perf_counter()
    grid = [AlphaValue(numeric=t) for t in (0, 0.25, 0.5, 0.75)]   # numeric oracle only
    failures = []
    checked = 0
    for op_text in CLOSED_FORM_INSTANCES:
        op = parse_op(op_text)
        for label, g in regular_bases():
            if (op.name, label) in PRECONDITION_SKIPS:
                with pytest.raises(ValueError):
                    verify_closed_form(op, g, grid[0])
                continue
            for a in grid:
                rec = verify_closed_form(op, g, a, tol=1e-8, base_id=label)
                checked += 1
                if not rec.passed:
                    failures.append(f"{op_text} on {label} alpha={a.numeric}: "
                                    f"dev {rec.max_dev:.3e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _status(2, ok,
            f"closed-form spectra vs numeric eigensolver, {checked} checks "
            f"<= 1e-8, {len(failures)} failures, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert not failures, "\n".join(failures)


def test_criterion_3_exact_oracle_agreement():
    t0 = time.perf_counter()
    jobs: list[tuple[str, object]] = list(regular_bases())
    seen = {g for _, g in jobs}
    for op_text in CLOSED_FORM_INSTANCES:
        op = parse_op(op_text)
        for label, g in regular_bases():
            if (op.name, label) in PRECONDITION_SKIPS:
                continue
            og = apply_op(op, g)
            if og.p <= 32 and og not in seen:
                seen.add(og)
                jobs.append((f"{op_text}({label})", og))
    grid = [AlphaValue.from_fraction(f)
            for f in (Fraction(0), Fraction(1, 4), Fraction(1, 2))]
    failures = []
    for label, g in jobs:
        for a in grid:
            roots = poly_roots_real(charpoly_exact(*a_alpha_exact(g, a)))
            numeric = alpha_spectrum(g, a).values
            dev = multiset_deviation(roots, numeric)
            if dev > 1e-6:
                failures.append(f"{label} alpha={a.numeric}: dev {dev:.3e}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    _status(3, ok,
            f"rational charpoly roots vs eigensolver, {len(jobs)} graphs "
            f"(<= 32 vertices) x 3 weights <= 1e-6, {len(failures)} failures, "
            f"{elapsed:.1f}s")
    assert not failures, "\n".join(failures)


def test_criterion_4_energy_identities():
    t0 = time.perf_counter()
    grid = tenth_grid()
    bases = [("C4", cycle(4)), ("C6", cycle(6)), ("K4", complete(4)),
             ("petersen", petersen())]
    failures = []

    for label, g in bases:
        b = RegularBase.from_graph(g)
        for m in (2, 3):
            sg = shadow_graph(g, m)
            for a in grid:
                want = cf_remark_energies(b, f"shadow:{m}", a)
                got = alpha_energy(sg, a).energy
                if abs(got - want) > 1e-9:
                    failures.append(f"shadow:{m}({label}) alpha={a.numeric}")
        for m in (1, 2, 3):
            dg = duplicate_graph(g, m)
            for a in grid:
                want = cf_remark_energies(b, f"duplicate:{m}", a)
                got = alpha_energy(dg, a).energy
                if abs(got - want) > 1e-9:
                    failures.append(f"duplicate:{m}({label}) alpha={a.numeric}")

    line_cases = [("K4", complete(4), 2), ("K4", complete(4), 3),
                  ("petersen", petersen(), 2)]
    for label, g, k in line_cases:
        b = RegularBase.from_graph(g)
        lg = iterated_line_graph(g, k)
        for a in grid:
            want = cf_remark_energies(b, f"line:{k}", a)
            got = alpha_energy(lg, a).energy
            if abs(got - want) > 1e-6:
                failures.append(f"line:{k}({label}) alpha={a.numeric}: "
                                f"{got:.8f} vs {want:.8f}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    _status(4, ok,
            f"shadow/duplicate/iterated-line energy identities over the "
            f"tenth grid, {len(failures)} failures, {elapsed:.1f}s")
    assert not failures, "\n".join(failures)


def test_criterion_5_observation_battery():
    t0 = time.perf_counter()
    rep = observations_report(tol=1e-6)
    elapsed = time.perf_counter() - t0
    for b in rep.bullets:
        print(f"    bullet {b.key}: {'pass' if b.passed else 'FAIL'}"
              + (f" ({len(b.failures)} cases)" if b.failures else ""))
    bullets = {b.key: b for b in rep.bullets}
    splitting = bullets.pop("splitting-hyperenergetic")
    broken = [key for key, b in bullets.items() if not b.passed]

    cases, new = set(), []
    for failure in splitting.failures:
        m = re.match(r"(Spl\([^)]+\)) alpha=([0-9.]+):", failure)
        case = (m[1], float(m[2])) if m else None
        if case in SPLITTING_NOT_HYPERENERGETIC:
            cases.add(case)
        else:
            new.append(failure)
    missing = sorted(SPLITTING_NOT_HYPERENERGETIC - cases)

    published = _published_cells()
    unexplained = [
        f"{label} alpha={al}" for label, al in sorted(SPLITTING_NOT_HYPERENERGETIC)
        if not published[label, al]
        > reference_energy(splitting_graph(SPLITTING_BASES[label], 1).p,
                           alpha(al)) + rep.tol]

    print("    documented failing cases: "
          + ", ".join(f"{label} alpha={al}" for label, al in sorted(cases)))
    print(f"    new failing cases: {', '.join(new) or 'none'}")
    ok = (len(rep.bullets) == 6 and not broken and not new and not missing
          and not unexplained)
    _status(5, ok,
            f"observation battery at tol 1e-6, {len(bullets) - len(broken)}/5 "
            f"claims hold, splitting-hyperenergetic: {len(cases)} documented "
            f"and {len(new)} new failing cases, {elapsed:.1f}s")
    assert len(rep.bullets) == 6
    assert not broken, (
        "bullets failing against computed energies: " + ", ".join(
            f"{key} ({len(bullets[key].failures)} cases, first: "
            f"{bullets[key].failures[0]})" for key in broken))
    assert not new, "new splitting-hyperenergetic failures: " + "; ".join(new)
    assert not missing, f"documented failing cases now hold: {missing}"
    assert not unexplained, (
        "documented cases not hyperenergetic by their published values: "
        + ", ".join(unexplained))


def test_criterion_6_property_suite():
    t0 = time.perf_counter()
    failures = []

    rng = random.Random(20260817)
    herd = [random_graph(rng, max_p=30) for _ in range(200)]
    grid = [alpha(t) for t in ("0", "0.25", "0.5", "0.75", "0.9")]
    for i, g in enumerate(herd):
        for a in grid:
            spec = alpha_spectrum(g, a)
            err = abs(math.fsum(spec.values) - 2 * a.numeric * g.q)
            if err > 1e-9:
                failures.append(f"trace: graph #{i} alpha={a.numeric}: {err:.3e}")

    small = [random_graph(rng, max_p=14) for _ in range(50)]
    for i, g in enumerate(small):
        base = alpha_spectrum(g, alpha("0")).values
        dup = alpha_spectrum(duplicate_graph(g, 1), alpha("0")).values
        want = sorted([x for x in base] + [-x for x in base], reverse=True)
        if multiset_deviation(dup, want) > 1e-8:
            failures.append(f"duplicate symmetry: graph #{i}")

    for i, g in enumerate(small):
        pair_sum = sum(math.comb(d, 2) for d in degree_info(g).degrees)
        want = {
            "middle": 2 * g.q + pair_sum,
            "central": g.q + math.comb(g.p, 2),
            "splitting:2": 5 * g.q,
            "closed-splitting": 3 * g.q + g.p,
            "shadow:2": 4 * g.q,
            "closed-shadow": 4 * g.q + g.p,
            "ebd": 2 * g.q + g.p,
            "line:1": pair_sum,
            "duplicate:1": 2 * g.q,
        }
        for op_text, expect in want.items():
            got = apply_op(parse_op(op_text), g).q
            if got != expect:
                failures.append(f"edge count: {op_text} on graph #{i}: "
                                f"{got} != {expect}")

    for label, g in regular_bases():
        e0 = alpha_energy(g, alpha("0")).energy
        for a in tenth_grid():
            got = alpha_energy(g, a).energy
            if abs(got - (1 - a.numeric) * e0) > 1e-9:
                failures.append(f"regular identity: {label} alpha={a.numeric}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _status(6, ok,
            f"property suite (trace x1000, duplicate symmetry x50, edge "
            f"counts x50x9, regular identity x190), {len(failures)} failures, "
            f"{elapsed:.1f}s")
    assert elapsed < 60.0
    assert not failures, "\n".join(failures[:20])


def test_criterion_7_negative_control(monkeypatch):
    t0 = time.perf_counter()
    probes = {"middle": "middle", "central": "central",
              "splitting": "splitting:2", "closed-splitting": "closed-splitting",
              "closed-shadow": "closed-shadow", "ebd": "ebd"}
    bases = [("C4", cycle(4)), ("C5", cycle(5)), ("K4", complete(4)),
             ("K3,3", complete_bipartite(3, 3)), ("petersen", petersen())]
    grid = [AlphaValue(numeric=t) for t in (0, 0.25, 0.5, 0.75)]   # numeric oracle only
    undetected = []
    checked = 0
    for op_name, op_text in probes.items():
        for coeff, default in CLOSED_FORMS[op_name].coeffs.items():
            checked += 1
            caught = False
            with monkeypatch.context() as mp:
                corrupt_coefficient(mp, op_name, coeff, default + 1e-3)
                for _, g in bases:
                    for a in grid:
                        rec = verify_closed_form(op_text, g, a)
                        if rec.max_dev > 1e-4:
                            caught = True
                            break
                    if caught:
                        break
            if not caught:
                undetected.append(f"{op_text} coefficient {coeff!r}")
    elapsed = time.perf_counter() - t0
    ok = not undetected
    _status(7, ok,
            f"negative control: {checked} single-coefficient corruptions "
            f"(+1e-3) each push some deviation past 1e-4, "
            f"{len(undetected)} undetected, {elapsed:.1f}s")
    assert not undetected, "corruptions not caught: " + ", ".join(undetected)

"""Closed-form spectra against the numeric and exact oracles."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphaenergy import (CLOSED_FORMS, AlphaValue, RegularBase,
                         alpha_energy, alpha_spectrum, cf_remark_energies,
                         closed_form_identity, closed_splitting_graph,
                         complete, complete_bipartite, cycle, duplicate_graph,
                         iterated_line_graph, make_spectrum, multiset_deviation,
                         parse_op, path, petersen, shadow_graph, splitting_graph,
                         verify_closed_form)
from alphaenergy import closed_forms, linalg, spectra
from alphaenergy.cli import main
from alphaenergy.closed_forms import (CLOSED_FORM_INSTANCES, cf_central_spectrum,
                                      cf_closed_shadow_spectrum,
                                      cf_closed_splitting_spectrum, cf_ebd_spectrum,
                                      cf_middle_spectrum, cf_splitting_spectrum,
                                      closed_form_base)
from alphaenergy.ops import OPS
from conftest import circulants, corrupt_coefficient, printed_splitting_spectrum

SQ2 = math.sqrt(2.0)
SQ5 = math.sqrt(5.0)
SQ6 = math.sqrt(6.0)


class TestRegularBase:
    def test_from_graph(self, monkeypatch):
        calls = _counted_eigensolves(monkeypatch)
        b = RegularBase.from_graph(petersen())
        assert (b.p, b.q, b.r) == (10, 15, 3)
        assert b.connected
        assert calls == []   # the spectrum is solved once, when first read
        assert b.base_spectrum[0] == pytest.approx(3.0)
        assert b.base_spectrum is b.base_spectrum and len(calls) == 1

    def test_rejects_irregular(self):
        with pytest.raises(ValueError, match="regular"):
            RegularBase.from_graph(path(3))

    def test_disconnected_flag(self):
        b = RegularBase.from_graph(duplicate_graph(cycle(4), 1))
        assert not b.connected

    @pytest.mark.parametrize("g, r", [(cycle(4), 2), (cycle(8), 2),
                                      (complete_bipartite(3, 3), 3)],
                             ids=["C4", "C8", "K3,3"])
    def test_bipartite_ends_in_exact_minus_r(self, g, r):
        b = RegularBase.from_graph(g)
        assert b.base_spectrum[0] == float(r)
        assert b.base_spectrum[-1] == -float(r)

    def test_pins_each_component(self):
        # two disjoint bipartite squares: r and -r twice each
        spec = RegularBase.from_graph(duplicate_graph(cycle(4), 1)).base_spectrum
        assert spec[:2] == (2.0, 2.0) and spec[2] != 2.0
        assert spec[-2:] == (-2.0, -2.0) and spec[-3] != -2.0

    def test_rejects_a_leading_eigenvalue_off_r(self, monkeypatch):
        c5 = [2.0 + 1e-6, *[2 * math.cos(2 * math.pi * k / 5) for k in range(1, 5)]]
        monkeypatch.setattr(closed_forms, "sym_eigenvalues", lambda m: make_spectrum(c5))
        with pytest.raises(ValueError, match="adjacency eigenvalue 2.000001 should be 2"):
            RegularBase.from_graph(cycle(5)).base_spectrum

    def test_non_bipartite_pins_only_the_degree(self):
        spec = RegularBase.from_graph(petersen()).base_spectrum
        assert spec[0] == 3.0
        assert spec.count(3.0) == 1
        assert -3.0 not in spec


class TestFrozenSpectra:
    def test_middle_c4_adjacency(self):
        # q = p, so no repeated value; pairs from lambda in {2, 0, 0, -2}
        got = CLOSED_FORMS["middle"](RegularBase.from_graph(cycle(4)), None,
                                     AlphaValue.parse("0"))
        want = sorted([1 + SQ5, 1 - SQ5, SQ2, -SQ2, SQ2, -SQ2, 0.0, -2.0],
                      reverse=True)
        assert multiset_deviation(got.values, want) < 1e-12

    def test_central_k4_adjacency(self):
        got = CLOSED_FORMS["central"](RegularBase.from_graph(complete(4)), None,
                                      AlphaValue.parse("0"))
        want = sorted([SQ6, -SQ6, SQ2, -SQ2, SQ2, -SQ2, SQ2, -SQ2, 0.0, 0.0],
                      reverse=True)
        assert multiset_deviation(got.values, want) < 1e-12

    def test_splitting_repeated_value(self):
        b = RegularBase.from_graph(cycle(4))
        got = CLOSED_FORMS["splitting"](b, 3, AlphaValue.parse("0.5"))
        assert len(got.values) == 16
        # repeated a*r with multiplicity p*(m-1)
        assert sum(1 for v in got.values if abs(v - 1.0) < 1e-12) >= 8

    def test_ebd_energy_c6_at_half(self):
        b = RegularBase.from_graph(cycle(6))
        spec = CLOSED_FORMS["ebd"](b, None, AlphaValue.parse("0.5"))
        offset = 2 * 0.5 * (2 * b.q + b.p) / (2 * b.p)
        energy = math.fsum(abs(v - offset) for v in spec.values)
        assert energy == pytest.approx(8.0)


class TestPreconditions:
    def test_middle_needs_r2(self):
        b = RegularBase.from_graph(complete(2))
        with pytest.raises(ValueError, match="r >= 2"):
            CLOSED_FORMS["middle"](b, None, AlphaValue.parse("0"))

    def test_splitting_needs_m1(self):
        b = RegularBase.from_graph(cycle(4))
        msg = "splitting needs m >= 1, got 0"   # the operation's own refusal
        with pytest.raises(ValueError, match=msg):
            CLOSED_FORMS["splitting"](b, 0, AlphaValue.parse("0.5"))
        with pytest.raises(ValueError, match=msg):
            verify_closed_form("splitting:0", cycle(4), AlphaValue.parse("0.5"))

    def test_central_needs_r2_and_connected(self, monkeypatch):
        calls = _counted_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="r >= 2"):
            CLOSED_FORMS["central"](RegularBase.from_graph(complete(2)), None,
                                    AlphaValue.parse("0"))
        two_squares = duplicate_graph(cycle(4), 1)
        assert RegularBase.from_graph(two_squares).r == 2
        with pytest.raises(ValueError, match="connected"):
            CLOSED_FORMS["central"](RegularBase.from_graph(two_squares), None,
                                    AlphaValue.parse("0"))
        assert calls == []   # each refusal comes before the base is solved

    def test_verify_rejects_irregular_base(self):
        with pytest.raises(ValueError, match="regular"):
            verify_closed_form("ebd", path(4), AlphaValue.parse("0.5"))

    def test_verify_rejects_ops_without_closed_form(self):
        with pytest.raises(ValueError, match="no closed form"):
            verify_closed_form("line:2", complete(4), AlphaValue.parse("0"))


class TestVerification:
    @pytest.mark.parametrize("op", ["middle", "central", "splitting:1",
                                    "splitting:2", "closed-splitting",
                                    "closed-shadow", "ebd"])
    def test_passes_on_regular_bases(self, op):
        for g in (cycle(5), complete(4), complete_bipartite(3, 3)):
            rec = verify_closed_form(op, g, AlphaValue.parse("0.3"))
            assert rec.passed, f"{op} dev {rec.max_dev:.3e}"
            assert rec.max_dev < 1e-8

    def test_exact_route_forced(self):
        # an exact weight on a small enough graph is what turns the exact route on
        rec = verify_closed_form("ebd", cycle(4), AlphaValue.parse("0.25"))
        assert rec.passed and rec.exact_dev is not None

    def test_irrational_alpha_skips_exact_route(self):
        a = AlphaValue(numeric=1 / math.sqrt(3))
        rec = verify_closed_form("ebd", cycle(4), a)
        assert rec.passed

    def test_exact_dev_only_when_exact_oracle_ran(self):
        ran = verify_closed_form("ebd", cycle(4), AlphaValue.parse("0.25"))
        assert ran.exact_dev is not None and ran.exact_dev <= ran.max_dev
        assert "exact_dev" not in ran.to_json_dict()
        irrational = AlphaValue(numeric=1 / math.sqrt(3))
        assert verify_closed_form("ebd", cycle(4), irrational).exact_dev is None
        assert verify_closed_form("ebd", cycle(4),
                                  AlphaValue(numeric=0.25)).exact_dev is None
        # ebd(C40) has 80 vertices, over the exact oracle's size limit
        assert verify_closed_form("ebd", cycle(40), AlphaValue.parse("0.25")).exact_dev is None

    @pytest.mark.parametrize("op, base, text, exact", [
        ("ebd", cycle(4), "0.25", None), ("middle", cycle(6), "0.3", None),
        ("central", complete(4), "0.7", False), ("splitting:2", cycle(5), "0.5", True)])
    def test_max_dev_is_the_worse_oracle(self, op, base, text, exact):
        # exact=False stands for a numeric-only weight, which skips the exact oracle
        a = AlphaValue(numeric=float(text)) if exact is False else AlphaValue.parse(text)
        rec = verify_closed_form(op, base, a)
        assert rec.max_dev == max(rec.numeric_dev, rec.exact_dev or 0.0)
        assert (rec.exact_dev is None) == (exact is False)
        assert "numeric_dev" not in rec.to_json_dict()

    def test_record_shape(self):
        rec = verify_closed_form("closed-shadow", cycle(4), AlphaValue.parse("0.5"),
                                 base_id="C4")
        assert rec.op == "closed-shadow"
        assert rec.base == "C4"
        assert rec.alpha == 0.5
        d = rec.to_json_dict()
        assert set(d) == {"op", "base", "alpha", "max_dev", "pass"}

    def test_default_base_label(self):
        rec = verify_closed_form("ebd", cycle(4), AlphaValue.parse("0"))
        assert rec.base == "graph(p=4,q=4)"

    def test_deviation_notes(self):
        assert verify_closed_form("splitting:1", cycle(4),
                                  AlphaValue.parse("0")).paper_deviation is not None
        assert verify_closed_form("central", cycle(4),
                                  AlphaValue.parse("0")).paper_deviation is not None
        assert verify_closed_form("ebd", cycle(4),
                                  AlphaValue.parse("0")).paper_deviation is None

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_printed_splitting_discriminant_fails(self, m):
        # the printed leading term (a*r*(m+2))^2 differs from (a*r*m)^2 only
        # where alpha > 0, so the printed form passes at 0 and fails after
        for g in (cycle(5), complete(4), complete_bipartite(3, 3)):
            for t in ("0", "0.1", "0.5", "0.9"):
                a = AlphaValue.parse(t)
                numeric = alpha_spectrum(splitting_graph(g, m), a).values
                dev = multiset_deviation(printed_splitting_spectrum(g, m, a),
                                         numeric)
                assert (dev <= 1e-8) == (t == "0"), f"alpha={t} dev {dev:.3e}"

    def test_perturbed_coefficient_fails(self, monkeypatch):
        corrupt_coefficient(monkeypatch, "ebd", "adj_one", 1.001)
        rec = verify_closed_form("ebd", cycle(5), AlphaValue.parse("0.3"))
        assert not rec.passed

    def test_registry_is_the_checked_instances(self):
        assert set(CLOSED_FORMS) == {parse_op(t).name for t in CLOSED_FORM_INSTANCES}
        for op in ("shadow:2", "duplicate:1", "line:1"):
            with pytest.raises(ValueError, match="no closed form"):
                verify_closed_form(op, complete(4), AlphaValue.parse("0"))

    @pytest.mark.parametrize("op_text", CLOSED_FORM_INSTANCES)
    def test_private_dispatch_name_matches_public_callers(self, op_text):
        # perfbench's verify check calls the registry by its former private
        # name, and its tracer wraps the cf_* functions in closed_forms
        public = {"middle": cf_middle_spectrum, "central": cf_central_spectrum,
                  "closed-splitting": cf_closed_splitting_spectrum,
                  "closed-shadow": cf_closed_shadow_spectrum, "ebd": cf_ebd_spectrum}
        op, a = parse_op(op_text), AlphaValue.parse("0.3")
        for g in (cycle(5), complete(4), petersen()):
            b = RegularBase.from_graph(g)
            got = closed_forms._CF_DISPATCH[op.name](b, op.param, a, None)
            want = (cf_splitting_spectrum(b, op.param, a) if op.name == "splitting"
                    else public[op.name](b, a))
            assert got == want == CLOSED_FORMS[op.name](b, op.param, a)


# Bases where some 2x2 block has y = 0: lambda = -r for middle and central
# (C4, C6, K3,3), lambda = -1 for ebd and closed splitting (C6, K4),
# lambda = 0 for splitting (C4, K3,3), and every block at alpha = 1.
Y_ZERO_BASES = [("C4", cycle(4)), ("C6", cycle(6)), ("K4", complete(4)),
                ("K3,3", complete_bipartite(3, 3)), ("petersen", petersen())]


def test_float_route_where_y_is_zero():
    # sqrt of y**2 expanded in powers of lambda magnifies a 1e-16 residue to
    # 1e-8 where y is zero; the float route forms l(lambda) first instead
    worst, records = 0.0, 0
    for op_text in CLOSED_FORM_INSTANCES:
        for label, g in Y_ZERO_BASES:
            for t in (0, 0.25, 0.5, 0.75, 1):
                rec = verify_closed_form(op_text, g, AlphaValue(numeric=t),
                                         base_id=label)
                worst = max(worst, rec.numeric_dev)
                records += 1
    assert records == 200
    assert worst <= 1e-12


def test_exact_oracle_isolates_near_the_numeric_spectrum(monkeypatch):
    # every square-free factor is certified from the numeric spectrum
    def no_sturm(f):
        raise AssertionError("Sturm isolation ran")
    monkeypatch.setattr(linalg, "_sturm_chain", no_sturm)
    for op_text, g in (("middle", cycle(8)), ("central", petersen()),
                       ("closed-splitting", complete_bipartite(3, 3))):
        rec = verify_closed_form(op_text, g, AlphaValue.parse("0.3"))
        assert rec.passed and rec.exact_dev is not None and rec.exact_dev < 1e-12


def _counted_eigensolves(monkeypatch) -> list[int]:
    calls: list[int] = []
    for module in (spectra, closed_forms):
        solve = module.sym_eigenvalues
        monkeypatch.setattr(module, "sym_eigenvalues",
                            lambda m, solve=solve: calls.append(1) or solve(m))
    return calls


class TestIdentity:
    """closed_form_identity: the block against the exact charpoly."""

    def test_every_corruption_fails(self, monkeypatch):
        # criterion 7's probes, bases and weights, checked exactly
        probes = {"middle": "middle", "central": "central",
                  "splitting": "splitting:2", "closed-splitting": "closed-splitting",
                  "closed-shadow": "closed-shadow", "ebd": "ebd"}
        bases = [cycle(4), cycle(5), complete(4), complete_bipartite(3, 3), petersen()]
        grid = [AlphaValue.parse(t) for t in ("0", "0.25", "0.5", "0.75")]
        undetected, checked = [], 0
        for name, op_text in probes.items():
            for coeff, default in CLOSED_FORMS[name].coeffs.items():
                checked += 1
                with monkeypatch.context() as mp:
                    corrupt_coefficient(mp, name, coeff, default + 1e-3)
                    if all(closed_form_identity(op_text, g, a)
                           for g in bases for a in grid):
                        undetected.append(f"{op_text} {coeff}")
        assert checked == 23
        assert not undetected

    def test_makes_no_eigensolve(self, monkeypatch):
        calls = _counted_eigensolves(monkeypatch)
        for op_text in CLOSED_FORM_INSTANCES:
            assert closed_form_identity(op_text, complete(4), AlphaValue.parse("0.25"))
            assert closed_form_base(op_text, complete(4))[2].r == 3
        assert calls == []
        verify_closed_form("ebd", complete(4), AlphaValue.parse("0.25"))   # the count works
        assert calls

    def test_irrational_alpha_raises(self):
        with pytest.raises(ValueError, match="rational alpha"):
            closed_form_identity("ebd", cycle(4), AlphaValue(numeric=1 / math.sqrt(3)))

    def test_irregular_base_raises(self):
        with pytest.raises(ValueError, match="regular"):
            closed_form_identity("ebd", path(4), AlphaValue.parse("0.5"))

    def test_preconditions_and_unknown_ops_raise(self):
        with pytest.raises(ValueError, match="r >= 2"):
            closed_form_identity("middle", complete(2), AlphaValue.parse("0"))
        with pytest.raises(ValueError, match="connected"):
            closed_form_identity("central", duplicate_graph(cycle(4), 1), AlphaValue.parse("0"))
        with pytest.raises(ValueError, match="no closed form"):
            closed_form_identity("line:2", complete(4), AlphaValue.parse("0"))


@given(circulants(), st.sampled_from(CLOSED_FORM_INSTANCES), st.integers(0, 19))
@settings(max_examples=40, deadline=None)
def test_three_routes_agree_on_circulants(g, op, t):
    # closed form, numeric eigensolver and exact charpoly on regular bases that
    # may be disconnected or bipartite, where the base spectrum pins r and -r
    # once per component; a refusal that needs no weight is not a finding
    try:
        desc, _, _ = closed_form_base(op, g)
    except ValueError:
        assume(False)
    a = AlphaValue.from_fraction(Fraction(t, 20))
    rec = verify_closed_form(desc, g, a)
    assert rec.passed, rec
    if OPS[desc.name].check(g, *desc.args)[0] <= linalg.CHARPOLY_MAX_N:
        assert rec.exact_dev is not None and closed_form_identity(desc, g, a)


# Weights where a closed form's 2x2 block has a double root, by operation
# instance: (instance, base, alpha*).  Middle's lambda = -r block of a
# bipartite base is diagonal with equal corners at alpha = 2/(r+2); closed
# splitting's lambda = -1 block at alpha = 1/(r+1); central K3's block at
# alpha = 1; splitting's lambda = 0 block at alpha = 0.  ebd (lambda = -1)
# and closed shadow are checked on the same bases and weights.
DOUBLE_ROOTS = (
    [("middle", "C4", cycle(4), 1 / 2), ("middle", "C6", cycle(6), 1 / 2),
     ("middle", "K3,3", complete_bipartite(3, 3), 2 / 5),
     ("middle", "K4,4", complete_bipartite(4, 4), 1 / 3)]
    + [("closed-splitting", "K3", complete(3), 1 / 3),
       ("closed-splitting", "K4", complete(4), 1 / 4),
       ("closed-splitting", "K5", complete(5), 1 / 5),
       ("closed-splitting", "C6", cycle(6), 1 / 3)]
    + [("central", "K3", complete(3), 1.0)]
    + [(f"splitting:{m}", "C4", cycle(4), 0.0) for m in (1, 2, 3)])
NEAR = (0.0, 1e-7, -1e-7, 1e-6, -1e-6, 1e-5, -1e-5)


@pytest.mark.parametrize("op", ["middle", "closed-splitting", "central",
                                "splitting", "ebd", "closed-shadow"])
def test_double_roots_pass_nearby(op):
    cases = [c for c in DOUBLE_ROOTS if c[0].split(":")[0] == op]
    if op in ("ebd", "closed-shadow"):
        same = {(label, star): g for _, label, g, star in DOUBLE_ROOTS}
        cases = [(op, label, g, star) for (label, star), g in same.items()]
    failures = []
    for op_text, label, g, star in cases:
        for t in sorted({min(1.0, max(0.0, star + d)) for d in NEAR}):
            rec = verify_closed_form(op_text, g, AlphaValue(numeric=t))
            if not rec.passed:
                failures.append(f"{op_text} {label} alpha={t!r}: "
                                f"dev {rec.max_dev:.3e}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("command", [
    "verify middle C4 --alphas 0.5000001:0.5000001:0.1",
    "verify middle K3,3 --alphas 0.4000001:0.4000001:0.1",
    "verify closed-splitting K4 --alphas 0.2500001:0.2500001:0.1",
    "verify central K3 --alphas 0.9999999:0.9999999:0.1"])
def test_verify_passes_next_to_double_root(command, capsys):
    assert main(command.split()) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


class TestRemarkEnergies:
    def test_shadow_identity(self):
        b = RegularBase.from_graph(petersen())
        want = cf_remark_energies(b, "shadow:2", AlphaValue.parse("0.3"))
        assert want == pytest.approx(2 * 0.7 * 16.0)
        got = alpha_energy(shadow_graph(petersen(), 2), AlphaValue.parse("0.3")).energy
        assert abs(got - want) < 1e-9

    def test_duplicate_identity(self):
        b = RegularBase.from_graph(cycle(6))
        want = cf_remark_energies(b, "duplicate:2", AlphaValue.parse("0.4"))
        assert want == pytest.approx(4 * 0.6 * 8.0)
        got = alpha_energy(duplicate_graph(cycle(6), 2), AlphaValue.parse("0.4")).energy
        assert abs(got - want) < 1e-9

    def test_line_identity_k4(self):
        b = RegularBase.from_graph(complete(4))
        want = cf_remark_energies(b, "line:2", AlphaValue.parse("0.3"))
        assert want == pytest.approx(0.7 * 24.0)
        got = alpha_energy(iterated_line_graph(complete(4), 2), AlphaValue.parse("0.3")).energy
        assert abs(got - want) < 1e-6

    def test_line_identity_petersen(self):
        b = RegularBase.from_graph(petersen())
        assert cf_remark_energies(b, "line:2", AlphaValue.parse("0")) == pytest.approx(60.0)

    def test_rejects(self, monkeypatch):
        calls = _counted_eigensolves(monkeypatch)
        b4 = RegularBase.from_graph(cycle(4))
        bk4 = RegularBase.from_graph(complete(4))
        with pytest.raises(ValueError, match="m >= 2"):
            cf_remark_energies(bk4, "shadow:1", AlphaValue.parse("0"))
        with pytest.raises(ValueError, match="m >= 1"):
            cf_remark_energies(bk4, "duplicate:0", AlphaValue.parse("0"))
        # the operation's own cap: 2**13 copies are never built, so not summed
        with pytest.raises(ValueError, match="duplication result would exceed 4096 vertices"):
            cf_remark_energies(bk4, "duplicate:13", AlphaValue.parse("0"))
        with pytest.raises(ValueError, match="k >= 2"):
            cf_remark_energies(bk4, "line:1", AlphaValue.parse("0"))
        with pytest.raises(ValueError, match="r >= 3"):
            cf_remark_energies(b4, "line:2", AlphaValue.parse("0"))
        with pytest.raises(ValueError, match="alpha < 1"):
            cf_remark_energies(bk4, "shadow:2", AlphaValue.parse("1"))
        with pytest.raises(ValueError, match="no energy identity"):
            cf_remark_energies(bk4, "middle", AlphaValue.parse("0"))
        assert calls == []   # each refusal comes before the base is solved


class TestClosedSplittingAgainstTable:
    def test_c4_energy_alpha0(self):
        rec = verify_closed_form("closed-splitting", cycle(4), AlphaValue.parse("0"))
        assert rec.passed
        got = alpha_energy(closed_splitting_graph(cycle(4)), AlphaValue.parse("0")).energy
        assert got == pytest.approx(13.153, abs=5e-4)

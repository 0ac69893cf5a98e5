"""Classification, sweep tables, and the observation battery."""

from __future__ import annotations

import hashlib
import json

import pytest

from alphaenergy import (SweepTable, alpha, alpha_energy, classify,
                         closed_shadow_graph, complete, cycle, degree_info,
                         energy_report_json, format_csv, format_table_json,
                         observations_report, path, petersen,
                         reference_energy, shadow_graph, splitting_graph,
                         sweep_table, table1, table1_rows, tenth_grid)

TABLE1_LABELS = [
    "K8", "Spl(C4)", "Lambda(C4)", "D2[C4]", "Ebd(C4)", "D2(C4)", "D(C4)",
    "K10", "Spl(C5)", "Lambda(C5)", "D2[C5]", "Ebd(C5)", "D2(C5)", "D(C5)",
    "K12", "Spl(C6)", "Lambda(C6)", "D2[C6]", "Ebd(C6)", "D2(C6)", "D(C6)",
    "Spl(K3,3)", "Lambda(K3,3)", "D2[K3,3]", "Ebd(K3,3)", "D2(K3,3)", "D(K3,3)",
]


class TestReference:
    def test_values(self):
        assert reference_energy(8, alpha("0")) == 14.0
        assert reference_energy(8, alpha("0.3")) == pytest.approx(9.8)
        assert reference_energy(1, alpha("0")) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            reference_energy(0, alpha("0"))


class TestClassify:
    def test_borderenergetic(self):
        res = classify(closed_shadow_graph(cycle(4)), alpha("0.3"),
                       peers=[("K8", complete(8))], graph_id="D2[C4]")
        assert res.verdict == "borderenergetic"
        assert res.equal_partners == ("K8",)
        assert res.energy == pytest.approx(9.8)
        assert res.reference == pytest.approx(9.8)

    def test_hyperenergetic(self):
        res = classify(splitting_graph(cycle(4), 1), alpha("0.7"))
        assert res.verdict == "hyperenergetic"

    def test_neither(self):
        res = classify(path(4), alpha("0"))
        assert res.verdict == "neither"
        assert res.equal_partners == ()

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_complete_graph_is_not_its_own_border(self, n):
        # K_n matches the reference exactly, but borderenergetic excludes K_n
        res = classify(complete(n), alpha("0.3"))
        assert res.energy == pytest.approx(res.reference)
        assert res.verdict == "neither"

    def test_border_takes_precedence(self):
        res = classify(splitting_graph(cycle(4), 1), alpha("0.7"), tol=10.0)
        assert res.verdict == "borderenergetic"

    def test_scale_consistency_for_regular_graphs(self):
        g = closed_shadow_graph(cycle(6))
        verdicts = {classify(g, alpha(t)).verdict
                    for t in ("0", "0.25", "0.5", "0.75")}
        assert verdicts == {"borderenergetic"}


class TestSweepTable:
    def test_cells_match_energy(self):
        grid = (alpha("0"), alpha("0.5"))
        t = sweep_table([("C4", cycle(4)), ("petersen", petersen())], grid)
        assert t.row_labels == ("C4", "petersen")
        assert t.cells[0][0] == pytest.approx(4.0)
        assert t.cells[1][1] == pytest.approx(
            alpha_energy(petersen(), alpha("0.5")).energy)

    def test_tenth_grid(self):
        grid = tenth_grid()
        assert len(grid) == 10
        assert [a.numeric for a in grid] == [k / 10 for k in range(10)]
        assert all(a.exact is not None for a in grid)


class TestTable1:
    def test_row_labels(self):
        assert list(table1().row_labels) == TABLE1_LABELS

    def test_rows_are_rebuilt_consistently(self):
        labels = [label for label, _ in table1_rows()]
        assert labels == TABLE1_LABELS

    def test_spot_cells(self):
        t = table1()
        k8 = t.cells[TABLE1_LABELS.index("K8")]
        assert k8[0] == pytest.approx(14.0)
        assert k8[5] == pytest.approx(7.0)
        ebd_c4 = t.cells[TABLE1_LABELS.index("Ebd(C4)")]
        assert ebd_c4[5] == pytest.approx(6.0)

    def test_closed_shadow_c4_equals_k8_row(self):
        t = table1()
        k8 = t.cells[TABLE1_LABELS.index("K8")]
        d2 = t.cells[TABLE1_LABELS.index("D2[C4]")]
        assert max(abs(x - y) for x, y in zip(k8, d2)) < 1e-6


class TestFormatting:
    def test_csv_header_and_rounding(self):
        t = SweepTable(row_labels=("x",), alphas=(alpha("0"),),
                       cells=((0.00005,),))
        assert format_csv(t) == "graph,alpha_0.0\nx,0.0001\n"

    def test_csv_negative_tie_rounds_away(self):
        t = SweepTable(row_labels=("x",), alphas=(alpha("0"),),
                       cells=((-0.00005,),))
        assert format_csv(t) == "graph,alpha_0.0\nx,-0.0001\n"

    def test_csv_full_header(self):
        head = format_csv(table1()).splitlines()[0]
        assert head == "graph," + ",".join(f"alpha_0.{k}" for k in range(10))

    def test_csv_is_stable(self):
        assert format_csv(table1()) == format_csv(table1())

    def test_csv_bytes_are_pinned(self):
        digest = hashlib.sha256(format_csv(table1()).encode()).hexdigest()
        assert digest == "ceca8afb738fe17d349c0945d1e9dd7a4f99a9fc9b696132e41a60c9aba9951c"

    def test_json_table(self):
        out = json.loads(format_table_json(table1()))
        assert out["alphas"] == [k / 10 for k in range(10)]
        assert len(out["rows"]) == 27
        assert out["rows"][0]["graph"] == "K8"
        assert out["rows"][0]["energies"][0] == pytest.approx(14.0)

    def test_energy_report_json(self):
        rep = alpha_energy(cycle(4), alpha("0.5"), graph_id="C4")
        out = json.loads(energy_report_json(rep, degree_info(cycle(4)).regular))
        assert out["graph"] == {"id": "C4", "p": 4, "q": 4, "regular": 2}
        assert out["alpha"] == 0.5
        assert out["offset"] == pytest.approx(1.0)
        assert sum(e["multiplicity"] for e in out["eigenvalues"]) == 4
        assert out["energy"] == pytest.approx(2.0)


class TestObservations:
    def test_bullet_keys_and_order(self):
        rep = observations_report()
        assert [b.key for b in rep.bullets] == [
            "shadow2-equals-duplicate",
            "closed-shadow-c4-borderenergetic",
            "closed-shadow-c6-k33",
            "ebd-c6-equienergetic",
            "closed-shadow-kpp-borderenergetic",
            "splitting-hyperenergetic",
        ]
        assert rep.tol == 1e-6

    def test_equienergetic_and_borderenergetic_bullets_hold(self):
        rep = observations_report()
        for b in rep.bullets[:5]:
            assert b.passed, f"{b.key}: {b.failures[:3]}"

    def test_splitting_bullet_fails_at_low_weights(self):
        # the energies say otherwise in eleven cells; documented behavior
        b = observations_report().bullets[5]
        assert not b.passed
        assert len(b.failures) == 11
        assert not b.failures or all("Spl(" in f for f in b.failures)
        assert any("alpha=0.3" in f for f in b.failures)
        assert not observations_report().all_passed

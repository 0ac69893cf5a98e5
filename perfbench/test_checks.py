"""Self-test of the benchmark's checks: each passes on alphaenergy's real
output and fails once that output is perturbed.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from alphaenergy import analysis, cli, closed_forms, graphs, ops, spectra  # noqa: E402


def bump_first_number(text: str) -> str:
    """Add 3 to the first decimal digit of the first decimal number."""
    m = re.search(r"\d+\.(\d)", text)
    digit = str((int(m.group(1)) + 3) % 10)
    return text[:m.start(1)] + digit + text[m.end(1):]


# ----------------------------------------------------------------------
# sweep

@pytest.fixture(scope="module")
def sweep_row():
    g = ops.apply_op(ops.parse_op("ebd"), graphs.cycle(5))
    table = analysis.sweep_table([("Ebd(C5)", g)], analysis.tenth_grid())
    want = oracle.sweep_reference(oracle.operated("ebd", oracle.family("C5")))
    return table.cells[0], analysis.format_csv(table), want


def test_sweep_row_passes(sweep_row):
    cells, csv, want = sweep_row
    assert oracle.check_sweep("Ebd(C5)", cells, csv, want) == []


def test_sweep_cell_perturbed(sweep_row):
    cells, csv, want = sweep_row
    cells = (cells[0], cells[1] + 1e-6) + cells[2:]
    assert oracle.check_sweep("Ebd(C5)", cells, csv, want)


def test_sweep_csv_perturbed(sweep_row):
    cells, csv, want = sweep_row
    row = csv.split("\n")[1]
    assert oracle.check_sweep("Ebd(C5)", cells, csv.replace(row, bump_first_number(row)), want)
    assert oracle.check_sweep("Ebd(C5)", cells, csv.replace("Ebd(C5)", "Ebd(C6)"), want)


def test_known_rows():
    table = dict((label, cells) for label, cells in oracle.table1_reference())
    assert oracle.check_known_rows(table) == []
    k8 = list(table["K8"])
    k8[3] += 1e-6
    assert oracle.check_known_rows({**table, "K8": k8})
    d = list(table["D(C5)"])
    d[5] += 1e-6
    assert oracle.check_known_rows({**table, "D(C5)": d})


def test_every_sweep_op_passes_its_check():
    work = run.Sweep(seed=3)
    work.ops = work.ops[:30]    # the table1 rows and three small operated graphs
    outputs = [work.run(op) for op in work.ops]
    assert not any(work.failed(op, out) for op, out in zip(work.ops, outputs))
    assert work.check_all(outputs) == []
    outputs[-1] = (outputs[-1][0][:-1] + (outputs[-1][0][-1] * 1.001,), outputs[-1][1])
    assert work.check_all(outputs)


# ----------------------------------------------------------------------
# verify

def verify_case(op_text="closed-shadow", family="C5", alpha=Fraction(3, 10)):
    g = cli.parse_graph_source(family)[1]
    a = spectra.AlphaValue.from_fraction(alpha)
    rec = closed_forms.verify_closed_form(op_text, g, a, base_id=family)
    cf = run.closed_form_values(op_text, g, a)
    block = oracle.spectrum(oracle.operated(op_text, oracle.family(family)), float(alpha))
    return rec, cf, block


@pytest.mark.parametrize("op_text", ["middle", "central", "splitting:2",
                                     "closed-splitting", "closed-shadow", "ebd"])
def test_verify_record_passes(op_text):
    rec, cf, block = verify_case(op_text)
    assert oracle.check_verify(rec, op_text, "C5", 0.3, cf, block) == []


def test_verify_record_perturbed():
    rec, cf, block = verify_case()
    assert oracle.check_verify(dataclasses.replace(rec, max_dev=1e-5), "closed-shadow",
                               "C5", 0.3, cf, block)
    assert oracle.check_verify(dataclasses.replace(rec, passed=False), "closed-shadow",
                               "C5", 0.3, cf, block)
    assert oracle.check_verify(rec, "closed-shadow", "C6", 0.3, cf, block)
    wrong_cf = (cf[0] + 1e-6,) + tuple(cf[1:])
    assert oracle.check_verify(rec, "closed-shadow", "C5", 0.3, wrong_cf, block)


def test_verify_faults_fail_today():
    work = run.Verify(seed=5)
    faults = [op for op in work.ops if op.fault]
    assert [work.failed(op, work.run(op)) for op in faults] == [True, True]


# ----------------------------------------------------------------------
# cli

CLI_CASES = [
    (("energy", "op:closed-shadow:C6", "--alpha", "0.3"), "energy"),
    (("energy", "file:g.txt", "--alpha", "0.7", "--json"), "energy-json"),
    (("spectrum", "op:middle:C5", "--alpha", "0.4", "--exact"), "spectrum"),
    (("spectrum", "op:ebd:K4", "--alpha", "0.2"), "spectrum"),
    (("verify", "ebd", "C6", "--alphas", "0.1:0.3:0.1"), "verify"),
    (("classify", "op:closed-shadow:C4", "--alpha", "0.3", "--peers", "K8",
      "op:ebd:C4"), "classify"),
    (("sweep", "file:g.txt", "K5", "--alphas", "0:0.9:0.1"), "sweep-csv"),
    (("sweep", "file:g.txt", "--alphas", "0:0.9:0.1", "--format", "json"), "sweep-json"),
    (("table1",), "table1"),
]
EDGES = inputs.edge_text(7, {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 6)})


def cli_output(argv, tmp_path, capsys, monkeypatch):
    (tmp_path / "g.txt").write_bytes(EDGES)
    monkeypatch.chdir(tmp_path)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph(src):
    return oracle.source(src, {"g.txt": EDGES})


def closed_form(op_text, src, a):
    g = cli.parse_graph_source(src)[1]
    return run.closed_form_values(op_text, g, spectra.AlphaValue.from_fraction(a))


@pytest.mark.parametrize("argv,kind", CLI_CASES)
def test_cli_output_passes_and_perturbed_fails(argv, kind, tmp_path, capsys, monkeypatch):
    code, out, err = cli_output(argv, tmp_path, capsys, monkeypatch)
    assert oracle.check_process(code, err, 0) == []
    assert oracle.check_cli(kind, argv, out, graph, closed_form) == []
    if kind == "verify":
        bad = out.replace('"pass": true', '"pass": false', 1)
    elif kind == "classify":
        bad = out.replace('"borderenergetic"', '"neither"')
    else:
        bad = bump_first_number(out)
    assert bad != out
    assert oracle.check_cli(kind, argv, bad, graph, closed_form)


def test_cli_truncated_output_fails(tmp_path, capsys, monkeypatch):
    argv, kind = CLI_CASES[-1]
    _, out, _ = cli_output(argv, tmp_path, capsys, monkeypatch)
    assert oracle.check_cli(kind, argv, out[: len(out) // 2], graph, closed_form)


def test_process_check():
    assert oracle.check_process(0, "", 0) == []
    assert oracle.check_process(1, "", 0)
    assert oracle.check_process(2, "error: bad\n", 0)
    assert oracle.check_process(2, "error: bad\n", 2) == []
    assert oracle.check_process(2, "", 2)
    assert oracle.check_process(1, "Traceback (most recent call last):\n", 2)


def test_usage_error_check():
    argv = inputs.CLI_FAULT
    assert oracle.check_cli("usage-error", argv, "", graph) == []
    assert oracle.check_cli("usage-error", argv, "0.5\n", graph)


def test_cli_fault_counts_today_and_passes_once_fixed(capsys):
    """Today the command ends in a ValueError (a traceback and exit 1 in a
    process), which the runner counts as failed.  Once it is fixed, it
    must exit 2 with an error on stderr and nothing on stdout, and then
    both checks pass."""
    fault = [op for op in inputs.cli_inputs(1)[0] if op.argv == inputs.CLI_FAULT]
    assert [op.kind for op in fault] == ["usage-error"]
    try:
        code = cli.main(list(inputs.CLI_FAULT))
    except ValueError as e:
        traceback = f"Traceback (most recent call last):\nValueError: {e}\n"
        assert oracle.check_process(1, traceback, fault[0].expect_exit)
    else:
        captured = capsys.readouterr()
        assert oracle.check_process(code, captured.err, fault[0].expect_exit) == []
        assert oracle.check_cli("usage-error", inputs.CLI_FAULT, captured.out, graph) == []
    assert oracle.check_process(2, "error: peer has no vertices\n", 2) == []

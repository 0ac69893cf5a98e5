"""Independent checks on alphaenergy's outputs.

The reference spectra here come from numpy alone: each operated graph's
adjacency is assembled as a block matrix from its base graph's adjacency
(splitting is [[A, A], [A, 0]], closed shadow is [[A, A+I], [A+I, A]], and
so on), and ``np.linalg.eigvalsh`` is run on alpha*D + (1-alpha)*A.  No
alphaenergy graph, operation or eigensolver is used to build a reference.

Every ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from inputs import table1_specs

GRID = tuple(Fraction(k, 10) for k in range(10))
CELL_TOL = 1e-8          # full-precision energies against eigvalsh
CSV_TOL = 5e-5 + 1e-9    # 4-decimal cells
VERIFY_TOL = 1e-8        # the verify default tolerance
SPECTRUM_TOL = 1e-7      # clustered eigenvalues (cluster width 1e-7)


# ----------------------------------------------------------------------
# graphs as numpy adjacency matrices

def parse_edges(text: bytes) -> np.ndarray:
    lines = [ln.split() for ln in text.decode("ascii").splitlines() if ln.strip()]
    p = int(lines[0][0])
    adj = np.zeros((p, p))
    for i, j in lines[1:]:
        adj[int(i), int(j)] = adj[int(j), int(i)] = 1.0
    return adj


def family(text: str) -> np.ndarray:
    m = re.fullmatch(r"(C|P|K)(\d+)(?:,(\d+))?", text)
    if not m:
        raise ValueError(f"unknown family {text!r}")
    kind, a, b = m.group(1), int(m.group(2)), m.group(3)
    if b is not None:
        n = a + int(b)
        adj = np.zeros((n, n))
        adj[:a, a:] = adj[a:, :a] = 1.0
        return adj
    if kind == "K":
        return np.ones((a, a)) - np.eye(a)
    adj = np.zeros((a, a))
    for i in range(a - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    if kind == "C":
        adj[0, a - 1] = adj[a - 1, 0] = 1.0
    return adj


def _incidence(adj: np.ndarray) -> np.ndarray:
    iu, ju = np.nonzero(np.triu(adj))
    inc = np.zeros((len(adj), len(iu)))
    inc[iu, np.arange(len(iu))] = 1.0
    inc[ju, np.arange(len(iu))] = 1.0
    return inc


def operated(op: str, adj: np.ndarray) -> np.ndarray:
    """Adjacency of op(G) as a block matrix built from G's adjacency."""
    name, _, param = op.partition(":")
    m = int(param) if param else 0
    n = len(adj)
    eye, zero = np.eye(n), np.zeros((n, n))
    if name in ("middle", "central"):
        inc = _incidence(adj)
        q = inc.shape[1]
        if name == "middle":
            return np.block([[zero, inc], [inc.T, inc.T @ inc - 2 * np.eye(q)]])
        return np.block([[np.ones((n, n)) - eye - adj, inc], [inc.T, np.zeros((q, q))]])
    if name == "splitting":
        return np.block([[adj if i == 0 or j == 0 else zero for j in range(m + 1)]
                         for i in range(m + 1)])
    if name == "closed-splitting":
        return np.block([[adj, adj + eye], [adj + eye, zero]])
    if name == "shadow":
        return np.kron(np.ones((m, m)), adj)
    if name == "closed-shadow":
        return np.block([[adj, adj + eye], [adj + eye, adj]])
    if name == "ebd":
        return np.block([[zero, adj + eye], [adj + eye, zero]])
    if name == "line":
        for _ in range(m):
            inc = _incidence(adj)
            adj = inc.T @ inc - 2 * np.eye(inc.shape[1])
        return adj
    if name == "duplicate":
        for _ in range(m):
            z = np.zeros_like(adj)
            adj = np.block([[z, adj], [adj, z]])
        return adj
    raise ValueError(f"unknown operation {op!r}")


_PARAM_OPS = ("splitting", "shadow", "line", "duplicate")


def source(text: str, files: Mapping[str, bytes]) -> np.ndarray:
    """Adjacency for a cli graph source: family, file:<path> or op:<op>:<src>."""
    if text.startswith("file:"):
        return parse_edges(files[text[len("file:"):].rsplit("/", 1)[-1]])
    if text.startswith("op:"):
        name, rest = text[3:].split(":", 1)
        if name in _PARAM_OPS:
            param, rest = rest.split(":", 1)
            name = f"{name}:{param}"
        return operated(name, source(rest, files))
    return family(text)


def a_alpha(adj: np.ndarray, alpha: float) -> np.ndarray:
    return alpha * np.diag(adj.sum(axis=1)) + (1.0 - alpha) * adj


def spectrum(adj: np.ndarray, alpha: float) -> np.ndarray:
    return np.linalg.eigvalsh(a_alpha(adj, alpha))


def energy(adj: np.ndarray, alpha: float) -> float:
    offset = alpha * adj.sum() / len(adj)      # 2*alpha*q/p
    return math.fsum(abs(x - offset) for x in spectrum(adj, alpha))


def multiset_gap(xs: Sequence[float], ys: Sequence[float]) -> float:
    if len(xs) != len(ys):
        return math.inf
    return max((abs(x - y) for x, y in zip(sorted(xs), sorted(ys))), default=0.0)


# ----------------------------------------------------------------------
# output formats

def csv_header(alphas: Sequence[Fraction]) -> str:
    return "graph," + ",".join(f"alpha_{float(a)!r}" for a in alphas)


def check_csv(text: str, rows: Sequence[tuple[str, Sequence[float]]],
              alphas: Sequence[Fraction] = GRID) -> list[str]:
    """CSV of an energy table: exact header and labels, 4-decimal cells."""
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) != len(rows) + 2:
        return [f"csv has {len(lines) - 1} lines, want {len(rows) + 1}"]
    problems = []
    if lines[0] != csv_header(alphas):
        problems.append(f"csv header {lines[0]!r}")
    for line, (label, want) in zip(lines[1:], rows):
        fields = line.split(",")      # labels may hold commas, as in K3,3
        head, got = ",".join(fields[:-len(want)]), fields[-len(want):]
        if head != label:
            problems.append(f"csv row label {head!r}, want {label!r}")
        for cell, w in zip(got, want):
            if not re.fullmatch(r"-?\d+\.\d{4}", cell) or abs(float(cell) - w) > CSV_TOL:
                problems.append(f"{label}: csv cell {cell} against {w:.10f}")
    return problems


def check_cells(label: str, cells: Sequence[float], want: Sequence[float]) -> list[str]:
    if len(cells) != len(want):
        return [f"{label}: {len(cells)} cells, want {len(want)}"]
    return [f"{label}: cell {x!r} against {w!r}" for x, w in zip(cells, want)
            if not abs(x - w) <= CELL_TOL * max(1.0, abs(w))]


def check_known_rows(table: Mapping[str, Sequence[float]]) -> list[str]:
    """Known values: E(K_n) = 2(n-1)(1-a), and E(shadow:2) = E(duplicate:1)."""
    problems = []
    for label, cells in table.items():
        m = re.fullmatch(r"K(\d+)", label)
        if m:
            n = int(m.group(1))
            problems += check_cells(label, cells, [2.0 * (n - 1) * (1 - float(a)) for a in GRID])
        m = re.fullmatch(r"D2\((.+)\)", label)
        if m and f"D({m.group(1)})" in table:
            problems += check_cells(label, cells, table[f"D({m.group(1)})"])
    return problems


# ----------------------------------------------------------------------
# sweep: one row of energies over the tenth grid, plus its CSV

def sweep_reference(adj: np.ndarray) -> list[float]:
    return [energy(adj, float(a)) for a in GRID]


def check_sweep(label: str, cells: Sequence[float], csv: str,
                want: Sequence[float]) -> list[str]:
    return check_cells(label, cells, want) + check_csv(csv, [(label, want)])


# ----------------------------------------------------------------------
# verify: one verification record against the block-matrix spectrum

def check_verify(record, op: str, base: str, alpha: float,
                 cf_values: Sequence[float], block_eigs: Sequence[float]) -> list[str]:
    """A passing record must carry a closed form that matches eigvalsh of
    the block matrix, and a max_dev that agrees with that gap."""
    problems = []
    if (record.op, record.base, record.alpha) != (op, base, alpha):
        problems.append(f"record names {(record.op, record.base, record.alpha)}, "
                        f"want {(op, base, alpha)}")
    gap = multiset_gap(cf_values, block_eigs)
    if not record.passed:
        problems.append(f"{op} {base} a={alpha}: record fails (max_dev {record.max_dev:.3e})")
    if not gap <= VERIFY_TOL:
        problems.append(f"{op} {base} a={alpha}: closed form off eigvalsh by {gap:.3e}")
    if not abs(record.max_dev - gap) <= 1e-9:
        problems.append(f"{op} {base} a={alpha}: max_dev {record.max_dev:.3e}, "
                        f"eigvalsh gap {gap:.3e}")
    return problems


# ----------------------------------------------------------------------
# cli: exit code, stderr and parsed stdout

def check_process(code: int, stderr: str, expect: int) -> list[str]:
    """Exit code and stderr; a non-zero ``expect`` is a usage error, which
    alphaenergy reports as ``error: ...`` on stderr."""
    problems = []
    if code != expect:
        problems.append(f"exit code {code}, want {expect}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    elif expect == 0 and stderr.strip():
        problems.append(f"unexpected stderr {stderr.strip()[:80]!r}")
    elif expect != 0 and "error:" not in stderr:
        problems.append(f"no error message on stderr {stderr.strip()[:80]!r}")
    return problems


def _alpha_arg(argv: Sequence[str]) -> float:
    return float(argv[list(argv).index("--alpha") + 1])


def check_cli(kind: str, argv: Sequence[str], stdout: str,
              graph: Callable[[str], np.ndarray],
              closed_form: Optional[Callable[[str, str, Fraction], Sequence[float]]] = None
              ) -> list[str]:
    """Check one command's stdout; ``graph`` resolves a source to adjacency,
    ``closed_form(op, source, alpha)`` gives alphaenergy's closed-form
    values for the verify command."""
    try:
        return _CLI_CHECKS[kind](list(argv), stdout, graph, closed_form)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return [f"{kind}: unparsable output ({type(e).__name__}: {e})"]


def _energy_cmd(argv, out, graph, _):
    want = energy(graph(argv[1]), _alpha_arg(argv))
    got = float(out.strip())
    return [] if abs(got - want) <= 5e-7 + 1e-9 else [f"energy {got} against {want}"]


def _energy_json_cmd(argv, out, graph, _):
    adj = graph(argv[1])
    al = _alpha_arg(argv)
    rep = json.loads(out)
    p, q = len(adj), int(adj.sum()) // 2
    values = [g["value"] for g in rep["eigenvalues"] for _ in range(g["multiplicity"])]
    problems = []
    if rep["alpha"] != al:
        problems.append(f"alpha {rep['alpha']}, want {al}")
    if (rep["graph"]["p"], rep["graph"]["q"]) != (p, q):
        problems.append(f"order/size {rep['graph']['p']},{rep['graph']['q']}, want {p},{q}")
    if not abs(rep["offset"] - 2 * al * q / p) <= 1e-12:
        problems.append(f"offset {rep['offset']}")
    if not abs(rep["energy"] - energy(adj, al)) <= CELL_TOL * max(1.0, abs(rep["energy"])):
        problems.append(f"energy {rep['energy']} against {energy(adj, al)}")
    if not multiset_gap(values, spectrum(adj, al)) <= SPECTRUM_TOL:
        problems.append("eigenvalues differ from eigvalsh")
    return problems


def _spectrum_cmd(argv, out, graph, _):
    values = []
    for line in out.splitlines():
        v, mult = line.split()
        values += [float(v)] * int(mult)
    gap = multiset_gap(values, spectrum(graph(argv[1]), _alpha_arg(argv)))
    return [] if gap <= SPECTRUM_TOL else [f"spectrum off eigvalsh by {gap:.3e}"]


def _grid(text: str) -> list[Fraction]:
    lo, hi, step = (Fraction(x) for x in text.split(":"))
    return [lo + k * step for k in range(int((hi - lo) / step) + 1)]


def _verify_cmd(argv, out, graph, closed_form):
    op, src = argv[1], argv[2]
    alphas = _grid(argv[argv.index("--alphas") + 1])
    recs = [json.loads(line) for line in out.splitlines()]
    if len(recs) != len(alphas):
        return [f"{len(recs)} verify records, want {len(alphas)}"]
    problems = []
    block = operated(op, graph(src))
    for rec, a in zip(recs, alphas):
        gap = multiset_gap(closed_form(op, src, a), spectrum(block, float(a)))
        if (rec["op"], rec["base"], rec["alpha"]) != (op, src, float(a)):
            problems.append(f"verify record names {rec['op']} {rec['base']} {rec['alpha']}")
        if not (rec["pass"] and gap <= VERIFY_TOL and abs(rec["max_dev"] - gap) <= 1e-9):
            problems.append(f"verify {op} {src} a={a}: pass={rec['pass']} "
                            f"max_dev={rec['max_dev']:.3e}, eigvalsh gap {gap:.3e}")
    return problems


def _classify_cmd(argv, out, graph, _):
    src, al = argv[1], _alpha_arg(argv)
    peers = argv[argv.index("--peers") + 1:]
    rep = json.loads(out)
    adj = graph(src)
    e = energy(adj, al)
    ref = 2.0 * (len(adj) - 1) * (1.0 - al)
    tol, slack = 1e-6, 1e-9
    problems = []
    if (rep["graph"], rep["alpha"]) != (src, al):
        problems.append(f"classify names {rep['graph']} {rep['alpha']}")
    if not abs(rep["energy"] - e) <= CELL_TOL * max(1.0, e):
        problems.append(f"classify energy {rep['energy']} against {e}")
    if not abs(rep["reference"] - ref) <= 1e-12 * max(1.0, ref):
        problems.append(f"classify reference {rep['reference']} against {ref}")
    if abs(e - ref) < tol - slack:
        verdicts = {"borderenergetic"}
    elif e > ref + tol + slack:
        verdicts = {"hyperenergetic"}
    elif e < ref - tol - slack:
        verdicts = {"neither"}
    else:
        verdicts = {"borderenergetic", "hyperenergetic", "neither"}
    if rep["verdict"] not in verdicts:
        problems.append(f"verdict {rep['verdict']}, want one of {sorted(verdicts)}")
    for peer in peers:
        gap = abs(energy(graph(peer), al) - e)
        listed = peer in rep["equal_partners"]
        if (gap < tol - slack and not listed) or (gap > tol + slack and listed):
            problems.append(f"peer {peer}: energy gap {gap:.3e}, listed={listed}")
    if set(rep["equal_partners"]) - set(peers):
        problems.append(f"unknown partners {rep['equal_partners']}")
    return problems


def _sweep_rows(argv, graph):
    alphas = _grid(argv[argv.index("--alphas") + 1])
    sources = argv[1:argv.index("--alphas")]
    return alphas, [(s, [energy(graph(s), float(a)) for a in alphas]) for s in sources]


def _sweep_csv_cmd(argv, out, graph, _):
    alphas, rows = _sweep_rows(argv, graph)
    return check_csv(out, rows, alphas)


def _sweep_json_cmd(argv, out, graph, _):
    alphas, rows = _sweep_rows(argv, graph)
    rep = json.loads(out)
    problems = []
    if rep["alphas"] != [float(a) for a in alphas]:
        problems.append(f"sweep alphas {rep['alphas']}")
    if [r["graph"] for r in rep["rows"]] != [label for label, _ in rows]:
        problems.append("sweep row labels differ")
    for got, (label, want) in zip(rep["rows"], rows):
        problems += check_cells(label, got["energies"], want)
    return problems


def table1_reference() -> list[tuple[str, list[float]]]:
    return [(label, sweep_reference(operated(op, family(fam)) if op else family(fam)))
            for label, fam, op in table1_specs()]


def _usage_error_cmd(argv, out, graph, _):
    return [f"stdout after a usage error {out.strip()[:80]!r}"] if out.strip() else []


def _table1_cmd(argv, out, graph, _):
    rows = table1_reference()
    return check_csv(out, rows) + check_known_rows(dict(rows))


_CLI_CHECKS = {
    "energy": _energy_cmd,
    "energy-json": _energy_json_cmd,
    "spectrum": _spectrum_cmd,
    "verify": _verify_cmd,
    "classify": _classify_cmd,
    "sweep-csv": _sweep_csv_cmd,
    "sweep-json": _sweep_json_cmd,
    "table1": _table1_cmd,
    "usage-error": _usage_error_cmd,
}

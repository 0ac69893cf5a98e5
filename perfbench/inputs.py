"""Seeded inputs for the three workloads.

Everything here is the benchmark's own code: graphs are generated with
``random.Random`` and handed to alphaenergy only as edge-list text,
family names, operation strings and weights.  The base graphs and weights
of ``sweep`` and ``verify`` and the commands of ``cli`` are fixed; the
seed draws a fresh vertex labelling of each base graph and edge-list
file, and the weights of the ``cli`` commands.  A seed therefore never
changes how many operations a pass holds, how large each graph is or
what its spectrum is, so the work per pass and the per-pass counts
repeat across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# The 27 rows of ``alphaenergy table1``, in its order: (label, family, op).
TABLE1_BASES = (("C4", "C4", 8), ("C5", "C5", 10), ("C6", "C6", 12),
                ("K3,3", "K3,3", 12))
TABLE1_OPS = (("Spl", "splitting:1", "({})"), ("Lambda", "closed-splitting", "({})"),
              ("D2", "closed-shadow", "[{}]"), ("Ebd", "ebd", "({})"),
              ("D2", "shadow:2", "({})"), ("D", "duplicate:1", "({})"))


def table1_specs() -> list[tuple[str, str, Optional[str]]]:
    rows: list[tuple[str, str, Optional[str]]] = []
    for label, family, n in TABLE1_BASES:
        if f"K{n}" not in {r[0] for r in rows}:
            rows.append((f"K{n}", f"K{n}", None))
        for prefix, op, brackets in TABLE1_OPS:
            rows.append((prefix + brackets.format(label), family, op))
    return rows


# Operated graphs for ``sweep`` beyond table1: (op, base kind, n, degree or
# edge count).  Kind "R" is a connected random r-regular base, "G" a
# connected random base with n vertices and that many edges; each base is
# drawn once from a fixed stream, and the seed relabels it.  Operated
# orders run from 8 to 96 vertices; the comment gives each one.
SWEEP_SLOTS = (
    ("duplicate:1", "G", 4, 4),         # 8
    ("middle", "R", 8, 3),              # 20
    ("splitting:1", "G", 10, 14),       # 20
    ("central", "R", 10, 3),            # 25
    ("splitting:2", "R", 8, 3),         # 24
    ("closed-splitting", "G", 12, 18),  # 24
    ("line:2", "R", 8, 3),              # 24
    ("shadow:2", "G", 14, 20),          # 28
    ("closed-shadow", "R", 14, 4),      # 28
    ("line:1", "G", 16, 28),            # 28
    ("ebd", "G", 16, 24),               # 32
    ("duplicate:2", "R", 24, 3),        # 96
)

# ``verify``: (closed-form op, regular base, weight).  Most bases are the
# structured families the closed forms are stated for; the "R<n>-<r>" ones
# are random r-regular graphs drawn once from a fixed stream, whose simple
# spectra make root isolation work harder.  The seed relabels each base.
# Every operated graph has at most 48 vertices, so the exact oracle (cap
# 64) runs on every record.
VERIFY_SLOTS = (
    ("middle", "C8", "3/10"),                 # 16
    ("middle", "prism6", "1/4"),              # 30
    ("central", "K3,3", "7/10"),              # 15
    ("central", "petersen", "3/10"),          # 25
    ("central", "R12-3", "3/4"),              # 30
    ("splitting:1", "C12", "1/10"),           # 24
    ("splitting:2", "K4,4", "9/10"),          # 24
    ("closed-splitting", "Q4", "1/4"),        # 32
    ("closed-splitting", "R16-3", "3/10"),    # 32
    ("closed-shadow", "petersen", "7/10"),    # 20
    ("closed-shadow", "circ16-1-2", "3/4"),   # 32
    ("ebd", "K5,5", "1/10"),                  # 20
    ("ebd", "prism12", "3/10"),               # 48
)

# Fixed records that fail today (not seeded): DISC_SNAP in
# closed_forms._quad_roots collapses a real gap of about 4e-7 near 1/2.
C4_EDGES = b"4 4\n0 1\n0 3\n1 2\n2 3\n"
VERIFY_FAULTS = (("middle", "0.5000001"), ("middle", "0.500001"))

# Fixed cli command that fails today: a zero-vertex peer ends in a
# ValueError traceback (exit 1) instead of a usage error (exit 2).  Its
# check, "usage-error", passes once the command exits 2 with ``error:`` on
# stderr and nothing on stdout.
CLI_FAULT = ("classify", "C4", "--alpha", "0.3", "--peers", "op:line:2:P2")


@dataclass(frozen=True)
class SweepOp:
    label: str
    family: Optional[str]       # C<n>/K<n>/K<a>,<b> for table1 rows
    edges: Optional[bytes]      # edge-list text for seeded bases
    op: Optional[str]


@dataclass(frozen=True)
class VerifyOp:
    label: str
    op: str
    edges: bytes
    alpha: str                  # decimal text, or "k/d" for a fraction
    fault: bool = False


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    kind: str                   # which check applies to the output
    expect_exit: int = 0


# ----------------------------------------------------------------------
# graph generators (the benchmark's own, not alphaenergy's)

def _connected(n: int, edges: set[tuple[int, int]]) -> bool:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_regular(n: int, r: int, rng: random.Random) -> set[tuple[int, int]]:
    """Connected simple r-regular graph by the configuration model."""
    if n * r % 2 or r >= n:
        raise ValueError(f"no simple {r}-regular graph on {n} vertices")
    while True:
        stubs = [v for v in range(n) for _ in range(r)]
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        for a, b in zip(stubs[::2], stubs[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            if _connected(n, edges):
                return edges


def random_connected(n: int, q: int, rng: random.Random) -> set[tuple[int, int]]:
    """Connected simple graph with n vertices and q edges: a random
    spanning tree plus uniformly drawn extra edges."""
    if not n - 1 <= q <= n * (n - 1) // 2:
        raise ValueError(f"no connected graph with {n} vertices and {q} edges")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < q:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return edges


def edge_text(n: int, edges: set[tuple[int, int]]) -> bytes:
    lines = [f"{n} {len(edges)}"] + [f"{i} {j}" for i, j in sorted(edges)]
    return ("\n".join(lines) + "\n").encode("ascii")


def fixed_base(kind: str, n: int, x: int) -> tuple[int, set[tuple[int, int]]]:
    """The random base of a slot, the same for every seed."""
    rng = random.Random(f"base-{kind}{n}-{x}")
    return n, random_regular(n, x, rng) if kind == "R" else random_connected(n, x, rng)


def regular_family(spec: str) -> tuple[int, set[tuple[int, int]]]:
    """C<n>, K<a>,<b>, prism<k> (C_k x K_2), circ<n>-<j>-<k> (circulant),
    Q<d> (hypercube) or petersen, as (order, edges)."""
    def norm(pairs):
        return {(min(a, b), max(a, b)) for a, b in pairs}
    if spec == "petersen":
        return 10, norm([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    if spec.startswith("prism"):
        k = int(spec[5:])
        return 2 * k, norm([(i, (i + 1) % k) for i in range(k)]
                           + [(k + i, k + (i + 1) % k) for i in range(k)]
                           + [(i, k + i) for i in range(k)])
    if spec.startswith("circ"):
        n, *jumps = (int(x) for x in spec[4:].split("-"))
        return n, norm([(i, (i + j) % n) for i in range(n) for j in jumps])
    if spec.startswith("Q"):
        d = int(spec[1:])
        return 2 ** d, norm([(v, v ^ (1 << b)) for v in range(2 ** d) for b in range(d)])
    if spec.startswith("K"):
        a, b = (int(x) for x in spec[1:].split(","))
        return a + b, {(i, a + j) for i in range(a) for j in range(b)}
    if spec.startswith("C"):
        n = int(spec[1:])
        return n, norm([(i, (i + 1) % n) for i in range(n)])
    raise ValueError(f"unknown family {spec!r}")


def relabelled(n: int, edges: set[tuple[int, int]], rng: random.Random) -> bytes:
    perm = list(range(n))
    rng.shuffle(perm)
    return edge_text(n, {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges})


# ----------------------------------------------------------------------
# workloads

def sweep_inputs(seed: int) -> list[SweepOp]:
    rng = random.Random(f"sweep-{seed}")
    ops = [SweepOp(label, family, None, op) for label, family, op in table1_specs()]
    for op, kind, n, x in SWEEP_SLOTS:
        edges = relabelled(*fixed_base(kind, n, x), rng)
        ops.append(SweepOp(f"{op}({kind}{n}-{x})", None, edges, op))
    return ops


def verify_inputs(seed: int) -> list[VerifyOp]:
    rng = random.Random(f"verify-{seed}")
    ops = []
    for op, spec, alpha in VERIFY_SLOTS:
        if spec.startswith("R"):
            n, r = (int(x) for x in spec[1:].split("-"))
            base = fixed_base("R", n, r)
        else:
            base = regular_family(spec)
        ops.append(VerifyOp(spec, op, relabelled(*base, rng), alpha))
    for op, alpha_text in VERIFY_FAULTS:
        ops.append(VerifyOp("C4", op, C4_EDGES, alpha_text, fault=True))
    return ops


def cli_inputs(seed: int) -> tuple[list[CliOp], dict[str, bytes]]:
    """Commands plus the edge-list files they read (name -> contents).

    The seed picks the weights and the labellings of the three files; the
    graphs are fixed.  File sources are written as ``file:{dir}/<name>``;
    the caller fills in the directory once the files exist.
    """
    rng = random.Random(f"cli-{seed}")
    files = {"g0.txt": relabelled(*fixed_base("G", 12, 20), rng),
             "g1.txt": relabelled(*fixed_base("R", 12, 3), rng),
             "g2.txt": relabelled(*fixed_base("G", 10, 16), rng)}

    def tenth() -> str:
        return f"0.{rng.randrange(1, 10)}"

    lo = rng.randrange(1, 7)
    cmds = [
        CliOp(("energy", "op:closed-splitting:C7", "--alpha", tenth()), "energy"),
        CliOp(("energy", "file:{dir}/g0.txt", "--alpha", tenth(), "--json"), "energy-json"),
        CliOp(("spectrum", "op:middle:C6", "--alpha", tenth(), "--exact"), "spectrum"),
        CliOp(("spectrum", "op:ebd:K3,3", "--alpha", tenth()), "spectrum"),
        CliOp(("verify", "closed-splitting", "C8", "--alphas", f"0.{lo}:0.{lo + 2}:0.1"),
              "verify"),
        CliOp(("classify", "op:closed-shadow:C4", "--alpha", tenth(), "--peers",
               "K8", "op:ebd:C4", "op:closed-shadow:K4"), "classify"),
        CliOp(("classify", "file:{dir}/g1.txt", "--alpha", tenth(), "--peers",
               "file:{dir}/g2.txt", "K12"), "classify"),
        CliOp(("sweep", "file:{dir}/g0.txt", "file:{dir}/g1.txt", "--alphas",
               "0:0.9:0.1"), "sweep-csv"),
        CliOp(("sweep", "file:{dir}/g2.txt", "op:shadow:2:C6", "--alphas", "0:0.9:0.1",
               "--format", "json"), "sweep-json"),
        CliOp(("table1",), "table1"),
        CliOp(CLI_FAULT, "usage-error", expect_exit=2),
    ]
    return cmds, files

#!/usr/bin/env python3
"""Benchmark for alphaenergy: three workloads, checked outputs, layer timings.

    python3 perfbench/run.py --workload sweep|verify|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
A run is closed-loop: each operation starts when the previous one ends,
and whole passes over the workload's seeded operation list repeat until
``--seconds`` have passed.  Outputs are then checked against numpy-only
references (``oracle.py``).  The last line of stdout is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a run whose alphaenergy calls are wrapped by
``tracer.py``.  Details of the run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy is loaded

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from mem_child import MARK as RSS_MARK, status_kb  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
SETUP_PROBES = 7
TRACE_MARK = "PERFBENCH_TRACE "

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# (metric, source, key, unit): "self" reads a layer's self time and "count"
# a counter, both divided by the number of passes; "max" reads a maximum.
PER_LAYER = (
    ("linalg.eig_s", "self", "linalg.eig", "s"),
    ("linalg.eig_calls", "count", "linalg.eig_calls", "count"),
    ("linalg.eig_n3", "count", "linalg.eig_n3", "count"),
    ("linalg.charpoly_s", "self", "linalg.charpoly", "s"),
    ("linalg.charpoly_calls", "count", "linalg.charpoly_calls", "count"),
    ("linalg.roots_s", "self", "linalg.roots", "s"),
    ("linalg.roots_found", "count", "linalg.roots_found", "count"),
    ("closed_forms.base_s", "self", "closed_forms.base", "s"),
    ("closed_forms.cf_s", "self", "closed_forms.cf", "s"),
    ("closed_forms.verify_self_s", "self", "closed_forms.verify", "s"),
    ("closed_forms.exact_runs", "count", "closed_forms.exact_runs", "count"),
    ("closed_forms.worst_dev", "max", "closed_forms.worst_dev", "1"),
    ("spectra.matrix_s", "self", "spectra.matrix", "s"),
    ("spectra.exact_matrix_s", "self", "spectra.exact_matrix", "s"),
    ("spectra.energy_self_s", "self", "spectra.energy", "s"),
    ("analysis.sweep_self_s", "self", "analysis.sweep", "s"),
    ("analysis.format_s", "self", "analysis.format", "s"),
    ("graphs.build_s", "self", "graphs.build", "s"),
    ("graphs.calls", "count", "graphs.calls", "count"),
    ("ops.apply_s", "self", "ops.apply", "s"),
    ("ops.calls", "count", "ops.calls", "count"),
    ("ops.vertices_built", "count", "ops.vertices_built", "count"),
    ("cli.process_s", "self", "cli.process", "s"),
    ("cli.import_s", "self", "cli.import", "s"),
    ("cli.main_s", "self", "cli.main", "s"),
    ("bench.pass_s", "self", "bench.pass", "s"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


# ----------------------------------------------------------------------
# workloads: ops (the seeded list), run(op) -> output, failed(op, output),
# check_all(first pass's outputs) -> list of check failures

class Sweep:
    """One operation: build a graph, sweep_table over the tenth grid, CSV."""

    def __init__(self, seed: int) -> None:
        from alphaenergy import analysis
        self.ops = inputs.sweep_inputs(seed)
        self.grid = analysis.tenth_grid()

    def run(self, op):
        from alphaenergy import analysis, graphs, ops
        try:
            if op.family is None:
                g = graphs.read_edge_list(op.edges)
            elif op.family.startswith("C"):
                g = graphs.cycle(int(op.family[1:]))
            elif "," in op.family:
                a, b = op.family[1:].split(",")
                g = graphs.complete_bipartite(int(a), int(b))
            else:
                g = graphs.complete(int(op.family[1:]))
            if op.op is not None:
                g = ops.apply_op(ops.parse_op(op.op), g)
            table = analysis.sweep_table([(op.label, g)], self.grid)
            return table.cells[0], analysis.format_csv(table)
        except (ValueError, ArithmeticError) as e:
            return e

    def failed(self, op, out) -> bool:
        return isinstance(out, Exception)

    def check_all(self, outputs) -> list[str]:
        problems, table = [], {}
        for op, out in zip(self.ops, outputs):
            if self.failed(op, out):
                continue
            base = oracle.parse_edges(op.edges) if op.family is None else oracle.family(op.family)
            adj = oracle.operated(op.op, base) if op.op else base
            problems += oracle.check_sweep(op.label, *out, oracle.sweep_reference(adj))
            table[op.label] = out[0]
        return problems + oracle.check_known_rows(table)


def parse_alpha(text: str):
    """A weight given as "k/d" (exact) or as decimal text."""
    from alphaenergy import spectra
    if "/" in text:
        return spectra.AlphaValue.from_fraction(Fraction(text))
    return spectra.AlphaValue.parse(text)


def closed_form_values(op_text: str, g, a) -> tuple[float, ...]:
    """alphaenergy's closed-form spectrum for op(g) at weight a."""
    from alphaenergy import closed_forms as cf, ops
    op = ops.parse_op(op_text)
    return cf._CF_DISPATCH[op.name](cf.RegularBase.from_graph(g), op.param, a, None).values


class Verify:
    """One operation: one verify_closed_form record, exact oracle included."""

    def __init__(self, seed: int) -> None:
        self.ops = inputs.verify_inputs(seed)

    def run(self, op):
        from alphaenergy import closed_forms, graphs
        try:
            g = graphs.read_edge_list(op.edges)
            return closed_forms.verify_closed_form(op.op, g, parse_alpha(op.alpha),
                                                   base_id=op.label)
        except (ValueError, ArithmeticError) as e:
            return e

    def failed(self, op, out) -> bool:
        return isinstance(out, Exception) or not out.passed

    def check_all(self, outputs) -> list[str]:
        from alphaenergy import graphs
        problems = []
        for op, out in zip(self.ops, outputs):
            if self.failed(op, out):
                continue
            a = parse_alpha(op.alpha)
            cf = closed_form_values(op.op, graphs.read_edge_list(op.edges), a)
            block = oracle.operated(op.op, oracle.parse_edges(op.edges))
            problems += oracle.check_verify(out, op.op, op.label, a.numeric, cf,
                                            oracle.spectrum(block, a.numeric))
        return problems


class Cli:
    """One operation: one cold ``python -m alphaenergy.cli`` process."""

    def __init__(self, seed: int, tracer=None) -> None:
        cmds, self.files = inputs.cli_inputs(seed)
        self.dir = TMP_DIR / str(os.getpid())
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (self.dir / name).write_bytes(data)
        rel = self.dir.relative_to(ROOT).as_posix()
        self.ops = [dataclasses.replace(c, argv=tuple(a.replace("{dir}", rel) for a in c.argv))
                    for c in cmds]
        self.tracer = tracer
        self.env = child_env()

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass

    def run(self, op):
        if self.tracer is None:
            argv = [sys.executable, "-m", "alphaenergy.cli", *op.argv]
        else:
            argv = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), *op.argv]
        t0 = time.perf_counter()
        with open(self.dir / "stdout", "w+b") as out, open(self.dir / "stderr", "w+b") as err:
            code = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env).wait()
            elapsed = time.perf_counter() - t0
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        if self.tracer is not None:
            stderr = self.take_trace(stderr, elapsed)
        return code, stdout, stderr

    def take_trace(self, stderr: str, elapsed: float) -> str:
        """Fold the child's import times and layer dump into the tracer;
        return stderr without those lines."""
        kept = []
        imports_us = 0
        for line in stderr.splitlines(keepends=True):
            if line.startswith("import time:"):
                fields = line.split("|")
                if fields[1].strip().isdigit() and not fields[2].startswith("  "):
                    imports_us += int(fields[1])        # top-level imports only
            elif line.startswith(TRACE_MARK):
                dump = json.loads(line[len(TRACE_MARK):])
                self.tracer.merge(dump["self_s"], dump["counts"])
            else:
                kept.append(line)
        t = self.tracer
        t.self_s["cli.process"] += elapsed
        t.self_s["cli.import"] += imports_us * 1e-6
        return "".join(kept)

    def rss_added_kb(self) -> int:
        """Run every command once more, untimed, under mem_child.py; the
        most resident memory one command adds above its set-up level."""
        added = 0
        for op in self.ops:
            proc = subprocess.run([sys.executable, str(HERE / "mem_child.py"), *op.argv],
                                  stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, cwd=ROOT, env=self.env, text=True)
            marks = [ln.split() for ln in proc.stderr.splitlines()
                     if ln.startswith(RSS_MARK)]
            if not marks:
                raise RuntimeError(f"no memory figures from {' '.join(op.argv)}")
            added = max(added, int(marks[-1][2]) - int(marks[-1][1]))
        return added

    def failed(self, op, out) -> bool:
        code, _, stderr = out
        return bool(oracle.check_process(code, stderr, op.expect_exit))

    def check_all(self, outputs) -> list[str]:
        from alphaenergy import cli, spectra
        cache = {}

        def graph(src):
            if src not in cache:
                cache[src] = oracle.source(src, self.files)
            return cache[src]

        def closed_form(op_text, src, a):
            g = cli.parse_graph_source(src)[1]
            return closed_form_values(op_text, g, spectra.AlphaValue.from_fraction(a))

        problems = []
        for op, out in zip(self.ops, outputs):
            if not self.failed(op, out):
                problems += [f"{' '.join(op.argv)}: {p}" for p in
                             oracle.check_cli(op.kind, op.argv, out[1], graph, closed_form)]
        return problems


WORKLOADS = {"sweep": Sweep, "verify": Verify, "cli": Cli}


# ----------------------------------------------------------------------
# running

# The reference kernel (calibrate.py) timed between operations.
KERNEL = {"sweep": "eigen", "verify": "exact", "cli": "spawn"}
PROBE_KERNEL = "spawn"
KERNEL_WINDOW = 3     # kernel runs on each side of an operation


def scaled_times(kind: str, order: list[tuple[int, float]], kernels: list[float],
                 n_ops: int) -> list[list[float]]:
    """Each operation's time at the reference speed of kernel ``kind``.

    ``order`` lists (op index, seconds) in run order and ``kernels[j]`` is
    the kernel run just before the j-th operation (plus one after the
    last).  An operation is scaled by the median of the KERNEL_WINDOW
    kernel runs on either side of it.
    """
    out: list[list[float]] = [[] for _ in range(n_ops)]
    for j, (i, elapsed) in enumerate(order):
        near = kernels[max(0, j + 1 - KERNEL_WINDOW):j + 1 + KERNEL_WINDOW]
        out[i].append(elapsed * calibrate.REFERENCE_S[kind] / statistics.median(near))
    return out


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh benchmark process until it has
    imported alphaenergy and generated its inputs, raw and scaled by the
    median of PROBE_KERNEL runs, two before and two after."""
    kernels = [calibrate.kernel_s(PROBE_KERNEL) for _ in range(2)]
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--setup-probe",
                             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            cwd=ROOT, env=child_env())
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    kernels += [calibrate.kernel_s(PROBE_KERNEL) for _ in range(2)]
    ref = calibrate.REFERENCE_S[PROBE_KERNEL]
    return elapsed, elapsed * ref / statistics.median(kernels)


def make_workload(name: str, seed: int, tracer=None):
    import alphaenergy  # noqa: F401  (the whole package, as users import it)
    return Cli(seed, tracer) if name == "cli" else WORKLOADS[name](seed)


def run_passes(work, seconds: float, kernel=None, probe=None, tracer=None) -> dict:
    """Closed loop: whole passes until ``seconds`` have passed.

    With ``kernel``, that reference kernel is timed between every two
    operations, and each operation's time is also kept scaled to the
    kernel's reference speed.  ``probe`` is called SETUP_PROBES times,
    spread evenly over the run, between operations.  Only the first
    pass's outputs are kept; later passes are compared with them, and the
    operations whose output changed are listed under "unstable".
    """
    raw = [[] for _ in work.ops]
    outputs, unstable = [], set()
    order: list[tuple[int, float]] = []
    kernels: list[float] = []
    setup: list[tuple[float, float]] = []
    passes = 0
    t0 = time.perf_counter()
    while True:
        for i, op in enumerate(work.ops):
            if tracer is not None:
                tracer.op = (passes, i)
            if kernel:
                kernels.append(calibrate.kernel_s(kernel))
            s = time.perf_counter()
            out = work.run(op)
            elapsed = time.perf_counter() - s
            raw[i].append(elapsed)
            if passes == 0:
                outputs.append(out)
            elif not same_outputs(out, outputs[i]):
                unstable.add(i)
            order.append((i, elapsed))
            due = len(setup) * seconds / SETUP_PROBES
            if probe and len(setup) < SETUP_PROBES and time.perf_counter() - t0 >= due:
                setup.append(probe())
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    if kernel:
        kernels.append(calibrate.kernel_s(kernel))
    while probe and len(setup) < SETUP_PROBES:
        setup.append(probe())
    scaled = scaled_times(kernel, order, kernels, len(work.ops)) if kernel else raw
    return {"raw": raw, "scaled": scaled, "outputs": outputs, "unstable": unstable,
            "setup": setup, "kernels": kernels, "passes": passes, "wall": wall}


def same_outputs(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return repr(a) == repr(b)
    return a == b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "alphaenergy" / "__init__.py").is_file():
        print(f"error: alphaenergy sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        work = make_workload(args.workload, args.seed)
        print("ready", flush=True)
        if hasattr(work, "close"):
            work.close()
        return 0

    tracer = restore = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    work = make_workload(args.workload, args.seed, tracer)
    rss_setup_kb = status_kb("VmRSS")
    try:
        if tracer is None:
            run = run_passes(work, args.seconds, kernel=KERNEL[args.workload],
                             probe=lambda: probe_setup(args.workload, args.seed))
        else:
            restore = tracing.install(tracer)
            try:
                run = run_passes(work, args.seconds, kernel=KERNEL[args.workload],
                                 tracer=tracer)
            finally:
                restore()
        rss_added_kb = status_kb("VmHWM") - rss_setup_kb
        if tracer is None and isinstance(work, Cli):
            rss_added_kb = work.rss_added_kb()
        outputs, passes = run["outputs"], run["passes"]
        problems = [f"op {i}: output differs between passes" for i in sorted(run["unstable"])]
        problems += work.check_all(outputs)
    finally:
        if hasattr(work, "close"):
            work.close()

    failed_ops = [i for i, (op, out) in enumerate(zip(work.ops, outputs))
                  if work.failed(op, out)]

    def summary(times, setup):
        op_medians = [statistics.median(ts) for ts in times]
        return {"ops_per_s": len(work.ops) / sum(op_medians),
                "op_p50_ms": 1000.0 * statistics.median(op_medians),
                "setup_s": statistics.median(setup) if setup else None}

    raw = summary(run["raw"], [r for r, _ in run["setup"]])
    if tracer is None:
        values = summary(run["scaled"], [s for _, s in run["setup"]])
        values["peak_rss_mb"] = rss_added_kb / 1024.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        tracer.self_s["bench.pass"] = sum(sum(ts) for ts in run["raw"])
        metrics = {}
        for name, source, key, unit in PER_LAYER:
            if source == "max":
                value = tracer.counts.get(key, 0)
            elif source == "self":
                value = tracer.self_s.get(key, 0.0) / passes
            else:
                value = tracer.counts.get(key, 0) / passes
                value = int(value) if value == int(value) else value
            metrics[name] = {"value": value, "unit": unit}

    result = {"correct": not problems, "attempted": passes * len(work.ops),
              "failed": passes * len(failed_ops), "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": passes, "wall_s": run["wall"], "unscaled": raw,
              "setup_samples_s": run["setup"], "rss_added_kb": rss_added_kb,
              "failed_ops": [repr(work.ops[i]) for i in failed_ops],
              "problems": problems, "op_times_s": run["raw"],
              "op_times_scaled_s": run["scaled"], "kernel_s": run["kernels"],
              "result": result}
    if tracer is not None:
        detail["spans"] = tracer.spans
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, default=str) + "\n")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload}: {passes} passes of {len(work.ops)} ops in {run['wall']:.2f} s, "
          f"{len(failed_ops)} failing ops per pass, {len(problems)} check problems; "
          f"unscaled {raw['ops_per_s']:.4f} ops/s, p50 {raw['op_p50_ms']:.2f} ms",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

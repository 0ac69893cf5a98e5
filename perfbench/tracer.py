"""Layer timings taken from outside alphaenergy.

``install`` replaces public alphaenergy functions by timing wrappers at the
module attributes where callers look them up (the import sites), and puts
the originals back when the returned function is called.  Nothing under
``src/`` changes.  Each wrapper records a span (operation id, layer,
parent layer, start, end); a layer's self time is its span's duration
minus the time of the wrapped calls inside it, so the self times of all
layers add up to the traced time spent inside alphaenergy.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

WORST_DEV = "closed_forms.worst_dev"    # a maximum, not a sum

class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.spans: list[tuple] = []
        self.stack: list[list] = []     # [layer, time of wrapped calls inside]
        self.op = None                  # id of the operation being run

    def wrap(self, layer: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.self_s[layer] += (t1 - t0) - frame[1]
                parent = self.stack[-1] if self.stack else None
                if parent is not None:
                    parent[1] += t1 - t0
                self.spans.append((self.op, layer, parent and parent[0], t0, t1))
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def merge(self, self_s: dict, counts: dict) -> None:
        """Add another tracer's totals (a traced cli child's) to these."""
        for k, v in self_s.items():
            self.self_s[k] += v
        for k, v in counts.items():
            if k == WORST_DEV:
                self.counts[k] = max(self.counts[k], v)
            else:
                self.counts[k] += v


# ----------------------------------------------------------------------
# counters, called after a wrapped call returns

def _graph_built(t, args, result):
    t.counts["graphs.calls"] += 1


def _op_applied(t, args, result):
    t.counts["ops.calls"] += 1
    t.counts["ops.vertices_built"] += result.p


def _eig(t, args, result):
    n = len(result.values)
    t.counts["linalg.eig_calls"] += 1
    t.counts["linalg.eig_n3"] += n ** 3


def _charpoly(t, args, result):
    t.counts["linalg.charpoly_calls"] += 1


def _roots(t, args, result):
    t.counts["linalg.roots_found"] += len(result)


def _verified(t, args, result):
    if result.passed:
        t.counts[WORST_DEV] = max(t.counts[WORST_DEV], result.max_dev)


def _wrap_verify(t: Tracer, fn: Callable) -> Callable:
    """verify_closed_form, also counting records on which the exact oracle ran."""
    traced = t.wrap("closed_forms.verify", fn, _verified)

    @functools.wraps(fn)
    def verify(*args, **kwargs):
        before = t.counts["linalg.charpoly_calls"]
        try:
            return traced(*args, **kwargs)
        finally:
            if t.counts["linalg.charpoly_calls"] > before:
                t.counts["closed_forms.exact_runs"] += 1
    return verify


def install(t: Tracer) -> Callable[[], None]:
    """Wrap alphaenergy's public functions where they are looked up.

    Returns a function that restores the originals.
    """
    from alphaenergy import analysis, cli, closed_forms, graphs, ops, spectra

    ops_fns = ("splitting_graph", "closed_splitting_graph", "closed_shadow_graph",
               "ebd_graph", "shadow_graph", "duplicate_graph")
    cf_fns = ("cf_middle_spectrum", "cf_central_spectrum", "cf_splitting_spectrum",
              "cf_closed_splitting_spectrum", "cf_closed_shadow_spectrum",
              "cf_ebd_spectrum")
    # (owner, attribute, layer, counter).  closed_forms, cli and analysis
    # import these names and call them; the benchmark itself calls through
    # graphs, ops, analysis and closed_forms.
    sites = [(graphs.Graph, "__post_init__", "graphs.build", _graph_built),
             (graphs, "read_edge_list", "graphs.build", None),
             (cli, "read_edge_list", "graphs.build", None),
             (ops, "apply_op", "ops.apply", _op_applied),
             (closed_forms, "apply_op", "ops.apply", _op_applied),
             (cli, "apply_op", "ops.apply", _op_applied),
             *[(analysis, name, "ops.apply", _op_applied) for name in ops_fns],
             (spectra, "a_alpha_matrix", "spectra.matrix", None),
             (closed_forms, "a_alpha_exact", "spectra.exact_matrix", None),
             (cli, "a_alpha_exact", "spectra.exact_matrix", None),
             (analysis, "alpha_energy", "spectra.energy", None),
             (cli, "alpha_energy", "spectra.energy", None),
             (spectra, "sym_eigenvalues", "linalg.eig", _eig),
             (closed_forms, "sym_eigenvalues", "linalg.eig", _eig),
             (closed_forms, "charpoly_exact", "linalg.charpoly", _charpoly),
             (cli, "charpoly_exact", "linalg.charpoly", _charpoly),
             (closed_forms, "poly_roots_real", "linalg.roots", _roots),
             (cli, "poly_roots_real", "linalg.roots", _roots),
             *[(closed_forms, name, "closed_forms.cf", None) for name in cf_fns],
             (analysis, "sweep_table", "analysis.sweep", None),
             (cli, "sweep_table", "analysis.sweep", None),
             *[(cli, name, "analysis.format", None)
               for name in ("format_csv", "format_table_json", "energy_report_json")],
             (analysis, "format_csv", "analysis.format", None)]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _, _ in sites]
    for owner, name, layer, count in sites:
        setattr(owner, name, t.wrap(layer, getattr(owner, name), count))

    base = closed_forms.RegularBase.__dict__["from_graph"]
    traced_base = t.wrap("closed_forms.base", base.__func__)
    closed_forms.RegularBase.from_graph = classmethod(traced_base)
    saved.append((closed_forms.RegularBase, "from_graph", base))
    for owner in (closed_forms, cli):
        saved.append((owner, "verify_closed_form", owner.verify_closed_form))
        owner.verify_closed_form = _wrap_verify(t, owner.verify_closed_form)

    def restore() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
    return restore

"""Command-line interface.

Usage:
    alphaenergy gen C5
    alphaenergy op splitting:2 C4
    alphaenergy spectrum op:middle:C4 --alpha 0.25
    alphaenergy energy op:closed-shadow:C4 --alpha 0.5
    alphaenergy sweep K8 op:splitting:1:C4 --alphas 0:0.9:0.1 --format csv
    alphaenergy verify ebd C6 --alphas 0:0.75:0.25
    alphaenergy classify op:closed-shadow:C4 --alpha 0.3 --peers K8
    alphaenergy table1

Graph sources: C<n>, P<n>, K<n>, K<a>,<b>, petersen, file:<path>,
op:<operation>:<source> (operations nest).

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 stdout closed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from .analysis import (DEFAULT_TOL, format_csv, format_table_json, energy_report_json,
                       classify, sweep_table, table1)
from .closed_forms import CLOSED_FORMS, VERIFY_TOL, closed_form_base, verify_closed_form
from .graphs import (DIGITS, Graph, degree_info, natural, parse_family, read_edge_list,
                     write_edge_list)
from .ops import OPS, OpDescriptor, apply_op, op_label, parse_op, split_op
from .spectra import (AlphaValue, alpha_energy, alpha_spectrum, a_alpha_exact,
                      plain_decimal)
from .linalg import (CHARPOLY_MAX_N, SYM_EIG_MAX_N, charpoly_exact, make_spectrum,
                     poly_roots_real)

MAX_GRID_POINTS = 10001   # a weight grid of step 1e-4 over [0, 1]
_TOL_RE = re.compile(rf"{DIGITS}(\.{DIGITS})?([eE][-+]?{DIGITS})?")


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _usage(prefix: str = ""):
    """Turn a ValueError raised inside the block into a UsageError."""
    try:
        yield
    except ValueError as e:
        raise UsageError(f"{prefix}{e}") from None


def parse_graph_source(text: str, ops: Sequence[OpDescriptor] = ()) -> tuple[str, Graph]:
    """Resolve a source string to (label, graph), the label as typed, with ``ops``
    (outermost first) applied after its own.  The ``op:`` prefixes are peeled in
    a loop and applied inside out; over a family the innermost operation is
    sized from the family's counts before the family is built."""
    ops, label = list(ops), text
    while text.startswith("op:"):
        with _usage():
            op, rest = split_op(text[3:])
        if not rest:
            raise UsageError(f"operation source needs 'op:<operation>:<source>', got {text!r}")
        ops.append(op)
        text = rest
    if text.startswith("file:"):
        p = Path(text[5:])
        if not p.is_file():
            raise UsageError(f"no such file: {p}")
        with _usage(f"bad edge list in {p}: "):  # EdgeListError, or a header over a cap
            g = read_edge_list(p.read_bytes())
    else:
        with _usage():
            build, counts = parse_family(text)
            if ops:
                op = ops[-1]
                OPS[op.name].check_counts(*counts, *op.args)
            g = build()
    with _usage():
        for op in reversed(ops):
            g = apply_op(op, g)
    return label, g


def _operation(text: str) -> OpDescriptor:
    with _usage():
        return parse_op(text)


def _closed_form_op(text: str) -> OpDescriptor:
    op = _operation(text)
    if op.name not in CLOSED_FORMS:
        raise UsageError(f"no closed form for operation {text!r}")
    return op


def _alpha(text: str) -> AlphaValue:
    with _usage():
        return AlphaValue.parse(text)


def _grid_bound(text: str) -> Fraction:
    """A grid bound or step: a plain decimal, as --alpha takes, or <int>/<int>."""
    num, sep, den = text.partition("/")
    return Fraction(natural(num), natural(den)) if sep else plain_decimal(text)


def _parse_alpha_grid(text: str) -> list[AlphaValue]:
    """Parse 'lo:hi:step' into an inclusive grid of exact weights."""
    try:   # a count of parts other than three fails the unpacking
        lo, hi, step = (_grid_bound(p) for p in text.split(":"))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"alpha grid must be lo:hi:step, got {text!r}") from None
    if step <= 0 or lo > hi:
        raise UsageError(f"empty alpha grid {text!r}")
    if hi > 1:   # a bound has no sign, so lo >= 0
        raise UsageError(f"alpha grid must lie in [0, 1], got {text!r}")
    count = (hi - lo) // step + 1
    if count > MAX_GRID_POINTS:
        raise UsageError(f"alpha grid {text!r} has more than the cap of {MAX_GRID_POINTS} points")
    return [AlphaValue.from_fraction(lo + k * step) for k in range(count)]


def _below_one(parse: Callable, what: str) -> Callable:
    """The argparse type ``parse`` (a weight or a grid) that also refuses a
    weight of 1 or more, as the energy commands (``what``) do."""
    def checked(text: str):
        value = parse(text)
        if any(a.numeric >= 1.0 for a in (value if isinstance(value, list) else [value])):
            raise UsageError(f"{what} needs alpha < 1")
        return value
    return checked


def _tolerance(text: str) -> float:
    """A --tol value, finite and >= 0 (a NaN tolerance fails every check and an
    infinite one passes every check): digits, an optional fraction and exponent."""
    tol = float(text) if _TOL_RE.fullmatch(text) else math.inf
    if not math.isfinite(tol):
        raise UsageError(f"--tol must be a finite number >= 0, got {text!r}")
    return tol


def _measurable(label: str, n: int) -> None:
    """Reject, before any work, an order the numeric eigensolver cannot take."""
    if not 1 <= n <= SYM_EIG_MAX_N:
        raise UsageError(f"{label} has {n} vertices; numeric commands need 1..{SYM_EIG_MAX_N}")


def _numeric_source(text: str, op: Optional[OpDescriptor] = None) -> tuple[str, Graph]:
    """A source for a numeric command: parsed, measurable and built.  With
    ``op`` (verify's operation), the operated order must be measurable too,
    and the built base must pass ``closed_form_base``, which solves nothing.
    A family, and ``op`` on it, are sized from the family's counts before it
    is built; a file or ``op:`` source is built first."""
    family = not text.startswith(("op:", "file:"))
    if family:
        with _usage():
            build, counts = parse_family(text)
    else:
        text, g = parse_graph_source(text)
    _measurable(text, counts[0] if family else g.p)
    if op is not None:
        with _usage():
            n, _ = (OPS[op.name].check_counts(*counts, *op.args) if family
                    else OPS[op.name].check(g, *op.args))
        _measurable(f"op:{op_label(op)}:{text}", n)
    g = build() if family else g
    if op is not None:
        with _usage():   # an irregular base, or the form's unmet precondition
            closed_form_base(op, g)
    return text, g


class _OperatedSource(argparse.Action):
    """A source resolved with its operation by ``const(text, op)``; argparse converts
    positionals in argv order, so the operation is converted and no later input is."""

    def __call__(self, parser, namespace, text, option_string=None):
        setattr(namespace, self.dest, self.const(text, namespace.operation))


def _cmd_gen(args) -> int:
    sys.stdout.write(write_edge_list(args.source[1]).decode("ascii"))
    return 0


def _cmd_spectrum(args) -> int:
    (_, g), a = args.source, args.alpha
    if args.exact:
        if a.exact is None:
            raise UsageError("--exact needs a rational alpha with denominator at most "
                             "10^15 (up to 15 decimal places)")
        if g.p > CHARPOLY_MAX_N:
            raise UsageError(f"--exact supports at most {CHARPOLY_MAX_N} vertices")
        spec = make_spectrum(poly_roots_real(charpoly_exact(*a_alpha_exact(g, a))))
    else:
        spec = alpha_spectrum(g, a)
    for value, mult in spec.groups:
        if abs(value) < 5e-11:   # keep "-0.0000000000" out of the output
            value = 0.0
        print(f"{value:.10f} {mult}")
    return 0


def _cmd_energy(args) -> int:
    label, g = args.source
    if args.json:
        rep = alpha_energy(g, args.alpha, graph_id=label)
        sys.stdout.write(energy_report_json(rep, degree_info(g).regular))
    else:
        print(round(alpha_energy(g, args.alpha).energy, 6))
    return 0


def _write_table(table, fmt: str) -> int:
    sys.stdout.write(format_csv(table) if fmt == "csv" else format_table_json(table))
    return 0


def _cmd_sweep(args) -> int:
    return _write_table(sweep_table(args.sources, args.alphas), args.format)


def _cmd_verify(args) -> int:
    op, (label, g) = args.operation, args.source
    ok = True
    for a in args.alphas:
        rec = verify_closed_form(op, g, a, tol=args.tol, base_id=label)
        print(json.dumps(rec.to_json_dict()))
        ok = ok and rec.passed
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    label, g = args.source
    res = classify(g, args.alpha, peers=args.peers, tol=args.tol, graph_id=label)
    print(json.dumps({
        "graph": res.graph_id, "alpha": res.alpha, "energy": res.energy,
        "reference": res.reference, "verdict": res.verdict,
        "equal_partners": list(res.equal_partners)}, indent=2))
    return 0


def _cmd_table1(args) -> int:
    return _write_table(table1(), args.format)


class _Parser(argparse.ArgumentParser):
    """argparse that drops a message its stream refuses, on 3.10 as on 3.12."""

    def _print_message(self, message, file=None):
        with contextlib.suppress(OSError):
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="alphaenergy", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print a graph as an edge list")
    p.add_argument("source", type=parse_graph_source)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("op", help="apply an operation and print the edge list")
    p.add_argument("operation", type=_operation)
    p.add_argument("source", action=_OperatedSource,
                   const=lambda text, op: parse_graph_source(text, [op]))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spectrum", help="print eigenvalues with multiplicities")
    p.add_argument("source", type=_numeric_source)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--exact", action="store_true",
                   help="use the rational characteristic polynomial route")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("energy", help="print the energy at one weight")
    p.add_argument("source", type=_numeric_source)
    p.add_argument("--alpha", type=_below_one(_alpha, "energy"), required=True)
    p.add_argument("--json", action="store_true", help="full report as JSON")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("sweep", help="energy table over a weight grid")
    p.add_argument("sources", type=_numeric_source, nargs="+")
    p.add_argument("--alphas", type=_below_one(_parse_alpha_grid, "energy sweep"),
                   default="0:0.9:0.1", help="grid lo:hi:step")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="closed form vs. numeric spectrum")
    p.add_argument("operation", type=_closed_form_op)
    p.add_argument("source", action=_OperatedSource, const=_numeric_source)
    p.add_argument("--alphas", type=_parse_alpha_grid, default="0:0.75:0.25",
                   help="grid lo:hi:step")
    p.add_argument("--tol", type=_tolerance, default=VERIFY_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="borderenergetic/hyperenergetic verdict")
    p.add_argument("source", type=_numeric_source)
    p.add_argument("--alpha", type=_below_one(_alpha, "classification"), required=True)
    p.add_argument("--peers", type=_numeric_source, nargs="*", default=[])
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("table1", help="headline energy table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_table1)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe shows here, not in the exit-time flush
    except SystemExit as e:     # argparse's own usage errors, and --help
        code = e.code if isinstance(e.code, int) else 2
    except UsageError as e:     # from an argument's type, or from a command
        with contextlib.suppress(BrokenPipeError):   # the flush below meets it again
            print(f"error: {e}", file=sys.stderr)
        code = 2
    except BrokenPipeError:     # stdout's reader is gone, as after `| head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())   # a quiet exit flush
        return 141              # 128 + SIGPIPE, as a shell reports it
    try:                        # argparse drops a failed write but keeps it buffered
        sys.stderr.flush()
    except BrokenPipeError:     # stderr's reader is gone: a quiet exit flush, same code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

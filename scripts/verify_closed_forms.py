#!/usr/bin/env python3
"""Closed-form verification battery.

Runs every closed-form operation instance against a menagerie of regular
base graphs over a weight grid, checking the predicted spectrum against
the numeric eigensolver (and the exact rational oracle where it applies).
Where the operated graph has n <= CHARPOLY_MAX_N vertices it also proves
the form's characteristic-polynomial identity at a = t/n, t = 0..n, which
holds then for every weight.  Prints one line per (operation, base) with
the worst deviation seen, and exits 1 if anything lands outside tolerance
or an identity fails.
"""

import argparse
import sys
from fractions import Fraction

from alphaenergy.cli import MAX_GRID_POINTS, UsageError, _grid_bound, _tolerance
from alphaenergy.closed_forms import (CLOSED_FORM_INSTANCES, VERIFY_TOL,
                                      closed_form_identity, verify_closed_form)
from alphaenergy.graphs import complete, complete_bipartite, cycle, petersen
from alphaenergy.linalg import CHARPOLY_MAX_N
from alphaenergy.ops import OPS, parse_op
from alphaenergy.spectra import AlphaValue

BASES = [("C%d" % n, cycle(n)) for n in range(3, 9)]
BASES += [("K%d" % n, complete(n)) for n in range(2, 7)]
BASES += [("K3,3", complete_bipartite(3, 3)), ("petersen", petersen())]
PROVED = "identity proved for every alpha"


def prove(op: str, g) -> str:
    """The identity at a = t/n, t = 0..n: PROVED, "identity FAILED at a = ...",
    or "" when the operated graph is over CHARPOLY_MAX_N."""
    desc = parse_op(op)
    n, _ = OPS[desc.name].check(g, *desc.args)
    if n > CHARPOLY_MAX_N:
        return ""
    for t in range(n + 1):
        if not closed_form_identity(op, g, AlphaValue.from_fraction(Fraction(t, n))):
            return f"identity FAILED at a = {t}/{n}"
    return PROVED


def alpha_grid(step: Fraction) -> list[AlphaValue]:
    grid, a = [], Fraction(0)
    while a < 1:
        grid.append(AlphaValue.from_fraction(a))
        a += step
    return grid


def grid_step(text: str) -> Fraction:
    """Parse the weight grid step: a fraction in (0, 1] of at least
    1/MAX_GRID_POINTS, the command line's grid cap, written as a plain
    decimal or as <int>/<int>, as the command line's grid bounds are."""
    try:
        step = _grid_bound(text)
    except (ValueError, ZeroDivisionError):
        step = None
    if step is None or not Fraction(1, MAX_GRID_POINTS) <= step <= 1:
        raise argparse.ArgumentTypeError(f"step must be a fraction in (0, 1] of at least "
                                         f"1/{MAX_GRID_POINTS}, got {text!r}")
    return step


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=_tolerance, default=VERIFY_TOL)
    ap.add_argument("--step", type=grid_step, default="1/4",
                    help=f"weight grid step, a fraction in (0, 1] of at least 1/{MAX_GRID_POINTS}")
    try:
        args = ap.parse_args(argv)
    except UsageError as e:
        ap.error(str(e))

    grid = alpha_grid(args.step)
    failures = 0
    for op in CLOSED_FORM_INSTANCES:
        for label, g in BASES:
            worst, exact_runs = 0.0, 0
            try:
                for a in grid:
                    rec = verify_closed_form(op, g, a, tol=args.tol, base_id=label)
                    worst = max(worst, rec.max_dev)
                    if rec.passed is False:
                        failures += 1
                    exact_runs += rec.exact_dev is not None
            except ValueError as e:
                print(f"{op:16s} {label:9s} skip ({e})")
                continue
            proof = prove(op, g)
            failures += proof.startswith("identity FAILED")
            status = "ok" if worst <= args.tol else "FAIL"
            print(f"{op:16s} {label:9s} {status:4s} max dev {worst:.3e}"
                  f"  ({len(grid)} weights, {exact_runs} exact)"
                  + (f", {proof}" if proof else ""))
    print(f"{failures} failure(s), tol {args.tol:g}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

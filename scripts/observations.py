#!/usr/bin/env python3
"""Check the headline equienergetic / borderenergetic / hyperenergetic claims.

Every bullet is tested over the full 0.0..0.9 weight grid.  Failures are
listed case by case (use --max-failures to see more of them).
"""

import argparse
import sys

from alphaenergy.analysis import DEFAULT_TOL, observations_report
from alphaenergy.cli import UsageError, _tolerance
from alphaenergy.graphs import natural


def failure_count(text: str) -> int:
    """A --max-failures value: digits alone, as every count in every input."""
    try:
        return natural(text)
    except ValueError:
        raise UsageError(f"--max-failures must be an integer >= 0, got {text!r}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    ap.add_argument("--max-failures", type=failure_count, default=5,
                    help="failure lines to print per bullet")
    try:
        args = ap.parse_args(argv)
    except UsageError as e:
        ap.error(str(e))

    report = observations_report(tol=args.tol)
    for b in report.bullets:
        mark = "PASS" if b.passed else "FAIL"
        print(f"[{mark}] {b.key}: {b.description}")
        for line in b.failures[:args.max_failures]:
            print(f"       {line}")
        if len(b.failures) > args.max_failures:
            print(f"       ... {len(b.failures) - args.max_failures} more")
    print(f"{sum(b.passed for b in report.bullets)}/{len(report.bullets)}"
          f" bullets hold at tol {args.tol:g}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check the headline equienergetic / borderenergetic / hyperenergetic claims.

Every bullet is tested over the full 0.0..0.9 weight grid.  Failures are
listed case by case (use --max-failures to see more of them).
"""

import argparse
import sys

from alphaenergy.analysis import observations_report
from alphaenergy.cli import UsageError, _tolerance


def failure_count(text: str) -> int:
    """A --max-failures value, an integer >= 0."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise UsageError(f"--max-failures must be an integer >= 0, got {text!r}")
    return count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=_tolerance, default=1e-6)
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

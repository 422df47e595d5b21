#!/usr/bin/env python3
"""Scan which eigenvalue levels keep the variation series polynomial.

Writes one JSON report per dimension: the admissible level set, the
exact division remainders, and the normalized series coefficients at
each resonant eigenvalue lambda = k(k+n).  Exits 1, naming each failing
(n, k) on stderr, when a series misses its closed form or the scan
disagrees with the division criterion.
"""

import argparse
import json
import sys
from pathlib import Path

from cpnbergman import (
    admissible_eigenvalue_scan,
    polynomiality_criterion,
    sigma_prime_closed_form,
    variation_series_eigen,
)


def frac(x):
    return "%d/%d" % (x.numerator, x.denominator)


def scan_dimension(n: int, k_max: int, J: int):
    """The report for dimension n, and one line per failed check."""
    levels, failed = [], []
    for k in range(1, k_max + 1):
        lam = k * (k + n)
        series = variation_series_eigen(n, lam, J)
        closed = sigma_prime_closed_form(n, k, J)
        is_poly, rem = polynomiality_criterion(n, k)
        if series.leading_coefficients(J + 1) != closed.leading_coefficients(J + 1):
            failed.append("n=%d k=%d: series differs from the closed form" % (n, k))
        levels.append(
            {
                "k": k,
                "lambda": lam,
                "polynomial": is_poly,
                "remainder_degree": len(rem) - 1,
                "coeffs": [frac(c) for c in series.leading_coefficients(J + 1)],
            }
        )
    admissible = admissible_eigenvalue_scan(n, k_max, J)
    for k in sorted(admissible ^ {level["k"] for level in levels if level["polynomial"]}):
        failed.append("n=%d k=%d: scan and division criterion disagree" % (n, k))
    return {"n": n, "J": J, "admissible": sorted(admissible), "levels": levels}, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=3)
    ap.add_argument("--k-max", type=int, default=6)
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    args = ap.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    for n in range(1, args.n_max + 1):
        report, why = scan_dimension(n, args.k_max, n + 4)
        path = args.out_dir / ("eigenvalue_scan_n%d.json" % n)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print("n=%d admissible=%s -> %s" % (n, report["admissible"], path))
        failed += why
    for line in failed:
        print("eigenvalue scan failed at %s" % line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

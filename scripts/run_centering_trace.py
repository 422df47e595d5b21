#!/usr/bin/env python3
"""Drive the centering solver on the standard test potentials.

Emits one convergence-trace CSV per potential (iteration, step norm,
residual norm) and prints the fixed-point summary.  Exits 1, naming the
potential, when a solve does not converge, when a step above STEP_FLOOR
is followed by one more than half its size, when gauge_diag's fixed
point misses -B by more than GAUGE_TOL, or when eigenbasis_diag's misses
the closed-form centre A* by more than CENTRE_TOL.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

import mpmath
import numpy as np

from cpnbergman import (
    NonConvergenceError,
    TracelessHermitian,
    build_L,
    center,
    eigenbasis_potential,
    first_eigenbasis,
    gauge_potential,
    zero_potential,
)

# Steps at or below this size are rounding, so their ratios are not checked.
STEP_FLOOR = 1e-13
# Largest accepted max |A + B| for the gauge potential rho_B; the default
# run measures 1.9e-13.
GAUGE_TOL = 1e-9
# Largest accepted max |A - A*| for eigenbasis_diag, A* its closed-form
# centre; the default run stops at residual 1.3e-12 and measures 1.2e-12.
CENTRE_TOL = 1e-10


def potentials(scale: float):
    """(name, phi, B) per potential, B being set where phi = rho_B."""
    basis = first_eigenbasis(1)
    b = scale / math.sqrt(2)
    B = TracelessHermitian(np.diag([b, -b]))
    return [
        ("zero", zero_potential, None),
        ("eigenbasis_diag", eigenbasis_potential(basis[2], scale), None),
        ("gauge_diag", gauge_potential(B), B),
    ]


def closed_form_centre(Phi) -> np.ndarray:
    """A* = (d/4)(I - 2 u u*), the A whose rho_{-A} has centering integrals Phi.

    R(A) = K(d) c(u), with c_i = u* T_i u of norm sqrt(3) and
    K(d) = (sinh d - d) / (2 (cosh d - 1)) rising from 0 to 1/2, so u is
    the top eigenvector of sum_i Phi_i T_i and d solves K(d) = |Phi| / sqrt(3),
    here at 50 digits.  A* exists iff |Phi| < sqrt(3) / 2.
    """
    with mpmath.workdps(50):
        k = mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(x)) ** 2 for x in Phi) / 3)

        def K(d):
            return (mpmath.sinh(d) - d) / (2 * (mpmath.cosh(d) - 1))

        # K(d) = d/6 + O(d^3), so 6k starts the root search close by
        d = float(mpmath.findroot(lambda d: K(d) - k, 6 * k)) if k else 0.0
    _, U = np.linalg.eigh(np.einsum("i,ijk->jk", np.asarray(Phi, dtype=float), build_L(1)))
    u = U[:, 1]
    return d / 4.0 * (np.eye(2) - 2.0 * np.outer(u, u.conj()))


def gate(state, B, centre=None) -> str:
    """Why a solve fails the contraction checks, or "" when it passes."""
    if not state.converged:
        return "not converged after %d iterations (residual %.3e)" % (
            state.iteration, state.residual_norm)
    steps = [row[1] for row in state.trace[1:]]
    for prev, cur in zip(steps, steps[1:]):
        if prev > STEP_FLOOR and cur > 0.5 * prev:
            return "step ratio %.3f above 1/2" % (cur / prev)
    if B is not None:
        gap = float(np.max(np.abs(state.A.matrix + B.matrix)))
        if not gap <= GAUGE_TOL:
            return "A misses -B by %.3e" % gap
    if centre is not None:
        gap = float(np.max(np.abs(state.A.matrix - centre)))
        if not gap <= CENTRE_TOL:
            return "A misses the closed-form centre by %.3e" % gap
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=0.05)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--max-iter", type=int, default=50)
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    args = ap.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    # eigenbasis_diag is scale times the orthonormal basis function theta_2,
    # so its centering integrals are Phi = scale e_2
    centres = {"eigenbasis_diag": closed_form_centre([0.0, 0.0, args.scale])}
    failed = []
    for name, phi, B in potentials(args.scale):
        try:
            state = center(phi, tol=args.tol, max_iter=args.max_iter)
        except NonConvergenceError as exc:
            state = exc.state
        path = args.out_dir / ("centering_trace_%s.csv" % name)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in state.trace_csv_rows():
                writer.writerow(row)
        print(
            "%s: converged=%s iters=%d ||A||=%.3e residual=%.3e -> %s"
            % (
                name,
                state.converged,
                state.iteration,
                state.A.norm,
                state.residual_norm,
                path,
            )
        )
        why = gate(state, B, centres.get(name))
        if why:
            failed.append("%s: %s" % (name, why))
    for line in failed:
        print("centering failed for %s" % line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

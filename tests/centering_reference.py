"""Eigendecomposition forms of the CP^1 centering closed forms.

`rho_moments` is the R(A) that `centering` computed before the iteration
moved to the coordinates a_i = tr(A T_i) / 6: one `eigh` of A per call,
u* T_i u from the lam_min column u and d = 2 (lam_max - lam_min).

`fixed_point` is the centre the iteration converges to, found without
iterating: A* = (d/4)(I - 2 u u*), u the top eigenvector of
sum_i Phi_i T_i and d = K^{-1}(|Phi| / sqrt(3)) from mpmath.  It is the
`closed_form_centre` that scripts/run_centering_trace.py gates on.
"""

import importlib.util
from pathlib import Path

import numpy as np

from cpnbergman.centering import _hat_box_kernel


def rho_moments(A, L):
    """R_i(A) = (u* T_i u) K(d) through an eigendecomposition of A."""
    w, U = np.linalg.eigh(A.matrix)
    u = U[:, 0]
    d = 2.0 * (float(w[1]) - float(w[0]))  # Python floats: inf past 1e308, no warning
    return np.einsum("j,ijk,k->i", u.conj(), L, u).real * _hat_box_kernel(d)


def _trace_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_centering_trace.py"
    spec = importlib.util.spec_from_file_location("run_centering_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fixed_point = _trace_script().closed_form_centre

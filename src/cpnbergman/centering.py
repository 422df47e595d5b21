"""Contraction-mapping solver for centrally positioned potentials.

A potential phi is centrally positioned once the automorphism pullback
kills its component along the first Laplace eigenspace.  The step map

    T(A) = A - damping * sum_i v_i(A) T_i,
    v_i(A) = int (phi - rho_{-A}) theta_i  d(FS volume)

fixes exactly the A for which the centering integrals vanish.  The
theta_i = <T_i Z, Z> / |Z|^2 are an orthonormal basis of the eigenspace,
so sum_i v_i T_i is the paper's L^{-1} v.  Pulling the integral back
through the automorphism turns rho_A into -rho_{-A} and leaves the round
measure alone, so v(A) = Phi - R(A): Phi_i = int phi theta_i, computed
once per solve (exact for gauge potentials and Hermitian forms, one
quadrature otherwise), and R_i(A) = int rho_{-A} theta_i, a closed form
on CP^1 by Archimedes' hat-box theorem (the n = 1 case of
Duistermaat-Heckman), with |R| < sqrt(3) / 2.

So a centre exists iff |Phi| < sqrt(3) / 2.  An iterate is
a <- a - damping (Phi - R(a)) on the coordinates a_i = tr(A T_i) / 6 of A
in the basis T_i = build_L(1), at the exact rate of estimate_contraction,
below 1 on bounded balls for damping in (0, 1).  Types are
dimension-generic; the integrals (and so t_step/center) are n = 1 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List

import numpy as np

from .errors import NonConvergenceError, UnsupportedDimensionError
from .projective import EigenBasisFunction, chart_lift, first_eigenbasis
from .quadrature import cp1_integral

_SQRT3, _SQRT6 = math.sqrt(3.0), math.sqrt(6.0)


class TracelessHermitian:
    """(n+1)x(n+1) traceless Hermitian matrix, projected at construction.

    Hermitization is exact in floating point; the last diagonal entry
    balances the others so the trace is exactly zero.
    """

    def __init__(self, matrix):
        M = np.array(matrix, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or not np.all(np.isfinite(M)):
            raise ValueError("matrix must be square and finite")
        M = (M + M.conj().T) / 2.0
        d = M.diagonal().real - M.diagonal().real.mean()
        np.fill_diagonal(M, d)
        M[-1, -1] = -d[:-1].sum()
        self.matrix = M
        self._expm = None

    @classmethod
    def zero(cls, n: int) -> "TracelessHermitian":
        return cls(np.zeros((n + 1, n + 1)))

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def expm(self) -> np.ndarray:
        if self._expm is None:
            w, U = np.linalg.eigh(self.matrix)
            self._expm = (U * np.exp(w)) @ U.conj().T
        return self._expm

    def __repr__(self):
        return f"TracelessHermitian({self.matrix.tolist()!r})"


def rho_potential(A: TracelessHermitian, z):
    """Automorphism potential log(|e^A Z|^2 / |Z|^2) at chart point(s) z."""
    Z = chart_lift(A.n, z)
    # np.tensordot(A.expm(), Z, 1) is this dot on these operands, less its axis bookkeeping
    W = np.dot(A.expm(), Z.reshape(len(Z), -1)).reshape(Z.shape)
    return np.log(np.sum(np.abs(W) ** 2, axis=0) / np.sum(np.abs(Z) ** 2, axis=0))


@dataclass(frozen=True, eq=False)
class GaugePotential:
    """rho_B as a chart potential of z; rho_0 is identically zero.

    Its moments are R(-b) for the coordinates b of B, exact on CP^1; as
    |R| < sqrt(3) / 2 for every B, its centre -B always exists.
    """

    B: TracelessHermitian

    def __call__(self, z):
        return rho_potential(self.B, z)

    def moments(self) -> np.ndarray:
        return _rho_moments(-_coords(self.B.matrix))


@dataclass(frozen=True, eq=False)
class FormPotential:
    """<T Z, Z> / |Z|^2 on CP^1 for a traceless Hermitian 2 x 2 matrix T.

    Its centering integrals are the exact pairings tau_i = tr(T T_i) / 6,
    the coordinates of T, so its centre exists iff |tau| < sqrt(3) / 2.
    """

    matrix: np.ndarray

    def __call__(self, z):
        return _form_ratio(self.matrix, np.asarray(z))

    def moments(self) -> np.ndarray:
        return _coords(self.matrix)


def _form_ratio(T: np.ndarray, z) -> np.ndarray:
    """<T Z, Z> / |Z|^2 = (a00 + a11 s + 2 Re(a01 z)) / (1 + s) at Z = (1, z).

    T is Hermitian of shape (2, 2, ...); its trailing axes broadcast
    against z, so a stack of matrices is evaluated in one pass.
    """
    s = z.real * z.real + z.imag * z.imag
    a01 = T[0, 1]
    return (T[0, 0].real + T[1, 1].real * s
            + 2.0 * (a01.real * z.real - a01.imag * z.imag)) / (1.0 + s)


def gauge_potential(B: TracelessHermitian) -> GaugePotential:
    return GaugePotential(B)


zero_potential = FormPotential(np.zeros((2, 2)))
zero_potential.matrix.flags.writeable = False  # shared by every caller


def eigenbasis_potential(fn: EigenBasisFunction, scale: float) -> FormPotential:
    """scale times the basis function fn of the first eigenspace of CP^1."""
    if fn.n != 1:
        raise UnsupportedDimensionError("eigenbasis potentials are implemented for n = 1 only")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    return FormPotential(scale * fn.matrix)


@lru_cache(maxsize=None)
def build_L(n: int) -> np.ndarray:
    """L^{-1} as an array: the matrices T_i of the orthonormal basis
    theta_i = <T_i Z, Z> / |Z|^2, L sending A to theta_A's coordinates.
    Built once per n and shared read-only."""
    T = np.array([th.matrix for th in first_eigenbasis(n)])
    T.flags.writeable = False
    return T


def _coords(M: np.ndarray) -> np.ndarray:
    """a_i = tr(M T_i) / 6 for a traceless Hermitian 2 x 2 M.  The T_i of
    build_L(1) are sqrt(3) (sigma_x, sigma_y, diag(-1, 1)), so a is read
    off the entries, divided before any sum: finite for every finite M."""
    if M.shape != (2, 2):
        raise UnsupportedDimensionError("centering integrals are implemented for n = 1 only")
    m01 = M[0, 1]
    return np.array([m01.real, -m01.imag, 0.5 * M[1, 1].real - 0.5 * M[0, 0].real]) / _SQRT3


def _matrix(a: np.ndarray) -> TracelessHermitian:
    """A = sum_i a_i T_i, the matrix with coordinates a, from the same entries."""
    a01 = complex(a[0], -a[1])
    return TracelessHermitian(_SQRT3 * np.array([[-a[2], a01], [a01.conjugate(), a[2]]]))


_KERNEL_TAYLOR = tuple((1 / math.factorial(j + 1), 1 / math.factorial(j))
                       for j in range(30, 0, -2))


def _hat_box_kernel(d: float) -> float:
    """K(d) = (sinh d - d) / (2 (cosh d - 1)), within 3 ulps for every d >= 0.

    Below d = 2, K is d times the ratio of the positive Taylor sums of
    (sinh d - d) / d^3 and (cosh d - 1) / d^2, by Horner in d^2 on their
    coefficients 1/(j+1)! and 1/j!, j = 30, 28, ..., 2 (_KERNEL_TAYLOR; the
    first term left out is d^30 / 32! < 1e-26), so nothing cancels and
    K(0) = 0.  Past that the form in e^{-d} cancels little and tends to 1/2.
    """
    if d < 2.0:
        d2, num, den = d * d, 0.0, 0.0
        for a, b in _KERNEL_TAYLOR:
            num, den = num * d2 + a, den * d2 + b
        return d * num / (2.0 * den)
    e = math.exp(-d)
    return 0.5 if e == 0.0 else (1.0 - e * (e + 2.0 * d)) / (2.0 * (1.0 - e) ** 2)


def _rho_moments(a: np.ndarray) -> np.ndarray:
    """R_i(A) = int rho_{-A} theta_i dV_0 = (u* T_i u) K(d) at A = sum_i a_i T_i.

    u is the lam_min eigenvector of A and d = 2 (lam_max - lam_min): rho_{-A}
    depends on t = |<u, Z>|^2 / |Z|^2 alone, t is uniform under dV_0 (the
    hat-box theorem), and the fibre mean of theta_i is (u* T_i u)(2t - 1).
    In coordinates d = 4 sqrt(3) |a| and u* T_i u = -sqrt(3) a_i / |a|; |a|
    is a hypot, finite where a sum of squares overflows (past 1e308 K = 1/2).
    """
    r = math.hypot(*a)
    if r == 0.0:
        return np.zeros(3)
    return (-_SQRT3 * _hat_box_kernel(4.0 * _SQRT3 * r) / r) * a


def _check_damping(damping: float) -> None:
    if not 0.0 < damping < 1.0:  # see estimate_contraction
        raise ValueError(f"damping must lie in (0, 1), got {damping}")


def _t_map(a: np.ndarray, Phi: np.ndarray, damping: float):
    """The centering map in coordinates: (a - damping v(a), v(a)), v = Phi - R."""
    v = Phi - _rho_moments(a)
    return a - damping * v, v


def _phi_moments(phi: Callable) -> np.ndarray:
    """Phi_i = int phi theta_i dV_0: phi.moments() where phi has it, else
    one vector-valued cp1_integral pass at rtol 1e-10, within that
    function's domain."""
    if hasattr(phi, "moments"):
        return phi.moments()
    T = build_L(1).transpose(1, 2, 0)
    return cp1_integral(lambda z: phi(z) * _form_ratio(T.reshape(T.shape + (1,) * np.ndim(z)), z),
                        rtol=1e-10, atol=1e-13)


def centering_residual(A: TracelessHermitian, phi: Callable) -> np.ndarray:
    """The centering integrals v_i(A) = int (phi - rho_{-A}) theta_i dV_0 as
    Phi - R(A): Phi by _phi_moments, R(A) exact (_rho_moments)."""
    return _phi_moments(phi) - _rho_moments(_coords(A.matrix))


def t_step(A: TracelessHermitian, phi: Callable, *, damping: float = 0.5) -> TracelessHermitian:
    """One step of the centering map T(A) = A - damping * sum_i v_i(A) T_i."""
    _check_damping(damping)
    return _matrix(_t_map(_coords(A.matrix), _phi_moments(phi), damping)[0])


@dataclass
class CenteringState:
    iteration: int
    A: TracelessHermitian
    residual: np.ndarray
    step_norm: float
    converged: bool
    trace: tuple  # rows (iteration, step_norm, residual_norm)

    @property
    def residual_norm(self) -> float:
        return math.hypot(*self.residual)

    def trace_csv_rows(self) -> List[tuple]:
        return [("iteration", "step_norm", "residual_norm")] + list(self.trace)


def center(phi: Callable, tol: float = 1e-8, max_iter: int = 50, *,
           damping: float = 0.5) -> CenteringState:
    """Iterate the centering map from A = 0 until the integrals vanish.

    tol must be positive and finite, max_iter at least 0, damping lie in
    (0, 1) and Phi finite (ValueError otherwise).  Phi = int phi theta_i
    dV_0 is computed once (_phi_moments); |R| < sqrt(3) / 2, so for
    |Phi| >= sqrt(3) / 2 no centre exists and NonConvergenceError is
    raised before the first step.  Each iterate is one coordinate step
    (_t_map), shorter than the one before (estimate_contraction), until
    the residual and the step are below tol, which does not bound the
    distance to the centre; else past max_iter NonConvergenceError is
    raised.  Either error carries the state reached.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter = {max_iter} is negative")
    _check_damping(damping)
    Phi = _phi_moments(phi)
    size = math.hypot(*Phi)
    if not math.isfinite(size):
        raise ValueError(f"the potential's centering integrals Phi = {Phi} are not finite")
    if not size < _SQRT3 / 2:
        raise NonConvergenceError(f"no centre exists: |Phi| = {size:.6g} is not below sqrt(3)/2",
                                  state=CenteringState(0, TracelessHermitian.zero(1), Phi, 0.0,
                                                       False, ((0, 0.0, size),)))
    a, trace, step = np.zeros(3), [], 0.0
    for k in range(max_iter + 1):
        new, r = _t_map(a, Phi, damping)
        trace.append((k, step, math.hypot(*r)))
        converged = trace[-1][2] < tol and step < tol  # the residual norm just recorded
        if converged or k >= max_iter:
            break
        step, a = _SQRT6 * math.hypot(*(new - a)), new  # the iterate _t_map gave
    state = CenteringState(k, _matrix(a), r, step, converged, tuple(trace))
    if not converged:
        raise NonConvergenceError(f"no convergence within {max_iter} iterations "
                                  f"(residual {state.residual_norm:.3e})", state=state)
    return state


def estimate_contraction(radius: float = 0.05, damping: float = 0.5) -> float:
    """The exact sup of ||T(B) - T(A)||_F / ||B - A||_F over the ball ||A||_F <= radius.

    Phi cancels from T(B) - T(A), so this holds for every potential: it is
    the largest |eigenvalue| on the ball of the symmetric Jacobian of
    a + damping R(a), 1 - 12 damping K'(d) and 1 - 12 damping K(d) / d
    (twice) at d = 4 sqrt(3) |a| <= 2 sqrt(2) radius.  There
    0 < K' = 1/2 - K coth(d/2) <= K / d <= 1/6, both falling, so for
    damping in (0, 1) every eigenvalue lies in [1 - 2 damping, 1).
    """
    _check_damping(damping)
    if not radius >= 0:
        raise ValueError(f"radius must be at least 0, got {radius}")
    d = 2.0 * math.sqrt(2.0) * radius
    # below d = 1e-8, K' = 1/6 - d^2/60 rounds to 1/6
    slope = 0.5 - _hat_box_kernel(d) / math.tanh(0.5 * d) if d > 1e-8 else 1.0 / 6.0
    return max(abs(1.0 - 2.0 * damping), abs(1.0 - 12.0 * damping * slope))

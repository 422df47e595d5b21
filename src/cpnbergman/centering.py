"""Contraction-mapping solver for centrally positioned potentials.

A potential phi is centrally positioned once the automorphism pullback
kills its component along the first Laplace eigenspace.  The step map

    T(A) = A - damping * sum_i v_i(A) T_i,
    v_i(A) = int (phi - rho_{-A}) theta_i  d(FS volume)

fixes exactly the A for which the centering integrals vanish.  The
theta_i = <T_i Z, Z> / |Z|^2 are an orthonormal basis of the eigenspace,
so sum_i v_i T_i is the paper's L^{-1} v, the A whose theta_A has
coordinates v.  The integrals run against the fixed round measure:
pulling the defining integral back through the automorphism turns rho_A
into -rho_{-A} and leaves the measure alone.  So v(A) = Phi - R(A) splits into
Phi_i = int phi theta_i, which does not depend on A and is computed once
per solve, and R_i(A) = int rho_{-A} theta_i, a closed form on CP^1 by
Archimedes' hat-box theorem (the n = 1 case of Duistermaat-Heckman).  Phi
is exact too for the gauge potentials rho_B (Phi = R(-B)) and the Hermitian
forms <T Z, Z> / |Z|^2 (Phi_i = tr(T T_i) / 6); other callables cost one quadrature.

An iterate is a <- a - damping (Phi - R(a)) in the coordinates
a_i = tr(A T_i) / 6 of A in the basis T_i = build_L(1), R(a) in closed
form and its step ||Delta A||_F = sqrt(6) |Delta a|, with no matrix
decomposed or rebuilt.  Types are dimension-generic; the integrals (and
so t_step/center) are implemented for n = 1 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List

import numpy as np

from .errors import DivergenceError, NonConvergenceError, UnsupportedDimensionError
from .projective import EigenBasisFunction, chart_lift, first_eigenbasis
from .quadrature import cp1_integral, fs_weight

_SQRT3, _SQRT6 = math.sqrt(3.0), math.sqrt(6.0)


class TracelessHermitian:
    """(n+1)x(n+1) traceless Hermitian matrix, projected at construction.

    Hermitization is exact in floating point; the last diagonal entry
    balances the others so the trace is exactly zero.
    """

    def __init__(self, matrix):
        M = np.array(matrix, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
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

    def scaled(self, t: float) -> "TracelessHermitian":
        return TracelessHermitian(t * self.matrix)

    def __add__(self, other: "TracelessHermitian") -> "TracelessHermitian":
        return TracelessHermitian(self.matrix + other.matrix)

    def __sub__(self, other: "TracelessHermitian") -> "TracelessHermitian":
        return TracelessHermitian(self.matrix - other.matrix)

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

    rho_B lies between 2 lam_min(B) and 2 lam_max(B), +-2 sqrt(3) |b| for
    the coordinates b of B, and its moments are R(-b): both exact on CP^1.
    """

    B: TracelessHermitian

    def __call__(self, z):
        return rho_potential(self.B, z)

    def sup_norm(self) -> float:
        return 2.0 * _SQRT3 * math.hypot(*_coords(self.B.matrix))

    def moments(self, L: np.ndarray) -> np.ndarray:
        return _rho_moments(-_coords(self.B.matrix))


@dataclass(frozen=True, eq=False)
class FormPotential:
    """<T Z, Z> / |Z|^2 on CP^1 for a traceless Hermitian 2 x 2 matrix T.

    Its centering integrals are the exact pairings tau_i = tr(T T_i) / 6,
    the coordinates of T, and its range is [lam_min, lam_max] = +-sqrt(3) |tau|.
    """

    matrix: np.ndarray

    def __call__(self, z):
        return _form_ratio(self.matrix, np.asarray(z))

    def sup_norm(self) -> float:
        return _SQRT3 * math.hypot(*_coords(self.matrix))

    def moments(self, L: np.ndarray) -> np.ndarray:
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
    return FormPotential(scale * fn.normalization * fn._np)


@lru_cache(maxsize=None)
def build_L(n: int) -> np.ndarray:
    """L^{-1} as an array: the matrices T_i of the first-eigenspace basis.

    L sends A to the coordinates of theta_A = <A Z, Z> / |Z|^2 in the
    basis theta_i = <T_i Z, Z> / |Z|^2.  That basis is orthonormal, so
    L^{-1} v = sum_i v_i T_i.  T depends on n only, so it is built once
    per n and shared read-only.
    """
    T = np.array([th.normalization * th._np for th in first_eigenbasis(n)])
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


def _hat_box_kernel(d: float) -> float:
    """K(d) = (sinh d - d) / (2 (cosh d - 1)), within 3 ulps for every d >= 0.

    Below d = 2, K is d times the ratio of the positive Taylor sums of
    (sinh d - d) / d^3 and (cosh d - 1) / d^2, so nothing cancels and
    K(0) = 0.  Past that the form in e^{-d} cancels little and tends to
    1/2 without overflow.
    """
    if d < 2.0:
        d2, t, num, den = d * d, 1.0, [], []
        for j in range(2, 32, 2):  # the first term left out is d^30 / 32! < 1e-26
            t /= j * (j - 1)  # d^(j-2) / j!
            den.append(t)
            num.append(t / (j + 1))
            t *= d2
        return d * math.fsum(num) / (2.0 * math.fsum(den))
    e = math.exp(-d)
    return 0.5 if e == 0.0 else (1.0 - e * (e + 2.0 * d)) / (2.0 * (1.0 - e) ** 2)


def _rho_moments(a: np.ndarray) -> np.ndarray:
    """R_i(A) = int rho_{-A} theta_i dV_0 in closed form at A = sum_i a_i T_i.

    With A = U diag(lam_min, lam_max) U* and u the lam_min column,
    rho_{-A} = log(e^{-2 lam_min} t + e^{-2 lam_max} (1 - t)) depends on
    t = |<u, Z>|^2 / |Z|^2 alone.  At fixed t the fibre mean of theta_i is
    (u* T_i u)(2t - 1), since T_i is traceless.  t is uniform under dV_0
    (Archimedes' hat-box theorem), and integrating over t gives K(d) with
    d = 2 (lam_max - lam_min).  In coordinates lam = +-sqrt(3) |a|, so
    d = 4 sqrt(3) |a| and u* T_i u = -sqrt(3) a_i / |a|.  |a| is a hypot,
    finite where a sum of squares overflows; past 1e308 d = inf, K = 1/2.
    """
    r = math.hypot(*a)
    if r == 0.0:
        return np.zeros(3)
    return (-_SQRT3 * _hat_box_kernel(4.0 * _SQRT3 * r) / r) * a


def _t_map(a: np.ndarray, Phi: np.ndarray, damping: float):
    """The centering map in coordinates: (a - damping v(a), v(a)), v = Phi - R."""
    v = Phi - _rho_moments(a)
    return a - damping * v, v


def _phi_moments(phi: Callable, L: np.ndarray, rtol: float) -> np.ndarray:
    """Phi_i = int phi theta_i dV_0: phi.moments(L) where phi has it, else
    one vector-valued cp1_integral pass, within that function's domain."""
    if L.shape[1] != 2:
        raise UnsupportedDimensionError("centering integrals are implemented for n = 1 only")
    if hasattr(phi, "moments"):
        return phi.moments(L)
    T = L.transpose(1, 2, 0)

    def F(z):
        return phi(z) * _form_ratio(T.reshape(T.shape + (1,) * np.ndim(z)), z)

    return cp1_integral(F, fs_weight, rtol=rtol, atol=1e-13)


def centering_residual(A: TracelessHermitian, phi: Callable, L: np.ndarray,
                       rtol: float = 1e-10) -> np.ndarray:
    """The centering integrals v_i(A) = int (phi - rho_{-A}) theta_i dV_0 as
    Phi - R(A): Phi at this rtol (_phi_moments), R(A) exact (_rho_moments)."""
    return _phi_moments(phi, L, rtol) - _rho_moments(_coords(A.matrix))


def t_step(A: TracelessHermitian, phi: Callable, rtol: float = 1e-10,
           damping: float = 0.5) -> TracelessHermitian:
    """One step of the centering map T(A) = A - damping * sum_i v_i(A) T_i."""
    return _matrix(_t_map(_coords(A.matrix), _phi_moments(phi, build_L(1), rtol), damping)[0])


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
           eta: float = 0.1, damping: float = 0.5, rtol: float = 1e-10) -> CenteringState:
    """Iterate the centering map from A = 0 until the integrals vanish.

    tol and damping must be positive (ValueError otherwise).  Requires
    the C0 norm of phi to sit below eta, the calibrated contraction
    threshold.  phi.sup_norm() gives it where phi has it; a plain callable
    is read on an 81 x 32 chart grid, from below and, for forms and gauge
    potentials, at most 5.3e-3 relative short of the sup (the worst
    directions read 5.20e-3 and 5.19e-3 at norm 0.05), so a callable whose
    sup is up to that fraction above eta passes.  The iteration raises
    DivergenceError after five consecutive growing steps and
    NonConvergenceError past max_iter, with the partial state attached.

    Only rho_{-A} changes between iterates, so Phi = int phi theta_i dV_0
    is computed once (_phi_moments) and every iterate is one coordinate
    step (_t_map) along Phi - R(a), with R exact.
    """
    if not (tol > 0 and damping > 0):
        raise ValueError(f"tol and damping must be positive, got {tol} and {damping}")
    exact = hasattr(phi, "sup_norm")
    sup = phi.sup_norm() if exact else _sup_norm_estimate(phi)
    if sup > eta:
        raise ValueError(f"potential C0 norm {'' if exact else 'estimate '}{sup:.4g} "
                         f"exceeds the contraction threshold {eta}")
    Phi = _phi_moments(phi, build_L(1), rtol)
    a = new = np.zeros(3)
    trace, grow, step = [], 0, 0.0
    for k in range(max(max_iter, 0) + 1):
        if k:  # move to the iterate that the previous _t_map gave
            prev_step, step = step, _SQRT6 * math.hypot(*(new - a))
            grow = grow + 1 if k > 1 and step > prev_step else 0
            a = new
        new, r = _t_map(a, Phi, damping)
        rnorm = math.hypot(*r)
        trace.append((k, step, rnorm))
        converged = grow < 5 and rnorm < tol and step < tol
        if converged or grow >= 5:
            break
    else:
        k = max_iter
    state = CenteringState(k, _matrix(a), r, step, converged, tuple(trace))
    if grow >= 5:
        raise DivergenceError("step norms grew for 5 consecutive iterations", state=state)
    if not converged:
        raise NonConvergenceError(f"no convergence within {max_iter} iterations "
                                  f"(residual {rnorm:.3e})", state=state)
    return state


# _sup_norm_estimate's 81 x 32 chart grid towards both poles, shared read-only
_C0_GRID = np.outer(np.sqrt(1.0 / np.linspace(1e-4, 1.0, 81, endpoint=False) - 1.0),
                    np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False))).ravel()
_C0_GRID.flags.writeable = False


def _sup_norm_estimate(phi: Callable) -> float:
    # max |phi| on the chart grid, which can fall short of the sup (see center)
    return float(np.max(np.abs(np.asarray(phi(_C0_GRID), dtype=float))))


def estimate_contraction(phi: Callable, n_pairs: int = 5, radius: float = 0.05,
                         rtol: float = 1e-9, seed: int = 0, damping: float = 0.5) -> float:
    """Largest observed ||T(B)-T(A)|| / ||B-A|| over random pairs in the ball.

    phi is fixed, so Phi = int phi theta_i dV_0 is computed once at this
    rtol; each of the 2 n_pairs steps is one coordinate step (_t_map).
    """
    rng = np.random.default_rng(seed)

    def sample() -> np.ndarray:
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = _coords(TracelessHermitian(M).matrix)
        return a * (radius * rng.uniform(0.2, 1.0) / max(_SQRT6 * math.hypot(*a), 1e-30))

    Phi = _phi_moments(phi, build_L(1), rtol)
    worst = 0.0
    for _ in range(n_pairs):
        a, b = sample(), sample()
        gap = math.hypot(*(b - a))
        if _SQRT6 * gap >= 1e-12:
            step = _t_map(b, Phi, damping)[0] - _t_map(a, Phi, damping)[0]
            worst = max(worst, math.hypot(*step) / gap)
    return worst

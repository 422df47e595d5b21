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
per solve, and R_i(A) = int rho_{-A} theta_i, which on CP^1 is a closed
form in the eigenframe W = U* Z of A: by Archimedes' hat-box theorem
(the n = 1 case of Duistermaat-Heckman) the moment map |W_1|^2 / |W|^2
is uniform under the round measure.  Phi is exact too for the gauge
potentials rho_B (Phi = R(-B)) and the Hermitian forms <T Z, Z> / |Z|^2
(Phi_i = tr(T T_i) / 6); any other callable phi costs one quadrature.

Types are dimension-generic; the integrals (and hence t_step/center)
are implemented for n = 1 only.
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
        size = M.shape[0]
        d = M.diagonal().real - M.diagonal().real.mean()
        for i in range(size):
            M[i, i] = d[i]
        M[size - 1, size - 1] = -d[: size - 1].sum()
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

    rho_B lies between 2 lam_min(B) and 2 lam_max(B), and its moments are
    R(-B), so both are exact (the moments on CP^1).
    """

    B: TracelessHermitian

    def __call__(self, z):
        return rho_potential(self.B, z)

    def sup_norm(self) -> float:
        return 2.0 * float(np.max(np.abs(np.linalg.eigvalsh(self.B.matrix))))

    def moments(self, L: np.ndarray) -> np.ndarray:
        return _rho_moments(self.B.scaled(-1.0), L)


@dataclass(frozen=True, eq=False)
class FormPotential:
    """<T Z, Z> / |Z|^2 on CP^1 for a traceless Hermitian 2 x 2 matrix T.

    Its range is [lam_min(T), lam_max(T)], and its centering integrals
    are the exact pairings tr(T T_i) / 6 with the basis matrices T_i.
    """

    matrix: np.ndarray

    def __call__(self, z):
        return _form_ratio(self.matrix, np.asarray(z))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))

    def moments(self, L: np.ndarray) -> np.ndarray:
        return np.einsum("jk,ikj->i", self.matrix, L).real / 6.0


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


def _descend(A: TracelessHermitian, v: np.ndarray, L: np.ndarray,
             damping: float) -> TracelessHermitian:
    """A - damping * L^{-1} v = A - damping * sum_i v_i T_i."""
    return A - TracelessHermitian(np.einsum("i,ijk->jk", damping * v, L))


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


def _rho_moments(A: TracelessHermitian, L: np.ndarray) -> np.ndarray:
    """R_i(A) = int rho_{-A} theta_i dV_0 in closed form, for n = 1.

    With A = U diag(lam_min, lam_max) U* and u the lam_min column,
    rho_{-A} = log(e^{-2 lam_min} t + e^{-2 lam_max} (1 - t)) depends on
    t = |<u, Z>|^2 / |Z|^2 alone.  At fixed t the fibre mean of theta_i is
    (u* T_i u)(2t - 1), since T_i is traceless.  t is uniform under dV_0
    (Archimedes' hat-box theorem), and integrating over t gives K(d) with
    d = 2 (lam_max - lam_min).
    """
    w, U = np.linalg.eigh(A.matrix)
    u = U[:, 0]
    d = 2.0 * (float(w[1]) - float(w[0]))  # Python floats: inf past 1e308, no warning
    return np.einsum("j,ijk,k->i", u.conj(), L, u).real * _hat_box_kernel(d)


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
    """The s centering integrals v_i(A) = int (phi - rho_{-A}) theta_i dV_0.

    v(A) = Phi - R(A): Phi, the phi half, from _phi_moments at this rtol;
    R(A), the rho_{-A} half, exact (_rho_moments).
    """
    return _phi_moments(phi, L, rtol) - _rho_moments(A, L)


def t_step(A: TracelessHermitian, phi: Callable, rtol: float = 1e-10,
           damping: float = 0.5) -> TracelessHermitian:
    """One step of the centering map T(A) = A - damping * sum_i v_i(A) T_i."""
    L = build_L(A.n)
    return _descend(A, centering_residual(A, phi, L, rtol), L, damping)


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
        return float(np.linalg.norm(self.residual))

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
    is computed once (_phi_moments) and every iterate's residual is
    Phi - R(A) with R(A) exact.
    """
    if not (tol > 0 and damping > 0):
        raise ValueError(f"tol and damping must be positive, got {tol} and {damping}")
    exact = hasattr(phi, "sup_norm")
    sup = phi.sup_norm() if exact else _sup_norm_estimate(phi)
    if sup > eta:
        raise ValueError(f"potential C0 norm {'' if exact else 'estimate '}{sup:.4g} "
                         f"exceeds the contraction threshold {eta}")
    L = build_L(1)
    Phi = _phi_moments(phi, L, rtol)
    A = TracelessHermitian.zero(1)
    r = Phi - _rho_moments(A, L)
    rnorm = float(np.linalg.norm(r))
    trace = [(0, 0.0, rnorm)]
    if rnorm < tol:
        return CenteringState(0, A, r, 0.0, True, tuple(trace))

    grow = 0
    prev_step = None
    for k in range(1, max_iter + 1):
        newA = _descend(A, r, L, damping)
        step = float(np.linalg.norm(newA.matrix - A.matrix))
        if prev_step is not None and step > prev_step:
            grow += 1
        else:
            grow = 0
        prev_step = step
        A = newA
        r = Phi - _rho_moments(A, L)
        rnorm = float(np.linalg.norm(r))
        trace.append((k, step, rnorm))
        if grow >= 5:
            state = CenteringState(k, A, r, step, False, tuple(trace))
            raise DivergenceError(
                "step norms grew for 5 consecutive iterations", state=state
            )
        if rnorm < tol and step < tol:
            return CenteringState(k, A, r, step, True, tuple(trace))
    state = CenteringState(max_iter, A, r, prev_step or 0.0, False, tuple(trace))
    raise NonConvergenceError(
        f"no convergence within {max_iter} iterations (residual {rnorm:.3e})", state=state
    )


def _sup_norm_estimate(phi: Callable) -> float:
    # max |phi| on an 81 x 32 chart grid reaching towards both poles, which
    # can fall short of the sup (see center)
    p = np.linspace(1e-4, 1.0, 81, endpoint=False)
    s = 1.0 / p - 1.0
    radius = np.sqrt(s)
    theta = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    z = np.outer(radius, np.exp(1j * theta)).ravel()
    vals = np.abs(np.asarray(phi(z), dtype=float))
    return float(np.max(vals)) if vals.size else 0.0


def estimate_contraction(phi: Callable, n_pairs: int = 5, radius: float = 0.05,
                         rtol: float = 1e-9, seed: int = 0, damping: float = 0.5) -> float:
    """Largest observed ||T(B)-T(A)|| / ||B-A|| over random pairs in the ball.

    phi is fixed, so Phi = int phi theta_i dV_0 is computed once at this
    rtol and each of the 2 n_pairs steps descends along Phi - R(A).
    """
    L = build_L(1)
    rng = np.random.default_rng(seed)

    def sample() -> TracelessHermitian:
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = TracelessHermitian(M)
        return A.scaled(radius * rng.uniform(0.2, 1.0) / max(A.norm, 1e-30))

    Phi = _phi_moments(phi, L, rtol)
    worst = 0.0
    for _ in range(n_pairs):
        A, B = sample(), sample()
        gap = (B - A).norm
        if gap < 1e-12:
            continue
        TA = _descend(A, Phi - _rho_moments(A, L), L, damping)
        TB = _descend(B, Phi - _rho_moments(B, L), L, damping)
        worst = max(worst, (TB - TA).norm / gap)
    return worst

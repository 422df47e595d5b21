"""Contraction-mapping solver for centrally positioned potentials.

A potential phi is centrally positioned once the automorphism pullback
kills its component along the first Laplace eigenspace.  The step map

    T(A) = A - damping * L^{-1} v(A),
    v_i(A) = int (phi - rho_{-A}) theta_i  d(FS volume)

fixes exactly the A for which the centering integrals vanish.  The
integrals run against the fixed round measure: pulling the defining
integral back through the automorphism turns rho_A into -rho_{-A} and
leaves the measure alone, so the quadrature domain never moves.
Because of that, a solve meets the same quadrature nodes on every
iteration, and only rho_{-A} changes between them: phi and the theta
factors are evaluated once per node array and reused, exactly.

Types are dimension-generic; the integrals (and hence t_step/center)
are implemented for n = 1 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, List

import numpy as np

from .errors import (DivergenceError, NonConvergenceError, SingularMatrixError,
                     UnsupportedDimensionError)
from .projective import (EigenBasisFunction, canonical_p_basis,
                         chart_lift, first_eigenbasis, hermitian_pairing)
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


def _log_ratio(E: np.ndarray, Z: np.ndarray, den: np.ndarray) -> np.ndarray:
    """log(|E Z|^2 / den) for lifts Z stacked on axis 0, den = |Z|^2."""
    # np.tensordot(E, Z, 1) is this dot on these operands, less its axis bookkeeping
    W = np.dot(E, Z.reshape(len(Z), -1)).reshape(Z.shape)
    num = np.sum(np.abs(W) ** 2, axis=0)
    return np.log(num / den)


def rho_potential(A: TracelessHermitian, z):
    """Automorphism potential log(|e^A Z|^2 / |Z|^2) at chart point(s) z."""
    Z = chart_lift(A.n, z)
    return _log_ratio(A.expm(), Z, np.sum(np.abs(Z) ** 2, axis=0))


def gauge_potential(B: TracelessHermitian) -> Callable:
    """rho_B as a chart potential of z; rho_0 is identically zero."""
    return partial(rho_potential, B)


def zero_potential(z):
    return np.zeros(np.shape(z))


def eigenbasis_potential(fn: EigenBasisFunction, scale: float) -> Callable:
    def phi(z):
        return scale * fn.evaluate_lifts(chart_lift(fn.n, z))

    return phi


@dataclass(frozen=True)
class LMap:
    """Coordinate map from canonical traceless-Hermitian coordinates to
    coefficients in the orthonormal first-eigenspace basis.

    p_matrices stacks the canonical basis and theta_matrices the
    normalized eigenspace basis as complex matrices.  Every array is
    read-only, because build_L shares one LMap per n."""

    n: int
    matrix: np.ndarray
    inverse: np.ndarray
    theta_basis: tuple
    p_matrices: np.ndarray
    theta_matrices: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@lru_cache(maxsize=None)
def build_L(n: int) -> LMap:
    """Matrix of A -> <theta_A, theta_hat_i> with exact pairings.

    Entries come from the closed-form eigenspace pairing, so the only
    floating step is the normalization square root.  The map is exact
    and depends on n only, so it is built once per n and shared.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    theta = first_eigenbasis(n)
    pbasis = tuple(canonical_p_basis(n))
    s = len(pbasis)
    L = np.empty((s, s))
    for i, th in enumerate(theta):
        for b, B in enumerate(pbasis):
            L[i, b] = float(hermitian_pairing(B, th.exact, n)) * th.normalization
    sv = np.linalg.svd(L, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise SingularMatrixError(
            f"coordinate map is numerically singular (sigma_min/sigma_max = {sv[-1]/sv[0]:.3e})"
        )
    inverse = np.linalg.inv(L)
    p_matrices = np.array([B.to_numpy() for B in pbasis])
    theta_matrices = np.array([th.normalization * th.exact.to_numpy() for th in theta])
    for array in (L, inverse, p_matrices, theta_matrices):
        array.flags.writeable = False
    return LMap(n, L, inverse, theta, p_matrices, theta_matrices)


def _descend(A: TracelessHermitian, v: np.ndarray, L: LMap,
             damping: float) -> TracelessHermitian:
    """A - damping * L^{-1} v, mapped back from canonical coordinates."""
    M = np.zeros((L.n + 1, L.n + 1), dtype=complex)
    for c, B in zip(damping * (L.inverse @ v), L.p_matrices):
        M += c * B
    return A - TracelessHermitian(M)


# Node arrays are looked up by shape, dtype and this many leading bytes,
# then confirmed byte for byte: cheaper than hashing all of them.
_KEY_BYTES = 256
# Past this many stored bytes a node cache computes without storing, so a
# potential that needs thousands of panels costs time, as it did without
# the cache, instead of gigabytes.  Gauge and eigenbasis potentials of
# norm 0.05 store 0.55 MB: three node arrays of 15 x 128 points.
_CACHE_BYTES = 32 << 20


class _NodeCache:
    """The A-independent factors of the centering integrand, per node array.

    Only rho_{-A} depends on the iterate, so for a fixed phi the factors
    phi(z), Z = (1, z), |Z|^2, the theta quadratic forms and 1 + |z|^2 are
    computed the first time a node array z is met and reused whenever a
    later residual meets the same nodes.  Nodes match byte for byte, never
    within a tolerance, and a hit feeds the same arrays into the same
    operations, so cached and fresh residuals agree bitwise.  The stored
    arrays are read-only, and at most _CACHE_BYTES are kept.  center and
    estimate_contraction hold one for the length of their call and pass
    it to centering_residual in place of phi.
    """

    def __init__(self, phi: Callable, L: LMap):
        if L.n != 1:
            raise UnsupportedDimensionError("centering integrals are implemented for n = 1 only")
        self.phi = phi
        self.L = L
        self._entries = {}
        self._stored = 0

    def factors(self, z: np.ndarray) -> tuple:
        raw = z.tobytes()
        key = (z.shape, z.dtype, raw[:_KEY_BYTES])
        hit = self._entries.get(key)
        if hit is not None and hit[0] == raw:
            return hit[1]
        phi_z = self.phi(z)
        if isinstance(phi_z, np.ndarray):
            phi_z = phi_z.view()  # a read-only view leaves phi's own array alone
        # theta_i = <T_i Z, Z> / |Z|^2 at Z = (1, z), with T_i Hermitian
        T = self.L.theta_matrices.reshape((self.L.size, 4) + (1,) * np.ndim(z))
        s = np.abs(z) ** 2
        Z = chart_lift(1, z)
        factors = (phi_z, Z, np.sum(np.abs(Z) ** 2, axis=0),
                   T[:, 0].real + T[:, 3].real * s + 2.0 * (T[:, 1] * z).real, 1.0 + s)
        arrays = [a for a in factors if isinstance(a, np.ndarray)]
        for array in arrays:
            array.flags.writeable = False
        size = len(raw) + sum(a.nbytes for a in arrays)
        if self._stored + size <= _CACHE_BYTES:
            self._entries[key] = (raw, factors)
            self._stored += size
        return factors

    def clear(self) -> None:
        self._entries.clear()
        self._stored = 0


def centering_residual(A: TracelessHermitian, phi: Callable, L: LMap,
                       rtol: float = 1e-10) -> np.ndarray:
    """The s centering integrals v_i(A) = int (phi - rho_{-A}) theta_i dV_0.

    phi - rho_{-A} is evaluated once per point and multiplied by all s
    basis functions, so the s integrals share one vector-valued
    cp1_integral call (one radial pass per doubling step).  Everything but
    rho_{-A} is independent of A; a solve passes its _NodeCache as phi so
    those factors are computed once per node array across its iterations.
    """
    nodes = phi if isinstance(phi, _NodeCache) else _NodeCache(phi, L)
    E = A.scaled(-1.0).expm()

    def F(z):
        phi_z, Z, den, quad, one_plus_s = nodes.factors(z)
        return (phi_z - _log_ratio(E, Z, den)) * quad / one_plus_s

    return cp1_integral(F, fs_weight, rtol=rtol, atol=1e-13)


def t_step(A: TracelessHermitian, phi: Callable, rtol: float = 1e-10,
           damping: float = 0.5, L: LMap = None) -> TracelessHermitian:
    """One step of the centering map T(A) = A - damping * L^{-1} v(A)."""
    if L is None:
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


def center(phi: Callable, tol: float = 1e-8, max_iter: int = 50, *, n: int = 1,
           eta: float = 0.1, damping: float = 0.5, rtol: float = 1e-10) -> CenteringState:
    """Iterate the centering map from A = 0 until the integrals vanish.

    Requires the C0 norm of phi (estimated on a chart grid covering both
    poles) to sit below eta, the calibrated contraction threshold; the
    iteration raises DivergenceError after five consecutive growing
    steps and NonConvergenceError past max_iter, with the partial state
    attached.

    phi must be a pure function of the chart points z: the solve evaluates
    it once per quadrature node array and reuses that value on every
    iteration that meets the same nodes.
    """
    if n != 1:
        raise UnsupportedDimensionError("centering is implemented for n = 1 only")
    sup = _sup_norm_estimate(phi)
    if sup > eta:
        raise ValueError(
            f"potential C0 norm estimate {sup:.4g} exceeds the contraction threshold {eta}"
        )
    L = build_L(n)
    nodes = _NodeCache(phi, L)
    try:
        A = TracelessHermitian.zero(n)
        r = centering_residual(A, nodes, L, rtol)
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
            r = centering_residual(A, nodes, L, rtol)
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
    finally:
        # a raised error keeps this frame alive through its traceback
        nodes.clear()


def _sup_norm_estimate(phi: Callable) -> float:
    # max |phi| on an 81 x 32 chart grid reaching towards both poles
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

    phi is fixed, so all 2 n_pairs steps share one node cache; phi must
    be a pure function of z, as for center.
    """
    L = build_L(1)
    rng = np.random.default_rng(seed)

    def sample() -> TracelessHermitian:
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = TracelessHermitian(M)
        return A.scaled(radius * rng.uniform(0.2, 1.0) / max(A.norm, 1e-30))

    nodes = _NodeCache(phi, L)
    worst = 0.0
    for _ in range(n_pairs):
        A, B = sample(), sample()
        gap = (B - A).norm
        if gap < 1e-12:
            continue
        TA = t_step(A, nodes, rtol, damping, L)
        TB = t_step(B, nodes, rtol, damping, L)
        worst = max(worst, (TB - TA).norm / gap)
    return worst

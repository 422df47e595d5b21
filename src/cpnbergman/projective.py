"""Exact Fubini-Study facts on CP^n.

Constant Bergman density, the radial eigenfunction family 1/(1+|z|^2)^k,
the pairing recursion between its levels, the closed-form variation series,
and the orthonormal basis of the first Laplace eigenspace used by the
centering solver.  Volume is normalized to 1, so the Fubini-Study density
at level m is exactly (m+n)!/m!.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import List, Sequence, Tuple

import numpy as np

from .errors import PoleError
from .ratpoly import InverseMSeries, RationalPolynomial


def fs_density_exact(n: int, m: int) -> Fraction:
    """Constant value of the level-m Bergman density on Fubini-Study CP^n."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return Fraction(factorial(m + n), factorial(m))


@dataclass(frozen=True)
class PhiK:
    """The radial function phi_k(z) = 1/(1+|z|^2)^k on the standard chart."""

    n: int
    k: int

    def value(self, s):
        return (1.0 + s) ** (-self.k)

    def laplacian_value(self, s):
        # Delta phi_k = -k(k+n) phi_k + k^2 phi_{k-1} = k(ks - n)(1+s)^{-k}
        k = self.k
        return k * (k * s - self.n) * (1.0 + s) ** (-k)


def fs_laplacian_radial(f1, f2, n: int, s):
    """Fubini-Study Laplacian of a radial function from f'(s), f''(s)."""
    return (1.0 + s) * (s * (1.0 + s) * f2 + (n + s) * f1)


def phi_k_laplacian_residual(n: int, k: int, s: float) -> float:
    """Defect of the two-term recursion for Delta phi_k at one point.

    Computes Delta phi_k from the closed-form derivatives of (1+s)^{-k}
    and subtracts -k(k+n) phi_k + k^2 phi_{k-1}.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    f1 = -k * (1.0 + s) ** (-k - 1)
    f2 = k * (k + 1) * (1.0 + s) ** (-k - 2)
    lhs = fs_laplacian_radial(f1, f2, n, s)
    phi_k = (1.0 + s) ** (-k)
    phi_km1 = (1.0 + s) ** (-(k - 1))
    rhs = -k * (k + n) * phi_k + k * k * phi_km1
    return lhs - rhs


def pairing_step(n: int, lam, k: int) -> Fraction:
    """Factor relating int phi phi_k to int phi phi_{k-1} for Delta phi = -lam phi.

    Equals k^2 / (k(k+n) - lam); lam = k(k+n) is the resonance the
    eigenvalue criterion exploits and raises a pole error here.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lam = Fraction(lam)
    denom = k * (k + n) - lam
    if denom == 0:
        raise PoleError(
            "pairing step has a pole at lam = k(k+n) = %d (k=%d, n=%d)"
            % (k * (k + n), k, n)
        )
    return Fraction(k * k, 1) / denom


def eigenfunction_pairing_product(n: int, k0: int, m: int) -> Fraction:
    """Ratio int phi phi_m / int phi phi_k0 via the step recursion."""
    if m < k0:
        raise ValueError("need m >= k0")
    lam = k0 * (k0 + n)
    out = Fraction(1)
    for k in range(k0 + 1, m + 1):
        out *= pairing_step(n, lam, k)
    return out


def eigenfunction_pairing_closed_form(n: int, k0: int, m: int) -> Fraction:
    """Telescoped ratio: (m!/k0!)^2 (2k0+n)! / ((m-k0)! (m+k0+n)!)."""
    if m < k0:
        raise ValueError("need m >= k0")
    return Fraction(
        (factorial(m) // factorial(k0)) ** 2 * factorial(2 * k0 + n),
        factorial(m - k0) * factorial(m + k0 + n),
    )


def sigma_prime_closed_form(n: int, k0: int, J: int) -> InverseMSeries:
    """1/m expansion of (m+n)...(m-k0+1)(m+k0(k0+n)) / ((m+k0+n)...(m+n+1)).

    This is the closed form of the variation series at the resonant
    eigenvalue lambda = k0(k0+n), normalized to leading coefficient 1.
    """
    if k0 < 1 or J < 1:
        raise ValueError("need k0 >= 1 and J >= 1")
    numer = RationalPolynomial.from_roots(
        [-i for i in range(-k0 + 1, n + 1)] + [-k0 * (k0 + n)]
    )
    denom = RationalPolynomial.from_roots([-i for i in range(n + 1, n + k0 + 1)])
    series = InverseMSeries.from_polynomial(numer, J) * InverseMSeries.from_polynomial(
        denom, J
    ).reciprocal()
    return series.normalized()


class HermitianRational:
    """Small Hermitian matrix with exact rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        size = len(re)
        self.re = tuple(tuple(Fraction(x) for x in row) for row in re)
        if im is None:
            im = [[Fraction(0)] * size for _ in range(size)]
        self.im = tuple(tuple(Fraction(x) for x in row) for row in im)
        for i in range(size):
            for j in range(size):
                if self.re[i][j] != self.re[j][i] or self.im[i][j] != -self.im[j][i]:
                    raise ValueError("matrix is not Hermitian")

    @property
    def size(self) -> int:
        return len(self.re)

    def trace(self) -> Fraction:
        return sum((self.re[i][i] for i in range(self.size)), Fraction(0))

    def trace_product(self, other: "HermitianRational") -> Fraction:
        # tr(AB) is real for Hermitian A, B
        s = Fraction(0)
        for i in range(self.size):
            for j in range(self.size):
                s += self.re[i][j] * other.re[j][i] - self.im[i][j] * other.im[j][i]
        return s

    def minus(self, other: "HermitianRational", c: Fraction) -> "HermitianRational":
        # self - c * other
        c = Fraction(c)
        return HermitianRational(
            [
                [self.re[i][j] - c * other.re[i][j] for j in range(self.size)]
                for i in range(self.size)
            ],
            [
                [self.im[i][j] - c * other.im[i][j] for j in range(self.size)]
                for i in range(self.size)
            ],
        )

    def to_numpy(self) -> np.ndarray:
        return np.array(
            [
                [float(self.re[i][j]) + 1j * float(self.im[i][j]) for j in range(self.size)]
                for i in range(self.size)
            ],
            dtype=complex,
        )


def hermitian_pairing(A: HermitianRational, B: HermitianRational, n: int) -> Fraction:
    """Exact L^2(omega_0^n) pairing of theta_A and theta_B on CP^n.

    theta_A(Z) = sum a_ij Z_i Zbar_j / |Z|^2 integrates against theta_B to
    (tr(AB) + tr A tr B) / ((n+1)(n+2)).
    """
    return (A.trace_product(B) + A.trace() * B.trace()) / ((n + 1) * (n + 2))


class EigenBasisFunction:
    """One orthonormalized member of the first Laplace eigenspace.

    Represents normalization * <A Z, Z> / |Z|^2 = sum_kl a_kl Z_l Zbar_k
    with an exact traceless Hermitian coefficient matrix.  The index
    order matches the linearization of the automorphism potentials
    (rho_A ~ 2<A Z, Z>/|Z|^2), which fixes the sign of the 'im' members.
    kind is one of 're', 'im', 'diag' (orthogonalized combination of
    (|Z_i|^2 - |Z_0|^2)/|Z|^2).
    """

    def __init__(self, n: int, kind: str, indices: Tuple[int, ...],
                 exact: HermitianRational, norm_sq: Fraction):
        self.n = n
        self.kind = kind
        self.indices = indices
        self.exact = exact
        self.norm_sq = norm_sq
        self.normalization = 1.0 / float(norm_sq) ** 0.5
        self._np = exact.to_numpy()
        self._np.flags.writeable = False

    def evaluate_lifts(self, Z: np.ndarray) -> np.ndarray:
        """Value on homogeneous lifts; Z has shape (n+1, ...)."""
        quad = np.einsum("kl,l...,k...->...", self._np, Z, np.conj(Z))
        norms = np.sum(np.abs(Z) ** 2, axis=0)
        return self.normalization * np.real(quad) / norms

    def evaluate(self, z) -> float:
        """Value at a chart point (complex scalar for n=1, sequence else)."""
        Z = chart_lift(self.n, z)
        return float(self.evaluate_lifts(Z))


def chart_lift(n: int, z) -> np.ndarray:
    """Homogeneous lift [1, z_1, ..., z_n]; broadcasts over arrays."""
    if n == 1:
        z = np.asarray(z, dtype=complex)
        return np.stack([np.ones_like(z), z])
    z = [np.asarray(zi, dtype=complex) for zi in z]
    return np.stack([np.ones_like(z[0])] + z)


def _raw_diagonal(n: int, i: int) -> HermitianRational:
    """E_ii - E_00: the i-th diagonal member before orthogonalization."""
    re = [[0] * (n + 1) for _ in range(n + 1)]
    re[i][i] = 1
    re[0][0] = -1
    return HermitianRational(re)


@lru_cache(maxsize=None)
def first_eigenbasis(n: int) -> Tuple[EigenBasisFunction, ...]:
    """Orthonormal real basis of the first eigenspace, (n+1)^2 - 1 functions.

    Off-diagonal real and imaginary parts are orthogonal as given; the n
    diagonal functions have Gram (I + ones)/((n+1)(n+2)) and are
    Gram-Schmidt orthogonalized exactly.  The basis is exact and depends
    on n only, so it is built once per n and shared: the tuple and the
    functions' numpy matrices are read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = n + 1
    funcs: List[EigenBasisFunction] = []
    for kind in ("re", "im"):
        for i in range(size):
            for j in range(i + 1, size):
                unit = [[0] * size for _ in range(size)]
                if kind == "re":
                    unit[i][j] = unit[j][i] = 1
                    A = HermitianRational(unit)
                else:
                    unit[i][j], unit[j][i] = -1, 1
                    A = HermitianRational([[0] * size for _ in range(size)], unit)
                funcs.append(
                    EigenBasisFunction(n, kind, (i, j), A, hermitian_pairing(A, A, n))
                )
    orth: List[HermitianRational] = []
    for i in range(1, size):
        D = _raw_diagonal(n, i)
        for v in orth:
            coef = hermitian_pairing(D, v, n) / hermitian_pairing(v, v, n)
            D = D.minus(v, coef)
        orth.append(D)
        funcs.append(
            EigenBasisFunction(n, "diag", (i,), D, hermitian_pairing(D, D, n))
        )
    return tuple(funcs)


def canonical_p_basis(n: int) -> List[HermitianRational]:
    """Canonical basis of the traceless Hermitian matrices, matching the
    ordering of first_eigenbasis but with raw (non-orthogonalized) diagonals."""
    out = [f.exact for f in first_eigenbasis(n) if f.kind != "diag"]
    return out + [_raw_diagonal(n, i) for i in range(1, n + 1)]

"""Exact Fubini-Study facts on CP^n.

The closed-form pairing of an eigenfunction with the radial family
phi_k = 1/(1+|z|^2)^k, the closed-form variation series at the resonant
eigenvalues, and the orthonormal basis of the first Laplace eigenspace
used by the centering solver.  Volume is normalized to 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import List, Tuple

import numpy as np

from .ratpoly import InverseMSeries, factor_ratio_series


def eigenfunction_pairing_closed_form(n: int, k0: int, m: int) -> Fraction:
    """int phi phi_m / int phi phi_k0 for Delta phi = -k0(k0+n) phi, in closed form.

    Delta phi_k = -k(k+n) phi_k + k^2 phi_{k-1} makes each level step a
    factor k^2 / (k(k+n) - lambda); their product over k0 < k <= m
    telescopes to (m!/k0!)^2 (2k0+n)! / ((m-k0)! (m+k0+n)!).
    """
    if m < k0:
        raise ValueError("need m >= k0")
    return Fraction(
        (factorial(m) // factorial(k0)) ** 2 * factorial(2 * k0 + n),
        factorial(m - k0) * factorial(m + k0 + n),
    )


def _resonant_ratio(n: int, k0: int) -> Tuple[List[int], List[int]]:
    """Integers i of the factors m + i of the numerator (m+n)...(m-k0+1)
    (m+k0(k0+n)) and the denominator (m+k0+n)...(m+n+1) of the variation
    at lambda = k0(k0+n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return list(range(-k0 + 1, n + 1)) + [k0 * (k0 + n)], list(range(n + 1, n + k0 + 1))


def sigma_prime_closed_form(n: int, k0: int, J: int) -> InverseMSeries:
    """1/m expansion of (m+n)...(m-k0+1)(m+k0(k0+n)) / ((m+k0+n)...(m+n+1)).

    This is the closed form of the variation series at the resonant
    eigenvalue lambda = k0(k0+n), normalized to leading coefficient 1.
    Both sides are monic with integer roots, so the series is computed
    in plain integers and becomes Fractions only on return.
    """
    if k0 < 1 or J < 1:
        raise ValueError("need k0 >= 1 and J >= 1")
    return InverseMSeries(n + 1, factor_ratio_series(*_resonant_ratio(n, k0), J))


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
    kind is one of 're', 'im', 'diag' (member l is
    (|Z_l|^2 - (1/l) sum_{i<l} |Z_i|^2)/|Z|^2).
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


@lru_cache(maxsize=None)
def first_eigenbasis(n: int) -> Tuple[EigenBasisFunction, ...]:
    """Orthonormal real basis of the first eigenspace, (n+1)^2 - 1 functions.

    Off-diagonal real and imaginary parts are orthogonal as given.
    Diagonal member l = 1..n is D_l = E_ll - (1/l) sum_{i<l} E_ii, the
    exact Gram-Schmidt orthogonalization of the E_ii - E_00, with
    norm_sq (1 + 1/l)/((n+1)(n+2)).  The basis is exact and depends on n
    only, so it is built once per n and shared: the tuple and the
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
    for l in range(1, size):
        re = [[0] * size for _ in range(size)]
        re[l][l] = 1
        for i in range(l):
            re[i][i] = Fraction(-1, l)
        D = HermitianRational(re)
        funcs.append(
            EigenBasisFunction(n, "diag", (l,), D, hermitian_pairing(D, D, n))
        )
    return tuple(funcs)


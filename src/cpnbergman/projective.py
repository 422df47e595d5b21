"""Exact Fubini-Study facts on CP^n.

The closed-form pairing of an eigenfunction with the radial family
phi_k = 1/(1+|z|^2)^k, the closed-form variation series at the resonant
eigenvalues, and the orthonormal basis of the first Laplace eigenspace
used by the centering solver, its matrices and exact norms written down
in closed form.  Volume is normalized to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    if n < 1 or k0 < 0:
        raise ValueError("need n >= 1 and k0 >= 0")
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


@dataclass(frozen=True, eq=False)
class EigenBasisFunction:
    """One orthonormalized member theta = <T Z, Z> / |Z|^2 of the first
    Laplace eigenspace.  matrix is T = A / sqrt(norm_sq), read-only, for a
    traceless Hermitian A.

    kind is 're' (A = E_ij + E_ji), 'im' (A = -i E_ij + i E_ji) or 'diag'
    (member l is A = E_ll - (1/l) sum_{i<l} E_ii).  The index order
    matches the linearization of the automorphism potentials
    (rho_A ~ 2<A Z, Z>/|Z|^2), which fixes the sign of the 'im' members.
    """

    n: int
    kind: str
    indices: Tuple[int, ...]
    norm_sq: Fraction
    matrix: np.ndarray


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

    theta_A and theta_B pair to (tr(AB) + tr A tr B) / ((n+1)(n+2)) on
    CP^n, so the off-diagonal members are orthogonal as given, with
    norm_sq 2/((n+1)(n+2)), and diagonal member l = 1..n, the exact
    Gram-Schmidt orthogonalization of the E_ii - E_00, has norm_sq
    (1 + 1/l)/((n+1)(n+2)).  The basis depends on n only, so it is built
    once per n and shared: the tuple and the matrices are read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size, unit = n + 1, Fraction(1, (n + 1) * (n + 2))
    funcs: List[EigenBasisFunction] = []

    def add(kind, indices, entries, norm_sq):
        A = np.zeros((size, size), dtype=complex)
        for ij, a in entries:
            A[ij] = a
        T = 1.0 / float(norm_sq) ** 0.5 * A
        T.flags.writeable = False
        funcs.append(EigenBasisFunction(n, kind, indices, norm_sq, T))

    # complex(0, -1), not -1j, whose real part is -0.0
    for kind, a, b in (("re", 1, 1), ("im", complex(0, -1), 1j)):
        for i in range(size):
            for j in range(i + 1, size):
                add(kind, (i, j), [((i, j), a), ((j, i), b)], 2 * unit)
    for l in range(1, size):
        add("diag", (l,), [((i, i), -1 / l) for i in range(l)] + [((l, l), 1)],
            (1 + Fraction(1, l)) * unit)
    return tuple(funcs)

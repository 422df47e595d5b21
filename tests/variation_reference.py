"""Triangular-solve variation engine, a reference for the moment recurrence.

This is the engine `conversion.variation_series_eigen` and
`admissible_eigenvalue_scan` ran before the moments delta_k(lambda) came
from their three-term recurrence and the weighted sum from a Horner pass:
the moments solve the unit-triangular system
(-lambda)^k = sum_l a_{k,l} delta_l over the conversion table, and the
sum reads a table of series R_k, one per order.  The module also keeps
variation_order1_polynomial, the leading centered coefficient as a
polynomial in lambda, interpolated from the library's numerators.
"""

from fractions import Fraction
from math import factorial
from typing import List, Tuple

from cpnbergman import InverseMSeries, RationalPolynomial, conversion_polynomials
from cpnbergman.conversion import _variation_numerators
from cpnbergman.ratpoly import factor_ratio_series


def triangular_delta_polynomials(n: int, K: int) -> List[List[int]]:
    """Integer coefficients in lambda, low degree first, of delta_0..delta_K."""
    rows = conversion_polynomials(n, K).rows if K >= 1 else ()
    deltas = [[1]]
    for k in range(1, K + 1):
        acc = [0] * k + [(-1) ** k]
        for l in range(1, k):
            a = rows[k - 1][l]
            for i, c in enumerate(deltas[l]):
                acc[i] -= a * c
        deltas.append(acc)
    return deltas


class TriangularVariationEngine:
    """The lambda-independent part of the variation series at fixed (n, J).

    In x = 1/m, 1/prod_{i=-k+1}^{n} (m+i) = m^{-(n+k)} R_k(x) and
    (m+n)!/m! = m^n Q(x), Q(x) = prod_{i=1}^{n} (1 + i x); R_k is R_{k-1}
    divided by 1 - (k-1) x, kept to order J - k.
    """

    def __init__(self, n: int, J: int):
        if J < 1:
            raise ValueError("J must be >= 1")
        self.n, self.J = n, J
        self.rows = conversion_polynomials(n, J).rows
        self.Q = factor_ratio_series(range(1, n + 1), (), n)
        self.R = [factor_ratio_series((), range(1, n + 1), J)]
        for k in range(1, J + 1):
            self.R.append(factor_ratio_series((), [1 - k], J - k, self.R[-1]))

    def deltas(self, lam) -> List[int]:
        """D_k = q^k delta_k(p/q), k = 0..J, from the unit-triangular system."""
        lam = Fraction(lam)
        p, q = lam.numerator, lam.denominator
        D = [1]
        for k in range(1, self.J + 1):
            row = self.rows[k - 1]
            D.append((-p) ** k - sum(row[l] * D[l] * q ** (k - l) for l in range(1, k)))
        return D

    def numerators(self, lam, centered: bool = False) -> Tuple[List[int], int]:
        """Integers U and scale with the series m^{n+1} sum_j (U_j / scale) / m^j."""
        lam = Fraction(lam)
        p, q = lam.numerator, lam.denominator
        n, J = self.n, self.J
        D = self.deltas(lam)
        # S(x) = sum_k delta_k/k! x^k R_k(x) = N(x) / (J! q^J)
        N = [0] * (J + 1)
        ratio = 1  # J!/k!
        for k in range(J, -1, -1):
            w = D[k] * q ** (J - k) * ratio
            for j, r in enumerate(self.R[k]):
                N[k + j] += w * r
            ratio *= k
        den = q * factorial(J) * q**J
        U = factor_ratio_series(2 * list(range(1, n + 1)), (), J,
                                [-q * a - p * b for a, b in zip(N, [0] + N)])
        if centered:
            for j, c in enumerate(self.Q[: J + 1]):
                U[j] += den * c
        return U, factorial(n) * den

    def series(self, lam, centered: bool = False, normalized: bool = True) -> InverseMSeries:
        U, scale = self.numerators(lam, centered)
        if normalized:
            scale = next((u for u in U if u), scale)
        return InverseMSeries(self.n + 1, [Fraction(u, scale) for u in U])

    def scan(self, k_max: int) -> set:
        """Levels k <= k_max whose series is polynomial through order J."""
        out = set()
        for k in range(1, k_max + 1):
            nonzero = [j for j, u in enumerate(self.numerators(k * (k + self.n))[0]) if u]
            if not nonzero or nonzero[-1] - nonzero[0] <= self.n:
                out.add(k)
        return out


def variation_order1_polynomial(n: int) -> RationalPolynomial:
    """Coefficient of m^{n-1} in the centered variation, as a polynomial in lambda.

    The two top orders of the centered series cancel identically, so this
    is its leading behavior.  Only delta_0..delta_2 reach this order, hence
    the degree is at most 2; five interpolation nodes overdetermine it.
    """
    xs = [Fraction(v) for v in range(5)]
    ys = [Fraction(U[2], scale)
          for U, scale in (_variation_numerators(n, lam, 4, centered=True) for lam in xs)]
    return RationalPolynomial.interpolate(xs, ys)

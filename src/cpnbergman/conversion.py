"""Exact Laplacian combinatorics at the Fubini-Study base point.

Everything in this module is exact and runs in Python integers: the
Laplacian rewrite on |z^P|^2, the conversion polynomials f_k relating
Fubini-Study Laplacian powers at the origin to flat ones (returned as
ints), the eigenfunction variation series in 1/m and the polynomiality
criterion that singles out the first eigenvalue.  laplacian_power_at_zero,
the series and the criterion's remainder become Fractions on return.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Dict, List, Optional, Set, Tuple

from .projective import _resonant_ratio
from .ratpoly import InverseMSeries, RationalPolynomial, _frac, factor_ratio_series


def _exponents(P, n: Optional[int] = None) -> Tuple[int, ...]:
    """Exponent tuple of the monomial z^P, checked nonnegative and, given n, of length n."""
    exps = tuple(int(p) for p in P)
    if any(p < 0 for p in exps):
        raise ValueError("multi-index components must be nonnegative")
    if n is not None and len(exps) != n:
        raise ValueError("multi-index has %d components, expected %d" % (len(exps), n))
    return exps


def _laplacian_rewrite_at_zero(P: Tuple[int, ...], k: int) -> Fraction:
    """Delta^k |z^P|^2 at the origin, computed in integers.

    One step of the rewrite is
      Delta|z^A|^2 = sum_{i: a_i>0} a_i^2 (|z^{A-e_i}|^2 + sum_j |z^{A-e_i+e_j}|^2)
                     + |A|^2 (|z^A|^2 + sum_j |z^{A+e_j}|^2),
    so every coefficient stays a positive integer.  A step moves the
    degree by at most one, so a term whose degree exceeds the steps left
    cannot reach the constant term and is dropped.  No exponent exceeds
    |P| + k, so A is keyed by its digits in base |P| + k + 1: A - e_i and
    A + e_j are key - base^i and key + base^j.  Each key is decoded once
    per call.  The integer result becomes a Fraction only on return.
    """
    base = sum(P) + k + 1
    units = [base**i for i in range(len(P))]
    state = {sum(p * u for p, u in zip(P, units)): 1}
    decoded = {}  # key -> (degree, [(a_i^2, key of A - e_i) for a_i > 0])
    for left in range(k - 1, -1, -1):
        nxt: Dict[int, int] = defaultdict(int)
        for A, c in state.items():
            if A not in decoded:
                digits = [A // u % base for u in units]
                decoded[A] = sum(digits), [(a * a, A - u) for a, u in zip(digits, units) if a]
            d, lows = decoded[A]
            if d > left + 1:
                continue
            for sq, low in lows:
                w = c * sq
                nxt[low] += w
                if d <= left:
                    for u in units:
                        nxt[low + u] += w
            if 0 < d <= left:
                w = c * d * d
                nxt[A] += w
                if d < left:
                    for u in units:
                        nxt[A + u] += w
        state = nxt
    return Fraction(state.get(0, 0))


def laplacian_power_at_zero(n: int, P, k: int) -> Fraction:
    """Delta^k |z^P|^2 evaluated at the origin, exactly."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _laplacian_rewrite_at_zero(_exponents(P, n), k)


def mixed_laplacian_power_at_zero(n: int, P, Q, k: int) -> Fraction:
    """Delta^k (z^P zbar^Q) at the origin on the extended monomial basis.

    Delta(z^P zbar^Q) = sum_i p_i q_i (z^{P-e_i} zbar^{Q-e_i}
                        + sum_k z^{P-e_i+e_k} zbar^{Q-e_i+e_k})
                        + |P||Q| (z^P zbar^Q + sum_k z^{P+e_k} zbar^{Q+e_k}).
    The rewrite preserves P - Q, so for P != Q the constant term can
    never appear and the result is 0 for every k; for P = Q it is
    laplacian_power_at_zero.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    P = _exponents(P, n)
    if P != _exponents(Q, n):
        return Fraction(0)
    return _laplacian_rewrite_at_zero(P, k)


def delta_c_power_at_zero(l: int, P) -> Fraction:
    """Flat Laplacian powers of |z^P|^2 at 0: l! P! when l = |P|, else 0."""
    if l < 0:
        raise ValueError("l must be >= 0")
    P = _exponents(P)
    if l != sum(P):
        return Fraction(0)
    return Fraction(factorial(l) * prod(map(factorial, P)))


def fs_monomial_integral(n: int, m: int, P) -> Fraction:
    """Exact value of (1/pi^n) int |z^P|^2 (1+|z|^2)^{-(m+n+1)} dV.

    Equals P! (m-|P|)! / (m+n)!; the formula needs |P| <= m.
    """
    P = _exponents(P, n)
    degree = sum(P)
    if degree > m:
        raise ValueError("requires |P| <= m, got |P|=%d, m=%d" % (degree, m))
    return Fraction(prod(map(factorial, P)) * factorial(m - degree), factorial(m + n))


@dataclass(frozen=True)
class ConversionTable:
    """Integer rows a_{k,l} of the conversion polynomials f_k(t) = sum_l a_{k,l} t^l."""

    n: int
    rows: Tuple[Tuple[int, ...], ...]  # rows[k-1] has the ints a_{k,l}, l=0..k

    @property
    def max_order(self) -> int:
        return len(self.rows)

    def coefficient(self, k: int, l: int) -> int:
        if not (1 <= k <= self.max_order):
            raise ValueError("row %d not computed" % k)
        row = self.rows[k - 1]
        return row[l] if 0 <= l < len(row) else 0

    def polynomial(self, k: int) -> RationalPolynomial:
        if not (1 <= k <= self.max_order):
            raise ValueError("row %d not computed" % k)
        return RationalPolynomial(self.rows[k - 1])


def _conversion_rows(n: int, K: int) -> List[List[int]]:
    """Integer rows a_{k,l}, l = 0..k, of the conversion recursion, k = 1..K."""
    if n < 1 or K < 1:
        raise ValueError("need n >= 1 and K >= 1")
    rows = [[0, 1]]
    for k in range(1, K):
        prev = rows[-1] + [0, 0]
        rows.append([0] + [
            prev[l - 1]
            + l * (2 * l + n - 1) * prev[l]
            + l * l * (l + 1) * (l + n) * prev[l + 1]
            for l in range(1, k + 2)
        ])
    return rows


def conversion_polynomials(n: int, K: int) -> ConversionTable:
    """Build rows 1..K of the a_{k,l} recursion.

    a_{k+1,l} = a_{k,l-1} + l(2l+n-1) a_{k,l} + l^2 (l+1)(l+n) a_{k,l+1},
    with a_{k,0} = 0 and a_{k,k} = 1.  The entries are Python ints.
    """
    return ConversionTable(n=n, rows=tuple(map(tuple, _conversion_rows(n, K))))


def eigen_delta_c_values(n: int, K: int) -> List[RationalPolynomial]:
    """Flat-Laplacian moments of a Laplace eigenfunction, as polynomials.

    For radial phi with Delta phi = -lambda phi and phi(0) = 1, the values
    delta_l = Delta_c^l phi(0) satisfy (-lambda)^k = sum_l a_{k,l} delta_l.
    The system is unit triangular (a_{k,k} = 1), so each delta_k is a
    polynomial in lambda of degree k, with integer coefficients: they are
    solved for over the integer conversion table and wrapped as
    RationalPolynomial on return.  Returns [delta_0, ..., delta_K].
    variation_series_eigen does not use these polynomials; it solves the
    same system for the values delta_k(lambda) at one lambda.
    """
    rows = _conversion_rows(n, K) if K >= 1 else None
    deltas = [[1]]  # coefficients in lambda, low degree first
    for k in range(1, K + 1):
        acc = [0] * k + [(-1) ** k]
        for l in range(1, k):
            a = rows[k - 1][l]
            for i, c in enumerate(deltas[l]):
                acc[i] -= a * c
        deltas.append(acc)
    return [RationalPolynomial(d) for d in deltas]


class _VariationEngine:
    """The lambda-independent part of variation_series_eigen at fixed (n, J).

    In x = 1/m, every factorial ratio of the variation is m^d times a
    power series in x with integer coefficients:
      1/prod_{i=-k+1}^{n} (m+i) = m^{-(n+k)} R_k(x),
      (m+n)!/m! = m^n Q(x),  Q(x) = prod_{i=1}^{n} (1 + i x).
    All are factor_ratio_series: Q and R_0 of 1..n, and R_k is R_{k-1}
    divided by 1 - (k-1) x, i.e. by m - k + 1, kept to order J - k, all
    the sum needs.  Building these once lets every lambda share them;
    only the deltas and one weighted sum depend on lambda.
    """

    def __init__(self, n: int, J: int):
        if J < 1:
            raise ValueError("J must be >= 1")
        self.n, self.J = n, J
        self.rows = _conversion_rows(n, J)
        self.Q = factor_ratio_series(range(1, n + 1), (), n)
        self.R = [factor_ratio_series((), range(1, n + 1), J)]
        for k in range(1, J + 1):
            self.R.append(factor_ratio_series((), [1 - k], J - k, self.R[-1]))

    def numerators(self, lam, centered: bool = False) -> Tuple[List[int], int]:
        """Integers U and scale with the series m^{n+1} sum_j (U_j / scale) / m^j."""
        lam = _frac(lam)
        p, q = lam.numerator, lam.denominator
        n, J = self.n, self.J
        q_pow = [q**i for i in range(J + 1)]
        # D_k = q^k delta_k(lambda), solved from the unit-triangular system
        D = [1]
        for k in range(1, J + 1):
            row = self.rows[k - 1]
            D.append((-p) ** k - sum(row[l] * D[l] * q_pow[k - l] for l in range(1, k)))
        # S(x) = sum_k delta_k/k! x^k R_k(x) = N(x) / (J! q^J)
        N = [0] * (J + 1)
        ratio = 1  # J!/k!
        for k in range(J, -1, -1):
            w = D[k] * q_pow[J - k] * ratio
            if w:
                for j, r in enumerate(self.R[k]):
                    N[k + j] += w * r
            ratio *= k
        # -(Q^2/n!) (m + lambda) S (+ Q m/n! when centered) is m^{n+1} times
        # (Q(x)^2 (-q - p x) N(x) [+ den Q(x)]) / (n! den), den = q J! q^J
        den = q * factorial(J) * q_pow[J]
        U = factor_ratio_series(2 * list(range(1, n + 1)), (), J,
                                [-q * a - p * b for a, b in zip(N, [0] + N)])
        if centered:
            for j, c in enumerate(self.Q[: J + 1]):
                U[j] += den * c
        return U, factorial(n) * den

    def series(self, lam, centered: bool = False, normalized: bool = True) -> InverseMSeries:
        U, scale = self.numerators(lam, centered)
        if normalized:  # over the first nonzero numerator; the zero series stays zero
            scale = next((u for u in U if u), scale)
        return InverseMSeries(self.n + 1, [Fraction(u, scale) for u in U])


def variation_series_eigen(
    n: int,
    lam,
    J: int,
    centered: bool = False,
    normalized: bool = True,
) -> InverseMSeries:
    """Expansion in 1/m of the density first variation for an eigenfunction.

    For radial phi with Delta phi = -lambda phi and phi(0) = 1 the kernel
    moment is  int phi (1+|z|^2)^{-(m+n+1)} dV / pi^n
             = sum_k delta_k(lambda) (m-k)!/(k! (m+n)!),
    and the variation picks up the factor (m + lambda) from m phi - Delta phi
    together with ((m+n)!/m!)^2 and -1/n!.  All factorial ratios are expanded
    exactly to relative order J.

    The arithmetic is in plain integers: the conversion rows, the series of
    each factorial ratio in 1/m (see _VariationEngine), and the values
    q^k delta_k(p/q) from the unit-triangular system; the sum is formed
    over one common denominator and becomes Fractions only at the end.
    lambda must be exact (an int, a Fraction, or a string such as "7/3");
    a float raises TypeError, since Fraction(0.1) is a different eigenvalue.

    The raw assembly takes phi itself as the perturbation.  The variation
    formula is stated for potentials vanishing at the base point; passing
    centered=True subtracts the constant phi(0) contribution, which cancels
    the two leading orders (the returned centered series therefore carries
    relative order J-2).
    """
    return _VariationEngine(n, J).series(lam, centered, normalized)


def variation_order1_polynomial(n: int) -> RationalPolynomial:
    """Coefficient of m^{n-1} in the centered variation, as a polynomial in lambda.

    The two top orders of the centered series cancel identically, so this
    is its leading behavior.  Only delta_0..delta_2 reach this order, hence
    the degree is at most 2; five interpolation nodes overdetermine it.
    """
    engine = _VariationEngine(n, 4)
    xs = [Fraction(v) for v in range(5)]
    ys = [engine.series(lam, centered=True, normalized=False).coefficient_at(n - 1)
          for lam in xs]
    return RationalPolynomial.interpolate(xs, ys)


def polynomiality_criterion(n: int, k0: int):
    """Exact division test for the closed-form variation at lambda = k0(k0+n).

    Numerator (m+n)...(m-k0+1) (m + k0(k0+n)), denominator
    (m+k0+n)...(m+n+1): monic, with integer roots, so the division is
    synthetic and in integers.  Returns (remainder is zero, remainder).
    """
    if k0 < 1:
        raise ValueError("k0 must be >= 1")
    up, down = _resonant_ratio(n, k0)
    d = len(down)
    # prod (m + i) over d roots is m^d prod (1 + i/m): coefficients highest degree first
    rem, denom = factor_ratio_series(up, (), len(up)), factor_ratio_series(down, (), d)
    for k in range(len(rem) - d):
        for j in range(1, d + 1):
            rem[k + j] -= rem[k] * denom[j]
    rem = RationalPolynomial(rem[::-1][:d])
    return rem.is_zero(), rem


def admissible_eigenvalue_scan(n: int, k_max: int, J: int) -> Set[int]:
    """Levels k <= k_max whose variation series is polynomial through order J.

    Keeps k when the series for lambda = k(k+n) has coefficient zero at
    every order j with n < j <= J.  One _VariationEngine is built for the
    call and shared by every level, so each level costs only its integer
    deltas and one weighted sum; the test reads its integer numerators.
    """
    out: Set[int] = set()
    if k_max < 1:
        return out
    engine = _VariationEngine(n, J)
    for k in range(1, k_max + 1):
        nonzero = [j for j, u in enumerate(engine.numerators(k * (k + n))[0]) if u]
        if not nonzero or nonzero[-1] - nonzero[0] <= n:
            out.add(k)
    return out

"""Exact Laplacian combinatorics at the Fubini-Study base point.

Everything in this module is exact and runs in Python integers: the
Laplacian rewrite on |z^P|^2, the conversion polynomials f_k relating
Fubini-Study Laplacian powers at the origin to flat ones, the moments
delta_k(lambda), the eigenfunction variation series in 1/m and the
polynomiality criterion that singles out the first eigenvalue.  f_k,
delta_k and the criterion's remainder are returned as int tuples, low
degree first, trimmed; the Laplacian powers and the series as Fractions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Dict, List, Optional, Set, Tuple

from .projective import _resonant_ratio
from .ratpoly import InverseMSeries, _frac, factor_ratio_series


def _exponents(P, n: Optional[int] = None) -> Tuple[int, ...]:
    """Exponent tuple of the monomial z^P, checked nonnegative and, given n, of length n."""
    exps = tuple(int(p) for p in P)
    if any(p < 0 for p in exps):
        raise ValueError("multi-index components must be nonnegative")
    if n is not None and len(exps) != n:
        raise ValueError("multi-index has %d components, expected %d" % (len(exps), n))
    return exps


def laplacian_power_at_zero(n: int, P, k: int) -> Fraction:
    """Delta^k |z^P|^2 at the origin, exactly, computed in integers.

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
    if k < 0:
        raise ValueError("k must be >= 0")
    P = _exponents(P, n)
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


def conversion_polynomials(n: int, K: int) -> ConversionTable:
    """Build rows 1..K of the a_{k,l} recursion.

    a_{k+1,l} = a_{k,l-1} + l(2l+n-1) a_{k,l} + l^2 (l+1)(l+n) a_{k,l+1},
    with a_{k,0} = 0 and a_{k,k} = 1.  The entries are Python ints.
    """
    if n < 1 or K < 1:
        raise ValueError("need n >= 1 and K >= 1")
    diag = [l * (2 * l + n - 1) for l in range(1, K + 1)]
    upper = [l * l * (l + 1) * (l + n) for l in range(1, K + 1)]
    rows = [(0, 1)]
    for _ in range(1, K):
        prev = rows[-1] + (0, 0)
        rows.append((0,) + tuple(a + d * b + u * c for a, b, c, d, u
                                 in zip(prev, prev[1:], prev[2:], diag, upper)))
    return ConversionTable(n=n, rows=tuple(rows))


def eigen_delta_c_values(n: int, K: int) -> List[Tuple[int, ...]]:
    """Flat-Laplacian moments of a Laplace eigenfunction, as polynomials in lambda.

    For radial phi with Delta phi = -lambda phi and phi(0) = 1, the values
    delta_l = Delta_c^l phi(0) satisfy (-lambda)^k = sum_l a_{k,l} delta_l,
    a unit-triangular system over the conversion table.  Its rows are
    a_k = M^k e_0, M the tridiagonal matrix of the conversion recursion, so
    the eigenvector of M^T with eigenvalue -lambda and delta_0 = 1 solves
    it: a_k . delta = e_0 . (M^T)^k delta = (-lambda)^k.  Row l of
    M^T delta = -lambda delta is the three-term recurrence
      delta_{l+1} = -(lambda + l(2l+n-1)) delta_l
                    - (l-1)^2 l (l+n-1) delta_{l-1},
    delta_1 = -lambda.  Each delta_k is a polynomial in lambda of degree k
    with integer coefficients and lead (-1)^k, a tuple of k + 1 ints, low
    degree first.  Returns [delta_0, ..., delta_K] for K >= 0.
    _variation_numerators runs the same recurrence on the values at one
    lambda.
    """
    if n < 1 or K < 0:
        raise ValueError("need n >= 1 and K >= 0")
    deltas = [[1], [0, -1]][:K + 1]  # coefficients in lambda, low degree first
    for l in range(1, K):
        c, e = l * (2 * l + n - 1), (l - 1) ** 2 * l * (l + n - 1)
        d = deltas[l]  # -(lambda + c) d - e delta_{l-1}, one coefficient at a time
        deltas.append([-c * a - b - e * z for a, b, z
                       in zip(d + [0], [0] + d, deltas[l - 1] + [0, 0])])
    return [tuple(d) for d in deltas]


def _variation_numerators(n: int, lam, J: int, centered: bool = False) -> Tuple[List[int], int]:
    """Integers U and scale with the variation series m^{n+1} sum_j (U_j / scale) / m^j.

    In x = 1/m the kernel moment is m^{-n} S(x), with
      S(x) = sum_k delta_k/k! x^k R_k(x),  R_k = R_0 / prod_{i<k} (1 - i x),
    from 1/prod_{i=-k+1}^{n} (m+i) = m^{-(n+k)} R_k(x), and R_0 = 1/Q,
    Q(x) = prod_{i=1}^{n} (1 + i x), from (m+n)!/m! = m^n Q(x).  For
    lambda = p/q the integers D_l = q^l delta_l come from the recurrence
    of eigen_delta_c_values, and H = J! q^J Q S by Horner,
    H <- W_k + x H / (1 - k x) for k = J down to 0, W_k = D_k q^{J-k} J!/k!:
    each step is one ascending integer pass, kept to order J - k.  The
    variation -(Q^2/n!) (m + lambda) S (+ Q m/n! when centered) is then
    m^{n+1} (Q(x) (-q - p x) H(x) [+ den Q(x)]) / (n! den), den = q J! q^J.
    """
    if n < 1 or J < 1:
        raise ValueError("need n >= 1 and J >= 1")
    lam = _frac(lam)
    p, q = lam.numerator, lam.denominator
    D = [1, -p]
    for l in range(1, J):
        D.append(-(p + l * (2 * l + n - 1) * q) * D[l]
                 - (l - 1) ** 2 * l * (l + n - 1) * q * q * D[l - 1])
    H: List[int] = []
    w = 1  # q^{J-k} J!/k!
    for k in range(J, -1, -1):
        acc, H = 0, [D[k] * w] + H
        for j in range(1, len(H)):  # x H / (1 - k x), one ascending pass
            acc = H[j] = H[j] + k * acc
        w *= q * k
    den = q * factorial(J) * q**J
    U = factor_ratio_series(range(1, n + 1), (), J, [-q * a - p * b for a, b in zip(H, [0] + H)])
    if centered:
        for j, c in enumerate(factor_ratio_series(range(1, n + 1), (), n)[:J + 1]):
            U[j] += den * c
    return U, factorial(n) * den


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

    The arithmetic is in plain integers (see _variation_numerators): the
    values q^k delta_k(p/q) from their three-term recurrence, and the sum
    by Horner over one common denominator; it becomes Fractions only at
    the end.  lambda must be exact (an int, a Fraction, or a string such
    as "7/3"); a float raises TypeError, since Fraction(0.1) is a
    different eigenvalue.

    The raw assembly takes phi itself as the perturbation.  The variation
    formula is stated for potentials vanishing at the base point; passing
    centered=True subtracts the constant phi(0) contribution, which cancels
    the two leading orders (the returned centered series therefore carries
    relative order J-2).
    """
    U, scale = _variation_numerators(n, lam, J, centered)
    if normalized:  # over the first nonzero numerator; the zero series stays zero
        scale = next((u for u in U if u), scale)
    return InverseMSeries(n + 1, [Fraction(u, scale) for u in U])


def polynomiality_criterion(n: int, k0: int):
    """Exact division test for the closed-form variation at lambda = k0(k0+n).

    Numerator (m+n)...(m-k0+1) (m + k0(k0+n)), denominator
    (m+k0+n)...(m+n+1): monic, with integer roots, so the division is
    synthetic and in integers.  Returns (remainder is zero, remainder), the
    remainder a tuple of ints, low degree first, trimmed: () if exact.
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
    rem = rem[::-1][:d]
    while rem and rem[-1] == 0:
        rem.pop()
    return not rem, tuple(rem)


def admissible_eigenvalue_scan(n: int, k_max: int, J: int) -> Set[int]:
    """Levels k <= k_max whose variation series is polynomial through order J.

    Keeps k when the series for lambda = k(k+n) has coefficient zero at
    every order j with n < j <= J.  Each level costs its integer moment
    recurrence and one Horner sum (see _variation_numerators); the test
    reads the integer numerators and builds no Fraction.
    k_max must be at least 0 (ValueError otherwise).
    """
    if k_max < 0:
        raise ValueError(f"k_max = {k_max} is negative")
    out: Set[int] = set()
    for k in range(1, k_max + 1):
        nonzero = [j for j, u in enumerate(_variation_numerators(n, k * (k + n), J)[0]) if u]
        if not nonzero or nonzero[-1] - nonzero[0] <= n:
            out.add(k)
    return out

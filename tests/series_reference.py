"""Fraction-arithmetic polynomial and series constructions, references for the integer paths.

These are the constructors and operations `RationalPolynomial` and
`InverseMSeries` carried before the library came to compute its closed
forms, remainders and curvature numerators in plain integers.  They
build the same objects the slow way, so the tests compare the integer
results against them.
"""

from fractions import Fraction
from typing import Iterable, Tuple

from cpnbergman import InverseMSeries, RationalPolynomial


def from_roots(roots: Iterable) -> RationalPolynomial:
    """The monic polynomial prod (x - r) over the given roots."""
    p = RationalPolynomial([1])
    for r in roots:
        p = p * RationalPolynomial([-Fraction(r), 1])
    return p


def poly_divmod(p: RationalPolynomial,
                d: RationalPolynomial) -> Tuple[RationalPolynomial, RationalPolynomial]:
    """Quotient and remainder of p by d, by long division over Q."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    deg, lead = d.degree, d.coeffs[-1]
    quot = [Fraction(0)] * max(len(rem) - deg, 0)
    for k in range(len(rem) - 1, deg - 1, -1):
        q = quot[k - deg] = rem[k] / lead
        for j in range(deg + 1):
            rem[k - deg + j] -= q * d.coeffs[j]
    return RationalPolynomial(quot), RationalPolynomial(rem[:deg])


def derivative(p: RationalPolynomial) -> RationalPolynomial:
    return RationalPolynomial([k * c for k, c in enumerate(p.coeffs)][1:])


def series_from_polynomial(p: RationalPolynomial, order: int) -> InverseMSeries:
    """p(m) as an InverseMSeries of relative order `order`: its trailing 1/m terms are 0."""
    if p.is_zero():
        return InverseMSeries.zero(-order)
    lead = p.degree
    cs = [p.coefficient(lead - j) for j in range(lead + 1)]
    cs += [Fraction(0)] * max(order - lead, 0)
    return InverseMSeries(lead, cs[:order + 1])


def normalized(s: InverseMSeries) -> InverseMSeries:
    """s over its leading coefficient, so c0 = 1; the zero series stays zero."""
    return s if s.is_zero() else InverseMSeries(s.lead, [c / s.coeffs[0] for c in s.coeffs])

"""Polynomials over sympy and 1/m-series helpers, references for the integer paths.

The library computes its closed forms, remainders and curvature
numerators in plain integers and only wraps the results in
`RationalPolynomial` and `InverseMSeries`.  The tests build the same
objects independently: polynomials are sympy Polys over QQ in `x`, with
sympy's product, division and derivative, and enter the series type
through `series_from_polynomial`.  `add` is the one series operation
the library does not carry.
"""

from fractions import Fraction
from typing import Iterable

import sympy as sp

from cpnbergman import InverseMSeries

x = sp.Symbol("x")


def poly(cs: Iterable) -> sp.Poly:
    """The Poly over QQ with coefficients cs, low degree first."""
    return sp.Poly(list(cs)[::-1] or [0], x, domain=sp.QQ)


def coeffs(p: sp.Poly) -> list:
    """p's coefficients as Fractions, low degree first, none for 0: RationalPolynomial's form."""
    return [] if p.is_zero else [Fraction(c) for c in reversed(p.all_coeffs())]


def from_roots(roots: Iterable) -> sp.Poly:
    """The monic polynomial prod (x - r) over the given roots."""
    return sp.Poly(sp.prod([x - sp.Rational(Fraction(r)) for r in roots]), x, domain=sp.QQ)


def series_from_polynomial(p: sp.Poly, order: int) -> InverseMSeries:
    """p(m) as an InverseMSeries of relative order `order`: its trailing 1/m terms are 0."""
    if p.is_zero:
        return InverseMSeries.zero(-order)
    return InverseMSeries(p.degree(), (p.all_coeffs() + [0] * order)[:order + 1])


def add(a: InverseMSeries, b: InverseMSeries) -> InverseMSeries:
    """a + b on the powers of m known in both, down to the larger min_power."""
    low = max(a.min_power, b.min_power)
    lead = max(a.lead, b.lead, low)

    def at(s, p):  # the coefficient of m^p, zero above the lead
        return s.coeffs[s.lead - p] if p <= s.lead else 0

    return InverseMSeries(lead, [at(a, p) + at(b, p) for p in range(lead, low - 1, -1)])


def normalized(s: InverseMSeries) -> InverseMSeries:
    """s over its leading coefficient, so c0 = 1; the zero series stays zero."""
    return s if s.is_zero() else InverseMSeries(s.lead, [c / s.coeffs[0] for c in s.coeffs])

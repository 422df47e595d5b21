"""The exact series type and the integer series pass: canonical forms, the
series product and reciprocal, and factor_ratio_series.

Polynomial arithmetic is sympy's (see series_reference); the library
returns exact polynomials as tuples of ints and its series type only
holds results, so these tests check what it holds.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpnbergman import InverseMSeries, ratpoly
from cpnbergman.ratpoly import factor_ratio_series
from series_reference import add, from_roots, poly, series_from_polynomial, x

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


class TestInverseMSeries:
    def test_leading_power_canonical(self):
        s = InverseMSeries(2, [Fraction(0), Fraction(0), Fraction(3), Fraction(1)])
        assert s.lead == 0
        assert s.coeffs == (3, 1)
        assert s.min_power == -1

    def test_zero_series(self):
        s = InverseMSeries(1, [0, 0, 0])
        assert s.is_zero()
        assert (s.lead, s.coeffs, s.min_power) == (-1, (0,), -1)
        assert s == InverseMSeries.zero(-1)

    def test_constructor_rejects_empty_and_floats(self):
        with pytest.raises(ValueError):
            InverseMSeries(0, [])
        with pytest.raises(TypeError):
            InverseMSeries(0, [0.5])

    def test_repr_names_the_lead_and_the_coefficients(self):
        assert repr(InverseMSeries(3, [2, Fraction(-1, 3)])) == "InverseMSeries(lead=3, [2, -1/3])"
        assert repr(InverseMSeries.zero(-2)) == "InverseMSeries(lead=-2, [0])"

    def test_leading_coefficients_pads(self):
        s = InverseMSeries(3, [2, Fraction(1, 3)])
        assert s.leading_coefficients(1) == [2]
        got = s.leading_coefficients(4)
        assert got == [2, Fraction(1, 3), 0, 0]
        assert all(type(c) is Fraction for c in got)
        assert InverseMSeries.zero(-2).leading_coefficients(2) == [0, 0]

    def test_from_polynomial(self):
        s = series_from_polynomial(poly([0, 2, 1]), order=3)  # 2m + m^2
        assert s.lead == 2
        assert s.leading_coefficients(3) == [Fraction(1), Fraction(2), Fraction(0)]

    def test_addition_alignment(self):
        a = InverseMSeries(2, [Fraction(1), Fraction(1)])
        b = InverseMSeries(1, [Fraction(-1)])
        c = add(a, b)
        assert (c.lead, c.coeffs) == (2, (1, 0))

    def test_multiplication_truncates_to_smaller_order(self):
        a = InverseMSeries(1, [Fraction(1), Fraction(3)])
        b = InverseMSeries(0, [Fraction(2), Fraction(-1)])
        c = a * b  # (m + 3)(2 - 1/m) = 2m + 5 - 3/m
        assert (c.lead, c.coeffs) == (1, (2, 5))
        # relative order 1 on both sides: the m^-1 term is not known
        assert c.min_power == 0
        longer = InverseMSeries(0, [2, -1, 7, 1])
        assert (a * longer).min_power == (longer * a).min_power == 0

    def test_scalar_and_zero_products(self):
        a = InverseMSeries(1, [1, 3])
        assert 2 * a == a * 2 == InverseMSeries(1, [2, 6])
        assert a * Fraction(1, 3) == InverseMSeries(1, [Fraction(1, 3), 1])
        assert 0 * a == InverseMSeries.zero(a.min_power)
        # a zero factor known down to m^-3 leaves the product known down to m^-3 * m^1
        assert InverseMSeries.zero(-3) * a == a * InverseMSeries.zero(-3) == InverseMSeries.zero(-2)

    def test_reciprocal_shifts_lead(self):
        r = InverseMSeries(2, [Fraction(4), Fraction(1)]).reciprocal()
        assert r.lead == -2
        assert r.coeffs == (Fraction(1, 4), Fraction(-1, 16))  # 1 / (4m^2 + m)

    def test_reciprocal_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            InverseMSeries.zero().reciprocal()

    @given(
        st.lists(rationals, min_size=1, max_size=4),
        st.lists(rationals, min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_mul_agrees_with_polynomial_product(self, ca, cb):
        order = 8
        prod = series_from_polynomial(poly(ca), order) * series_from_polynomial(poly(cb), order)
        want = series_from_polynomial(poly(ca) * poly(cb), order)
        if want.is_zero():
            assert prod.is_zero()
        else:
            assert prod == want

    @given(lead=st.integers(min_value=-5, max_value=5),
           cs=st.lists(rationals, min_size=1, max_size=6).filter(lambda cs: cs[0] != 0))
    @example(lead=0, cs=[Fraction(1), Fraction(2), Fraction(5)])
    @settings(max_examples=50, deadline=None)
    def test_reciprocal_of_unit(self, lead, cs):
        # the product is 1 to the same relative order, with lead 0
        s = InverseMSeries(lead, cs)
        assert s * s.reciprocal() == InverseMSeries(0, [1] + [0] * (len(cs) - 1))


class TestFactorRatioSeries:
    roots = st.lists(st.integers(min_value=-9, max_value=9), max_size=5)

    @staticmethod
    def product(roots):
        return sp.Poly(sp.prod([1 + i * x for i in roots]), x, domain=sp.QQ)

    @given(up=roots, down=roots, J=st.integers(min_value=0, max_value=10),
           start=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_series_division(self, up, down, J, start):
        # c(x) prod_down (1 + i x) = start(x) prod_up (1 + i x) mod x^(J+1);
        # prod_down is 1 at x = 0, so this fixes the J + 1 coefficients c
        c = factor_ratio_series(up, down, J, start)
        assert len(c) == J + 1
        diff = poly(c) * self.product(down) - poly(start) * self.product(up)
        assert diff.rem(sp.Poly(x ** (J + 1), x, domain=sp.QQ)).is_zero

    @given(up=roots)
    @settings(max_examples=30, deadline=None)
    def test_lists_polynomial_coefficients(self, up):
        coeffs = factor_ratio_series(up, (), len(up))
        assert sp.Poly(coeffs, x, domain=sp.QQ) == from_roots([-i for i in up])

    def test_from_roots(self):
        # the oracle above: monic, with the given roots
        p = from_roots([Fraction(0), Fraction(2)])
        assert p.eval(0) == 0
        assert p.eval(2) == 0
        assert p.eval(1) == -1  # monic (x)(x-2)


def test_no_polynomial_type():
    # exact polynomials are tuples of ints, low degree first (see conversion)
    assert not hasattr(ratpoly, "RationalPolynomial")

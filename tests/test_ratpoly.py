"""Exact polynomial and 1/m-series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnbergman import InverseMSeries, RationalPolynomial
from cpnbergman.ratpoly import factor_ratio_series
from series_reference import derivative, from_roots, poly_divmod, series_from_polynomial

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def poly(*coeffs):
    return RationalPolynomial([Fraction(c) for c in coeffs])


class TestRationalPolynomial:
    def test_trailing_zeros_stripped(self):
        p = poly(1, 2, 0, 0)
        assert p.degree == 1
        assert p.coefficient(5) == 0

    def test_zero_polynomial(self):
        z = poly()
        assert z.is_zero()
        assert z.degree == -1
        assert z(Fraction(7)) == 0

    def test_evaluation_is_exact(self):
        p = poly(Fraction(1, 3), -2, 5)
        x = Fraction(7, 11)
        assert p(x) == Fraction(1, 3) - 2 * x + 5 * x * x

    def test_arithmetic(self):
        p = poly(1, 1)
        q = poly(-1, 1)
        assert (p * q).coefficient(2) == 1
        assert (p * q)(Fraction(3)) == 8
        assert (p + q)(Fraction(3)) == 6
        assert (p - p).is_zero()

    def test_from_roots(self):
        p = from_roots([Fraction(0), Fraction(2)])
        assert p(Fraction(0)) == 0
        assert p(Fraction(2)) == 0
        assert p(Fraction(1)) == -1  # monic (x)(x-2)

    def test_derivative(self):
        p = poly(5, 3, 0, 2)
        d = derivative(p)
        assert [d.coefficient(k) for k in range(3)] == [3, 0, 6]

    def test_divmod_identity(self):
        p = poly(2, 0, -7, 1, 3)
        d = poly(-1, 1)
        q, r = poly_divmod(p, d)
        assert (q * d + r - p).is_zero()
        assert r.degree < d.degree

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(poly(1), poly())

    def test_interpolate_recovers_polynomial(self):
        p = poly(Fraction(1, 2), -3, Fraction(2, 7))
        xs = [Fraction(k) for k in range(3)]
        q = RationalPolynomial.interpolate(xs, [p(x) for x in xs])
        assert (p - q).is_zero()

    def test_interpolate_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RationalPolynomial.interpolate(
                [Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]
            )

    @given(st.lists(rationals, min_size=1, max_size=5),
           st.lists(rationals, max_size=4), rationals, rationals)
    @settings(max_examples=50, deadline=None)
    def test_evaluation_is_ring_hom(self, coeffs, other, x, y):
        # both factors rational: the product convolves over common denominators
        p = RationalPolynomial(coeffs)
        for q in (poly(1, 2, 1), RationalPolynomial(other)):
            assert (p * q)(x) == p(x) * q(x)
            assert (p + q)(y) == p(y) + q(y)

    @given(st.lists(rationals, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_interpolation_round_trip(self, coeffs):
        p = RationalPolynomial(coeffs)
        xs = [Fraction(k, 3) for k in range(len(coeffs))]
        q = RationalPolynomial.interpolate(xs, [p(x) for x in xs])
        assert (p - q).is_zero()


class TestInverseMSeries:
    def test_leading_power_canonical(self):
        s = InverseMSeries(2, [Fraction(0), Fraction(0), Fraction(3), Fraction(1)])
        assert s.lead == 0
        assert s.coefficient_at(0) == 3

    def test_zero_series(self):
        s = InverseMSeries(1, [Fraction(0)])
        assert s.is_zero()

    def test_coefficient_outside_window(self):
        s = InverseMSeries(1, [Fraction(1), Fraction(2)])
        assert s.coefficient_at(2) == 0
        with pytest.raises(ValueError):
            s.coefficient_at(-1)

    def test_from_polynomial(self):
        p = RationalPolynomial([Fraction(0), Fraction(2), Fraction(1)])  # 2m + m^2
        s = series_from_polynomial(p, order=3)
        assert s.lead == 2
        assert s.leading_coefficients(3) == [Fraction(1), Fraction(2), Fraction(0)]

    def test_addition_alignment(self):
        a = InverseMSeries(2, [Fraction(1), Fraction(1)])
        b = InverseMSeries(1, [Fraction(-1)])
        c = a + b
        assert c.lead == 2
        assert c.coefficient_at(2) == 1
        assert c.coefficient_at(1) == 0

    def test_multiplication_matches_evaluation(self):
        a = InverseMSeries(1, [Fraction(1), Fraction(3)])
        b = InverseMSeries(0, [Fraction(2), Fraction(-1)])
        c = a * b
        assert c.lead == 1
        assert c.coefficient_at(1) == 2
        assert c.coefficient_at(0) == 5
        # product keeps the smaller relative order: m^-1 term is truncated
        with pytest.raises(ValueError):
            c.coefficient_at(-1)

    def test_reciprocal_of_unit(self):
        a = InverseMSeries(0, [Fraction(1), Fraction(2), Fraction(5)])
        prod = a * a.reciprocal()
        assert prod.lead == 0
        assert prod.leading_coefficients(3) == [Fraction(1), Fraction(0), Fraction(0)]

    def test_reciprocal_shifts_lead(self):
        a = InverseMSeries(2, [Fraction(4), Fraction(1)])
        r = a.reciprocal()
        assert r.lead == -2
        assert r.coefficient_at(-2) == Fraction(1, 4)

    @given(
        st.lists(rationals, min_size=1, max_size=4),
        st.lists(rationals, min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_mul_agrees_with_polynomial_product(self, ca, cb):
        pa = RationalPolynomial(ca)
        pb = RationalPolynomial(cb)
        order = 8
        sa = series_from_polynomial(pa, order)
        sb = series_from_polynomial(pb, order)
        sc = series_from_polynomial(pa * pb, order)
        prod = sa * sb
        if sc.is_zero():
            assert prod.is_zero()
        else:
            for k in range(sc.lead, sc.lead - 4, -1):
                assert prod.coefficient_at(k) == sc.coefficient_at(k)


class TestFactorRatioSeries:
    roots = st.lists(st.integers(min_value=-9, max_value=9), max_size=5)

    @given(up=roots, down=roots, J=st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_matches_series_division(self, up, down, J):
        def series(roots):
            return series_from_polynomial(
                from_roots([-i for i in roots]), J)

        want = series(up) * series(down).reciprocal()
        assert want.lead == len(up) - len(down)
        assert factor_ratio_series(up, down, J) == want.leading_coefficients(J + 1)

    @given(up=roots)
    @settings(max_examples=30, deadline=None)
    def test_lists_polynomial_coefficients(self, up):
        coeffs = factor_ratio_series(up, (), len(up))
        assert RationalPolynomial(coeffs[::-1]) == from_roots([-i for i in up])

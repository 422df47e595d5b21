"""Adaptive quadrature on intervals, the half-line, and CP^1."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cpnbergman import (
    QuadratureError,
    cp1_integral,
    fs_monomial_integral,
    fs_weight,
    integrate_half_line,
    integrate_interval,
    monomial_kernel_quadrature,
)


class TestInterval:
    def test_polynomial_exact(self):
        val = integrate_interval(lambda x: x**3, 0.0, 1.0)
        assert val == pytest.approx(0.25, abs=1e-14)

    def test_exponential(self):
        val = integrate_interval(np.exp, 0.0, 2.0)
        assert val == pytest.approx(math.e**2 - 1.0, rel=1e-13)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_interval(np.exp, 1.0, 1.0)

    def test_budget_exhaustion(self):
        # kink keeps the panel error estimate alive past a tiny budget
        def kink(x):
            return np.sqrt(np.abs(x - 1.0 / 3.0))

        with pytest.raises(QuadratureError):
            integrate_interval(kink, 0.0, 1.0, rtol=1e-15, max_panels=2)

    @pytest.mark.parametrize("vector", [False, True])
    def test_noise_floor_stalls_before_budget(self, vector):
        # a ripple of about 45 ulps that no panel can resolve: rtol 1e-16 is
        # below what splitting can certify, so it stops long before the
        # 4096-panel budget and its 16383 integrand calls
        calls = []

        def noisy(x):
            calls.append(x.size)
            ripple = 1.0 + 1e-14 * np.sin(1e7 * x)
            return np.stack([np.exp(x), ripple]) if vector else ripple

        with pytest.raises(QuadratureError, match="stalled"):
            integrate_interval(noisy, 0.0, 1.0, rtol=1e-16)
        assert len(calls) < 1000

    def test_needle_resolved_with_budget(self):
        c = 0.1234567

        def needle(x):
            return np.exp(-((x - c) ** 2) * 1e4)

        val = integrate_interval(needle, 0.0, 1.0, rtol=1e-12)
        assert val == pytest.approx(math.sqrt(math.pi / 1e4), rel=1e-10)

    def test_vector_matches_scalar_calls(self):
        # components of very different size and width share one set of panels
        c = 0.1234567
        parts = [
            np.exp,
            lambda x: x**3,
            lambda x: np.exp(-((x - c) ** 2) * 1e4),
            lambda x: 1e-30 * np.sqrt(x),
        ]
        vec = integrate_interval(lambda x: np.stack([f(x) for f in parts]), 0.0, 1.0,
                                 rtol=1e-12)
        assert vec.shape == (len(parts),)
        for f, got in zip(parts, vec):
            want = integrate_interval(f, 0.0, 1.0, rtol=1e-12)
            assert isinstance(want, float)
            assert got == pytest.approx(want, rel=1e-11)

    def test_vector_nonfinite_raises(self):
        def f(x):
            return np.stack([np.ones_like(x), np.where(x > 0.5, np.inf, 1.0)])

        with np.errstate(invalid="ignore"), pytest.raises(QuadratureError):
            integrate_interval(f, 0.0, 1.0)


class TestHalfLine:
    def test_unit_volume_weight(self):
        assert integrate_half_line(fs_weight) == pytest.approx(1.0, abs=1e-13)

    def test_gamma_integral(self):
        val = integrate_half_line(lambda s: s * np.exp(-s))
        assert val == pytest.approx(1.0, rel=1e-12)


class TestCP1Integral:
    def test_beta_moments(self):
        # (1/pi) int s^j (1+s)^{-(m+2)} dA = j! (m-j)! / (m+1)!
        for m in (0, 1, 3, 8, 12):
            for j in range(0, m + 1, max(1, m // 3)):
                def F(z, j=j):
                    return np.abs(z) ** (2 * j)

                def w(s, m=m):
                    return (1.0 + s) ** (-(m + 2))

                exact = Fraction(
                    math.factorial(j) * math.factorial(m - j), math.factorial(m + 1)
                )
                got = cp1_integral(F, w)
                assert got == pytest.approx(float(exact), rel=1e-10), (m, j)

    def test_angular_dependence(self):
        # Re(z^2)^2 averages to s^2/2 on each circle
        def F(z):
            return np.real(z**2) ** 2

        def w(s):
            return (1.0 + s) ** (-5)

        assert cp1_integral(F, w) == pytest.approx(1.0 / 24.0, rel=1e-10)

    def test_zero_integrand(self):
        assert cp1_integral(lambda z: np.zeros_like(z, dtype=float), fs_weight) == 0.0

    def test_angular_refinement_failure(self):
        # discontinuous angular profile never stabilizes under doubling
        def F(z):
            return (np.cos(np.angle(z)) ** 2 > 0.5).astype(float)

        with pytest.raises(QuadratureError):
            cp1_integral(F, fs_weight, rtol=1e-12, atol=0.0)


class TestMonomialKernel:
    @pytest.mark.parametrize("n,m_max", [(1, 4), (2, 3)])
    def test_matches_exact_rational(self, n, m_max):
        import itertools

        for m in range(m_max + 1):
            for P in itertools.product(range(m + 1), repeat=n):
                if sum(P) > m:
                    continue
                exact = float(fs_monomial_integral(n, m, P))
                got = monomial_kernel_quadrature(n, m, P)
                assert got == pytest.approx(exact, rel=1e-9), (n, m, P)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            monomial_kernel_quadrature(3, 2, (0, 0, 0))

    def test_rejects_overweight_index(self):
        with pytest.raises(ValueError):
            monomial_kernel_quadrature(1, 1, (2,))

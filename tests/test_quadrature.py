"""Adaptive quadrature on intervals, the half-line, and CP^1."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cpnbergman import quadrature
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

    def test_budget_exhaustion(self, monkeypatch):
        # kink keeps the panel error estimate alive past a tiny budget
        def kink(x):
            return np.sqrt(np.abs(x - 1.0 / 3.0))

        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
        with pytest.raises(QuadratureError):
            integrate_interval(kink, 0.0, 1.0, rtol=1e-15)

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

    @pytest.mark.parametrize("vector", [False, True])
    def test_vector_nonfinite_raises(self, vector):
        def f(x):
            bad = np.where(x > 0.5, np.inf, 1.0)
            return np.stack([np.ones_like(x), bad]) if vector else bad

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
        # discontinuous angular profile never stabilizes under doubling; each
        # step is abandoned on its first split (3 rules), instead of spending
        # a radial pass's whole panel budget
        calls = []

        def F(z):
            calls.append(z.size)
            return (np.cos(np.angle(z)) ** 2 > 0.5).astype(float)

        with pytest.raises(QuadratureError):
            cp1_integral(F, fs_weight, rtol=1e-12, atol=0.0)
        assert len(calls) == 12

    def test_vector_matches_scalar_calls(self):
        parts = [
            lambda z: np.abs(z) ** 2,
            lambda z: np.real(z**2) ** 2,
            lambda z: np.imag(z) / (1.0 + np.abs(z) ** 2),
            lambda z: np.exp(-np.abs(z - 0.5) ** 2),
        ]

        def w(s):
            return (1.0 + s) ** (-6)

        vec = cp1_integral(lambda z: np.stack([f(z) for f in parts]), w)
        assert vec.shape == (len(parts),)
        for f, got in zip(parts, vec):
            want = cp1_integral(f, w)
            assert isinstance(want, float)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)

    @pytest.fixture
    def radial_passes(self, monkeypatch):
        passes = []
        half_line = quadrature.integrate_half_line

        def counted(*args, **kwargs):
            passes.append(1)
            return half_line(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_half_line", counted)
        return passes

    def test_vector_oracles_in_one_radial_pass(self, radial_passes):
        # Beta moments and Re(z^2)^2 together; smooth rows settle on the
        # first (64, 128) pair, so a single radial pass does all the work
        m = 8

        def F(z):
            moments = [np.abs(z) ** (2 * j) for j in range(m + 1)]
            return np.stack(moments + [np.real(z**2) ** 2 * (1.0 + np.abs(z) ** 2) ** (m - 3)])

        got = cp1_integral(F, lambda s: (1.0 + s) ** (-(m + 2)))
        exact = [math.factorial(j) * math.factorial(m - j) / math.factorial(m + 1)
                 for j in range(m + 1)]
        assert got[:-1] == pytest.approx(exact, rel=1e-10)
        assert got[-1] == pytest.approx(1.0 / 24.0, rel=1e-10)
        assert len(radial_passes) == 1

    def test_aliased_first_pair_moves_on(self, radial_passes):
        # cos(64 theta) aliases to 1 on the 64-point circle and averages to 0
        # on finer ones: the (64, 128) pass is abandoned on its first split
        # and the value comes from the refined (128, 256) pass
        def F(z):
            return 1.0 + np.cos(64.0 * np.angle(z)) + np.abs(z) ** 2 / (1.0 + np.abs(z) ** 4)

        got = cp1_integral(F, fs_weight)
        # int_0^inf s/(1+s^2) (1+s)^-2 ds = (pi/2 - 1)/2
        assert got == pytest.approx(1.0 + (math.pi / 2.0 - 1.0) / 2.0, rel=1e-10)
        assert len(radial_passes) == 2


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

    def test_n2_matches_exact_over_bench_range(self):
        # the inner integrals of an outer rule form one vector pass
        for m in range(4, 32):
            degree = m % 7
            for p1 in range(degree + 1):
                P = (p1, degree - p1)
                exact = float(fs_monomial_integral(2, m, P))
                assert monomial_kernel_quadrature(2, m, P) == pytest.approx(exact, rel=1e-9), (m, P)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            monomial_kernel_quadrature(3, 2, (0, 0, 0))

    def test_rejects_overweight_index(self):
        with pytest.raises(ValueError):
            monomial_kernel_quadrature(1, 1, (2,))

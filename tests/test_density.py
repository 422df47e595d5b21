"""Bergman densities, curvature reports and first variation on CP^1.

Independent oracles: Beta integrals for Fubini-Study section norms; the
radial curvature formulas
    g = psi' + s psi'',  psi = log(1+s) + u,
    rho = -(L' + s L'')/g with L = log g,   Delta rho = (rho' + s rho'')/g,
taken exactly in sympy's field of rational functions of p = 1/(1+s); and
for the first variation, a quadrature of the pulled-back integrand, an
exact sum obtained through the inverse Mobius map and a centred
difference of perturbed densities.
"""

import importlib.util
import math
import re
import time
from pathlib import Path
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from centred_difference_reference import centred_difference, perturbed
from series_reference import coeffs, poly
from variation_formula_reference import fraction_variation_formula

import cpnbergman
import cpnbergman.density as density_module
from cpnbergman import quadrature
from cpnbergman.cli import _profile_from
from cpnbergman import (
    PositivityError,
    QuadratureError,
    RadialMetric,
    RadialProfile,
    bergman_density,
    cp1_integral,
    first_variation,
    scalar_curvature,
    section_norms,
)

GRID = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0]


def beta_norm(m, j):
    return Fraction(math.factorial(j) * math.factorial(m - j), math.factorial(m + 1))


# exact rational functions of p = 1/(1+s); d/ds = -p^2 d/dp turns the
# s-form radial formulas into operations on them
QP, P = sp.field("p", sp.QQ)


def _d_ds(f):
    return -P**2 * f.diff(P)


def exact_curvature(g):
    """rho and Delta rho of the metric density g = psi' + s psi'', in Q(p)."""
    s = 1 / P - 1
    dlog = _d_ds(g) / g
    rho = -(dlog + s * _d_ds(dlog)) / g
    lap_rho = (_d_ds(rho) + s * _d_ds(_d_ds(rho))) / g
    return rho, lap_rho


def exact_at(f, p):
    return f.numer(p) / f.denom(p)


def _fs_laplacian(u, s):
    """Delta u at s from u.fs_laplacian_coeffs(), its coefficients in p = 1/(1+s)."""
    p = 1.0 / (1.0 + s)
    return sum(c * p**k for k, c in enumerate(u.fs_laplacian_coeffs()))


class TestRadialProfile:
    def test_catalog_values(self):
        # eigenfunction bump: eps (1-s)/(1+s); rational bump: eps s/(1+s)^2
        e = RadialProfile.eigenfunction_bump(0.1)
        r = RadialProfile.rational_bump(0.1)
        for s in (0.0, 0.5, 3.0):
            assert e.value(s) == pytest.approx(0.1 * (1 - s) / (1 + s), rel=1e-14)
            assert r.value(s) == pytest.approx(0.1 * s / (1 + s) ** 2, rel=1e-14)
        assert RadialProfile.zero().is_zero

    def test_trailing_zeros_trimmed(self):
        assert RadialProfile([0.1, 0.0]).coeffs == (0.1,)
        zero = RadialProfile([0.0, 0.0])
        assert zero.coeffs == () and zero.is_zero
        assert RadialMetric(zero).is_fubini_study

    @pytest.mark.parametrize("coeffs", [[math.nan], [0.0, 0.05, math.nan], [-math.inf, math.inf]])
    def test_non_finite_coefficients_rejected(self, coeffs):
        # RadialProfile([nan]) once gave a metric whose scalar curvature read 2
        with pytest.raises(ValueError, match="must be finite"):
            RadialProfile(coeffs)

    def test_phi1_poly_constructor(self):
        u = RadialProfile([0.0, 0.0, 1.0])
        assert u.value(1.0) == pytest.approx(0.25)

    def test_laplacian_matches_eigenfunction_family(self):
        # basis element p^k maps to Delta phi_k = k(ks - 1)(1+s)^-k on CP^1
        for k in range(1, 6):
            u = RadialProfile([0.0] * k + [1.0])
            for s in (0.0, 0.4, 2.0, 17.0):
                assert _fs_laplacian(u, s) == pytest.approx(
                    k * (k * s - 1) * (1.0 + s) ** (-k), rel=1e-13, abs=1e-13
                )

    def test_laplacian_against_finite_differences(self):
        u = RadialProfile.rational_bump(0.3)
        h = 1e-4
        for s in (0.3, 1.0, 4.0):
            f1 = (u.value(s + h) - u.value(s - h)) / (2 * h)
            f2 = (u.value(s + h) - 2 * u.value(s) + u.value(s - h)) / h**2
            expected = (1 + s) * (s * (1 + s) * f2 + (1 + s) * f1)
            assert _fs_laplacian(u, s) == pytest.approx(expected, rel=1e-5)

    def test_inverted_chart_is_involution(self):
        u = RadialProfile([0.2, -0.4, 0.3, 0.05])
        assert u.inverted_chart().inverted_chart().coeffs == u.coeffs

    def test_inverted_chart_pointwise(self):
        u = RadialProfile.eigenfunction_bump(0.2)
        v = u.inverted_chart()
        for s in (0.1, 0.7, 2.0, 40.0):
            assert v.value(1.0 / s) == pytest.approx(u.value(s), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("degree", range(-1, 6))
    def test_horner_from_the_top_matches_horner_from_zero(self, degree):
        # the first step from 0 gives the top coefficient exactly
        rng = np.random.default_rng(degree + 3)
        coeffs = tuple(rng.normal(size=degree + 1))
        p = np.append(rng.uniform(size=50), [0.0, 1.0])
        want = np.zeros_like(p)
        for c in reversed(coeffs):
            want = want * p + c
        assert density_module._horner(coeffs, p).tobytes() == want.tobytes()
        scalar = 0.0
        for c in reversed(coeffs):
            scalar = scalar * 0.3 + c
        got = density_module._horner(coeffs, 0.3)
        assert type(got) is float and got == scalar

    @pytest.mark.parametrize("degree", range(-1, 7))
    def test_scalar_horner_matches_the_array_path(self, degree):
        # Python floats and numpy's elementwise arithmetic round alike, so a
        # scalar p gives its array value bit for bit, as a Python float
        rng = np.random.default_rng(degree + 20)
        drawn = rng.normal(size=degree + 1) * 10.0 ** rng.uniform(-3, 3, degree + 1)
        ps = np.append(rng.uniform(size=60), [0.0, 1.0, 0.5, 1e-300])
        for coeffs in (tuple(drawn), tuple(map(float, drawn))):  # np.float64 and float entries
            want = density_module._horner(coeffs, ps)
            for p, value in zip(ps, want):
                for scalar in (float(p), np.float64(p), np.array(p)):
                    got = density_module._horner(coeffs, scalar)
                    assert type(got) is float and np.float64(got).tobytes() == value.tobytes()

    @pytest.mark.parametrize("degree", range(-1, 6))
    def test_divided_difference_matches_horner_from_zero(self, degree):
        # started at the top coefficient, the loop skips two steps that
        # leave d = c_top exactly: bit for bit the Horner loop from d = 0
        rng = np.random.default_rng(degree + 7)
        coeffs = tuple(rng.normal(size=degree + 1))
        p, q = rng.uniform(size=(9, 1)), rng.uniform(size=5)
        want = np.zeros((9, 5))
        a = 0.0
        for c in reversed(coeffs):
            want = want * p + a
            a = a * q + c
        got = density_module._divided_difference(coeffs, p, q)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRadialMetric:
    def test_volume_is_one_to_rounding(self):
        # closed form telescopes, so only float rounding remains
        for prof in (
            RadialProfile.zero(),
            RadialProfile.eigenfunction_bump(0.3),
            RadialProfile.rational_bump(0.4),
            RadialProfile([0.0, 0.1, 0.2, -0.05]),
        ):
            assert RadialMetric(prof).volume() == pytest.approx(1.0, abs=1e-14)

    def test_fubini_study_flag(self):
        assert RadialMetric.fubini_study().is_fubini_study
        assert not RadialMetric(RadialProfile.eigenfunction_bump(0.1)).is_fubini_study

    def test_positivity_enforced(self):
        with pytest.raises(PositivityError):
            RadialMetric(RadialProfile.eigenfunction_bump(0.6))

    def test_overflowing_density_rejected(self):
        # Delta of 1e308 p is 1e308 - 2e308 p: once a metric with a nan range
        with pytest.raises(ValueError, match="overflow"):
            RadialMetric(RadialProfile([0.0, 1e308]))

    def test_narrow_dip_rejected(self):
        # v(p) dips to about -1e-9 at p = 0.30001 (s = 2.333), between the
        # nodes of a 4097-point grid in p; the critical-point check finds it
        prof = RadialProfile([0.0, -0.27019795241713407, -1.3513951806398625])
        with pytest.raises(PositivityError, match=r"near s = 2\.333"):
            RadialMetric(prof)

    # v = 3 (2p - 1)^2 is 0 at p = 1/2, the midpoint of the first halving, and
    # v = 2 - 2p at p = 1, an end coefficient of [0, 1]: exact zeros, found exactly
    @pytest.mark.parametrize("profile, s", [(RadialProfile.rational_bump(2.0), "1"),
                                            (RadialProfile.eigenfunction_bump(0.5), "0")])
    def test_zero_at_a_dyadic_point(self, profile, s):
        with pytest.raises(PositivityError, match=rf"min 0\.000e\+00 near s = {s}\)"):
            RadialMetric(profile)

    def test_double_zero_off_the_dyadic_grid_is_not_certified(self):
        # v = (p^2 - 1/2)^2 >= 0 vanishes at p = 1/sqrt(2) (s = 0.4142): no dyadic p
        # has v(p) <= 0, and no depth of halving gives a positive lower bound.  The
        # error names the least value found, v = 7.2e-40 at the 64th halving
        with pytest.raises(PositivityError, match=r"not certified positive in 64 halvings "
                                                  r"\(v = 7\.182e-40 near s = 0\.4142\)"):
            density_module._v_range_of((0.25, 0.0, -1.0, 0.0, 1.0))

    def test_negligible_top_coefficient(self):
        # a subnormal top coefficient once made np.roots overflow (a RuntimeWarning, an
        # error here) and raise LinAlgError: on [0, 1] it moves v by about 2e-322
        tiny = RadialMetric(RadialProfile((0.0, 1e-3, -1e-3, 0.0, 0.0, 0.0, 5e-324)))
        plain = RadialMetric(RadialProfile((0.0, 1e-3, -1e-3)))
        assert tiny._v_range == plain._v_range
        # the tiny term makes the profile asymmetric, a full pass where the plain
        # profile's is a half pass, so the two agree to rounding, not bit for bit
        got = bergman_density(tiny, 20, [0.0, 1.0, math.inf]).values
        want = bergman_density(plain, 20, [0.0, 1.0, math.inf]).values
        assert got == pytest.approx(want, rel=1e-15)

    def test_no_linear_algebra(self, monkeypatch):
        # the range is exact integer arithmetic: no root finder, no eigenvalue solve
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy linear algebra called")

        monkeypatch.setattr(np, "roots", forbidden)
        for name in ("eig", "eigvals", "lstsq", "solve"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        density_module._v_range_of.cache_clear()
        for coeffs in ((0.01, -0.03, 0.005, 0.002), (0.0, 0.05, -0.02),
                       (0.1, 0.0, 0.0, 0.0, -0.01)):
            assert RadialMetric(RadialProfile(coeffs))._v_range[0] > 0.0


def exact_polynomial(coeffs):
    """A float polynomial in p, low degree first, as an exact sympy polynomial."""
    return sp.Poly([sp.Rational(*c.as_integer_ratio()) for c in coeffs[::-1]], sp.Symbol("p"),
                   domain=sp.QQ)


def exact_extrema(coeffs):
    """Bounds on the least and the greatest value of the polynomial over [0, 1]:
    ((lower, upper), (lower, upper)).

    From its values at 0, 1 and each root of its derivative in [0, 1], the irrational
    ones at the midpoint of a sympy isolating interval of width w <= 2^-40: v' = 0
    at the root, so the value there is off by at most max |v''| w^2 / 8.
    """
    v = exact_polynomial(coeffs)
    curvature = sum(abs(c) for c in v.diff().diff().all_coeffs())
    values = [(v.eval(0), 0), (v.eval(1), 0)]
    for (a, b), _ in v.diff().intervals(inf=0, sup=1, eps=sp.Rational(1, 2**40)):
        values.append((v.eval((a + b) / 2), curvature * (b - a) ** 2 / 8))
    return ((min(x - e for x, e in values), min(x for x, _ in values)),
            (max(x for x, _ in values), max(x + e for x, e in values)))


def bernstein_integers(coeffs):
    """The Bernstein coefficients on [0, 1] of the float polynomial, b_i = sum_k
    C(i, k) / C(d, k) c_k, times the least positive integer that makes them all
    integers and times 2^(d _RANGE_DEPTH), as density._least takes them."""
    d = len(coeffs) - 1
    b = [sum(Fraction(math.comb(i, k), math.comb(d, k)) * Fraction(coeffs[k])
             for k in range(i + 1)) for i in range(d + 1)]
    scale = math.lcm(*(x.denominator for x in b)) << d * density_module._RANGE_DEPTH
    return [int(x * scale) for x in b]


class TestExactRange:
    """v's range from its exact Bernstein coefficients (density._v_range_of), against
    the exact critical values of v."""

    # every metric of density._DOMAIN, the bump -0.45 and a four-term phi1-poly
    NAMED = {"fs": (), "eigenfunction-bump--0.45": (0.45, -0.9),
             **{f"eigenfunction-bump-{eps}": (-eps, 2 * eps) for eps in (0.1, 0.2, 0.3, 0.4, 0.45)},
             **{f"rational-bump-{eps}": (0.0, eps, -eps) for eps in (0.2, 0.24, 0.5, 1.0)},
             "phi1-poly": (0.0, 0.05, -0.02), "phi1-poly-4": (0.01, -0.03, 0.005, 0.002)}

    @staticmethod
    def check(coeffs):
        """True when the metric of profile coeffs builds, False when it is rejected:
        a range that encloses the exact one to 2^-50 of its size, or a PositivityError
        exactly when the least value of v is not positive, at a p where v <= 0."""
        metric_v = list(RadialProfile(coeffs).fs_laplacian_coeffs()) or [0.0]
        metric_v[0] += 1.0
        (least, least_above), (greatest_below, greatest) = exact_extrema(metric_v)
        try:
            v_min, v_max = RadialMetric(RadialProfile(coeffs))._v_range
        except PositivityError:
            assert least <= 0, coeffs
            lower, (value, level, k) = density_module._least(bernstein_integers(metric_v))
            p = sp.Rational(k, 2**level)
            assert value <= 0 and exact_polynomial(metric_v).eval(p) <= 0, coeffs
            return False
        assert 0 < sp.Rational(v_min) <= least, coeffs
        assert least_above - sp.Rational(v_min) <= least_above / 2**50, coeffs
        assert sp.Rational(v_max) >= greatest, coeffs
        assert sp.Rational(v_max) - greatest_below <= greatest_below / 2**50, coeffs
        return True

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_metrics(self, name):
        assert self.check(self.NAMED[name])

    def test_random_metrics(self):
        # u of degree 3 to 7 with coefficients of scales 1e-3 to 3
        rng = np.random.default_rng(28)
        built = 0
        for _ in range(1000):
            coeffs = rng.normal(size=int(rng.integers(4, 9))) * 10.0 ** rng.uniform(-3, 0.5)
            built += self.check(tuple(coeffs))
        assert 500 < built < 900  # 764 of them build


def lgamma_log_beta(m):
    """log of the Fubini-Study norms j! (m-j)! / (m+1)!, for every j."""
    return np.array([math.lgamma(j + 1) + math.lgamma(m - j + 1) for j in range(m + 1)]) \
        - math.lgamma(m + 2)


class TestSectionNorms:
    def test_fs_m2(self):
        norms = np.exp(section_norms(RadialMetric.fubini_study(), 2))
        assert norms == pytest.approx([1 / 3, 1 / 6, 1 / 3], rel=1e-11)

    def test_fs_m0(self):
        norms = np.exp(section_norms(RadialMetric.fubini_study(), 0))
        assert norms == pytest.approx([1.0], rel=1e-12)

    @pytest.mark.parametrize("m,tol", [(-1, 1e-12), (5, 0.0), (5, -1.0), (5, math.nan),
                                       (5, math.inf)])
    def test_outside_the_domain(self, m, tol):
        # m = -1 once gave no norms and a zero density, tol 0 ran until
        # the quadrature stalled, and tol inf returned an unrefined pass
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        with pytest.raises(ValueError, match="m >= 0 and tol > 0"):
            section_norms(met, m, tol=tol)
        with pytest.raises(ValueError, match="m >= 0 and tol > 0"):
            bergman_density(met, m, [0.0, 1.0], tol=tol)

    def test_row_shift_past_float_range(self):
        # m u = 20e308 once overflowed with a RuntimeWarning to log norms of -inf
        met = RadialMetric(RadialProfile((1e308,)))
        with pytest.raises(ValueError, match="section norms at m = 20 leave float range"):
            section_norms(met, 20)
        with pytest.raises(ValueError, match="section norms at m = 20 leave float range"):
            bergman_density(met, 20, [0.0, 1.0])
        assert section_norms(met, 0).tolist() == [0.0]  # 0 u is 0

    @pytest.mark.parametrize("m", [20.5, 2.5, 20.0, np.float64(3.0), True, False, "20"])
    def test_non_integral_m(self, m):
        # m = 20.5 once gave 22 rows and densities 21.5 to 22 for Fubini-Study
        met = RadialMetric.fubini_study()
        with pytest.raises(ValueError, match=r"m = .* is not an integer"):
            section_norms(met, m)
        with pytest.raises(ValueError, match=r"m = .* is not an integer"):
            bergman_density(met, m, [0.0, 1.0, math.inf])

    @pytest.mark.parametrize("m", [np.int64(20), np.int32(50), np.uint16(400)])
    def test_numpy_integer_m(self, m):
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        res = bergman_density(met, m, GRID)
        want = bergman_density(met, int(m), GRID)
        assert type(res.m) is int and res.m == want.m
        assert res.values.tobytes() == want.values.tobytes()
        assert section_norms(met, m).tobytes() == want.log_norms.tobytes()

    def test_fs_m30_stress(self):
        norms = np.exp(section_norms(RadialMetric.fubini_study(), 30))
        for j in range(31):
            exact = float(beta_norm(30, j))
            assert abs(norms[j] - exact) < 1e-10 * exact, j

    def test_perturbed_norms_positive(self):
        met = RadialMetric(RadialProfile.rational_bump(0.3))
        assert all(n > 0 for n in np.exp(section_norms(met, 8)))

    @pytest.mark.parametrize("m", [1060, 2000, 5000])
    def test_fs_log_norms_past_underflow(self, m):
        # the smallest norms are below the float range here (2^-m / (m+1))
        fs = RadialMetric.fubini_study()
        res = bergman_density(fs, m, GRID + [1e4])
        assert np.max(np.abs(res.log_norms - lgamma_log_beta(m))) < 5e-11
        assert np.max(np.abs(res.values - (m + 1))) < 1e-12 * (m + 1)

    def test_norms_property_underflows_without_raising(self):
        res = bergman_density(RadialMetric.fubini_study(), 1120, [0.0])
        assert np.all(np.isfinite(res.log_norms))
        assert res.norms.min() == 0.0
        assert res.norms[0] == pytest.approx(1.0 / 1121, rel=1e-12)

    @pytest.mark.parametrize("prof", [RadialProfile.zero(), RadialProfile.eigenfunction_bump(0.1)],
                             ids=["fs", "eigenfunction-bump"])
    def test_converges_where_the_linear_form_did(self, prof):
        # the linear-space quadrature accepted tol 1e-14 up to m = 200 and
        # tol 1e-13 up to m = 1000; the log-space pass must too
        met = RadialMetric(prof)
        for m in range(201):
            logn = section_norms(met, m, tol=1e-14)
            if prof.is_zero:
                assert np.max(np.abs(logn - lgamma_log_beta(m))) < 1e-12, m
        for m in list(range(210, 1000, 30)) + [999, 1000]:
            logn = section_norms(met, m, tol=1e-13)
            if prof.is_zero:
                assert np.max(np.abs(logn - lgamma_log_beta(m))) < 1e-11, m

    def test_no_overflow_near_the_positivity_limit(self):
        # eps = 0.45 lifts the middle integrands' peaks by about m eps^2 / 2
        # above their value at the Beta mode: e^900 at m = 8000 unless the
        # per-j shift accounts for it
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.45))
        m = 8000
        grid = [1.0, 3.0]
        res = bergman_density(met, m, grid)
        assert np.all(np.isfinite(res.log_norms))
        reps = [scalar_curvature(met, s) for s in grid]
        model = np.array([m + r.a1 + r.a2 / m for r in reps])
        assert m * m * np.max(np.abs(res.values - model)) <= 32.0

    def test_tolerance_below_rounding_fails_fast(self):
        # tol 1e-14 is outside the perturbed domain at m = 5000: the error
        # estimate stalls near 1.2e-14 relative, which once took the whole
        # 4096-panel budget (about 100 s) before raising
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        with pytest.raises(QuadratureError, match="stalled"):
            section_norms(met, 5000, tol=1e-14)

    @pytest.mark.parametrize("m,bound", [(1060, 32.0), (20000, 3.0)])
    def test_eigenfunction_bump_past_underflow(self, m, bound):
        # m + a1 + a2/m predicts the density to O(1/m^2) at m = 1060, where
        # linear-space norms gave m^2 residuals near 3e4.  At m = 20000 the
        # m^2 residuals measured -2.38, 0.40, 0.11, -0.09 and -0.17 on this
        # grid: the a3 term, which is -4875/2048 = -2.38 at s = 0
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        grid = [0.0, 0.25, 1.0, 3.0, 1e3]
        res = bergman_density(met, m, grid, tol=1e-12)
        reps = [scalar_curvature(met, s) for s in grid]
        model = np.array([m + r.a1 + r.a2 / m for r in reps])
        assert m * m * np.max(np.abs(res.values - model)) <= bound


    @pytest.mark.parametrize("m", [10000])
    def test_fs_log_norms_at_large_m(self, m):
        # past the dense pass's reach (4 s at m = 20000): the banded pass
        # meets lgamma's own rounding, 3.4e-11 in log (m = 20000, a corner
        # of _DOMAIN, is in TestDomain)
        res = bergman_density(RadialMetric.fubini_study(), m, GRID + [1e4], tol=1e-13)
        assert np.max(np.abs(res.log_norms - lgamma_log_beta(m))) < 1e-10
        assert np.max(np.abs(res.values - (m + 1))) < 1e-12 * (m + 1)

    def test_tolerance_below_rounding_fails_fast_at_m_20000(self):
        # tol 1e-13 converges here (test_eigenfunction_bump_end_rows_at_m_20000); tol
        # 1e-14 stalls (measured 0.17 s), and the message states the perturbed domain
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        start = time.perf_counter()
        with pytest.raises(QuadratureError) as info:
            section_norms(met, 20000, tol=1e-14)
        assert time.perf_counter() - start < 1.0
        domain = density_module._domain("perturbed metrics")
        assert re.fullmatch(r"error estimate stalled at the rounding level for 32 splits: \d+ "
                            r"panels, error estimate \S+ on total \S+ of component \d+ of 20001 "
                            r"\(section norms at m = 20000, tol = 1e-14; the stated domain for "
                            r"perturbed metrics is " + re.escape(domain) + r"\)", str(info.value))

    def test_eigenfunction_bump_end_rows_at_m_20000(self):
        eps, m, tol = 0.1, 20000, 1e-13
        logn = section_norms(RadialMetric(RadialProfile.eigenfunction_bump(eps)), m, tol)
        errs = {j: abs(float(mpmath.mpf(logn[j]) - kummer_log_norm(eps, m, j)))
                for j in (0, 1, m // 2, m - 1, m)}
        # rows 0 and m, the densities at s = 0 and inf, meet tol (measured
        # 0.28 and 0.94 tol); every row meets it up to the ulp of its log
        assert errs[0] <= tol and errs[m] <= tol
        for j, err in errs.items():
            assert err <= tol + np.spacing(abs(logn[j])), j

    def test_eigenfunction_bumps_at_m_26000(self):
        # each row shifted by a scale at most its maximum: the second-order estimate of
        # the peak this replaced overflowed here ("integrand is not finite").  Bump
        # -0.45 is bump 0.45 in the other chart, so log N_j(-eps) = log N_{m-j}(eps),
        # each within tol + m eps of the exact value
        m, tol = 26000, 1e-12
        bound = tol + m * np.finfo(float).eps
        logn = section_norms(RadialMetric(RadialProfile.eigenfunction_bump(0.45)), m, tol)
        for j in (0, 1, m // 2, m - 1, m):
            assert abs(float(mpmath.mpf(logn[j]) - kummer_log_norm(0.45, m, j))) <= bound, j
        mirror = section_norms(RadialMetric(RadialProfile.eigenfunction_bump(-0.45)), m, tol)
        assert np.max(np.abs(mirror - logn[::-1])) <= 2 * bound

    def test_fubini_study_error_names_its_own_domain(self):
        # the message once stated the perturbed metrics' domain for every
        # metric, with no tol 1e-14 cell, so it did not say why this call
        # fails.  tol 1e-15 stalls at m = 20000 (measured 0.17 s); the pass
        # keeps rows 0 .. 10000 of the chart-symmetric metric, and says so
        start = time.perf_counter()
        with pytest.raises(QuadratureError) as info:
            section_norms(RadialMetric.fubini_study(), 20000, tol=1e-15)
        assert time.perf_counter() - start < 2.0
        domain = density_module._domain("Fubini-Study")
        assert re.fullmatch(r"error estimate stalled at the rounding level for 32 splits: \d+ "
                            r"panels, error estimate \S+ on total \S+ of component \d+ of 10001 "
                            r"\(section norms at m = 20000, tol = 1e-15, a half pass over rows "
                            r"0\.\.10000; the stated domain for Fubini-Study is "
                            + re.escape(domain) + r"\)", str(info.value))

    def test_budget_exhaustion_now_stalls(self):
        # eigenfunction bump 0.45 at m = 15000 once spent the whole 4096-panel
        # budget (11.9 s) before raising; its estimate sits at the rounding
        # level, so it stalls after a few hundred banded calls instead
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.45))
        calls = []
        quad = density_module.integrate_interval

        def counted(f, *args, **kwargs):
            def g(x):
                calls.append(1)
                return f(x)
            return quad(g, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(density_module, "integrate_interval", counted)
            with pytest.raises(QuadratureError, match="stalled"):
                section_norms(met, 15000, tol=1e-13)
        assert len(calls) < 1000

    @pytest.mark.parametrize("m,tol,rows,within", [
        (1060, 1e-12, 4, 1.0), (5000, 1e-12, 4, 1.0), (20000, 1e-12, 4, 1.0),
        (1060, 1e-13, 4, 1.0), (5000, 1e-13, 4, 1.0), (10000, 1e-13, 4, 1.0),
        (20000, 1e-13, 4, 1.0), (1060, 1e-14, 1, 2.0), (2000, 1e-14, 1, 2.0),
        (5000, 1e-14, 1, 2.0), (10000, 1e-14, 4, 1.0), (20000, 1e-14, 4, 1.0)])
    def test_fs_end_rows_against_mpmath(self, m, tol, rows, within):
        # rows 0 .. rows-1 and m-rows+1 .. m against 40-digit log Beta values.
        # Rows 1 .. 3 once carried k (x* + (1 - x*) - 1), m 2^-54, from a
        # rounded Beta mode: 1.1 to 3.3 tol at tol 1e-13.  Row m peaks at
        # x = 1, where quadrature nodes hold 1 - x only to absolute rounding,
        # about m eps relative in each node value of x^m: integrated there it
        # measured 1.75 tol at m = 1060, tol 1e-14, 1.6 tol at m = 10000,
        # tol 1e-13 and 15.9 tol at m = 10000, tol 1e-14, and m = 20000,
        # tol 1e-14 stalled.  Fubini-Study is chart-symmetric, so rows past m/2
        # are now read off rows 0 .. m/2: at most 0.38 tol (rows 2 and m-2,
        # m = 5000, tol 1e-14)
        logn = section_norms(RadialMetric.fubini_study(), m, tol)
        with mpmath.workdps(40):
            for j in list(range(rows)) + list(range(m - rows + 1, m + 1)):
                exact = (mpmath.loggamma(j + 1) + mpmath.loggamma(m - j + 1)
                         - mpmath.loggamma(m + 2))
                assert abs(float(mpmath.mpf(logn[j]) - exact)) <= within * tol, j

    @pytest.mark.parametrize("m", [1060, 2000])
    def test_fs_log_norms_at_tol_1e14(self, m):
        # towards the edge of the Fubini-Study domain (m = 20000, in TestDomain); a
        # start from sin^2 edges off the dyadic grid stalled here, its end rows
        # m ulps off at x = 0 and 1
        logn = section_norms(RadialMetric.fubini_study(), m, tol=1e-14)
        assert np.max(np.abs(logn - lgamma_log_beta(m))) < 5e-11


def domain_corners():
    """(family, tol, m, CLI metric name, its --eps or --coeffs value, oracle) for each
    metric of each row of density._DOMAIN."""
    return [(family, tol, m, spec.split()[0], value, oracle)
            for family, tol, m, metrics, oracle in density_module._DOMAIN
            for spec in metrics for value in spec.split()[1:] or [None]]


def kummer_log_norm(eps, m, j):
    """log N_j for the eigenfunction bump eps, from two Kummer functions at 50 digits.

    u = eps (2p - 1) and v = 1 + 2 eps - 4 eps p give N_j = e^{m eps} sum_l c_l
    B(j+1, k+1) e^{-a} 1F1(j+1; m+l+2; a) with k = m - j + l, a = 2 m eps and
    c = (1 + 2 eps, -4 eps), each series of positive terms.  Past the middle
    row Kummer's transformation, e^{-a} 1F1(j+1; b; a) = 1F1(k+1; b; -a), sums
    far fewer terms: about k instead of a, for rows m-1 and m.
    """
    with mpmath.workdps(50):
        e, a = mpmath.mpf(eps), 2 * m * mpmath.mpf(eps)
        total = 0
        for l, c in enumerate((1 + 2 * e, -4 * e)):
            k = m - j + l
            series = (mpmath.exp(-a) * mpmath.hyp1f1(j + 1, m + l + 2, a, maxterms=10**6)
                      if 2 * j <= m else mpmath.hyp1f1(k + 1, m + l + 2, -a))
            total += c * mpmath.beta(j + 1, k + 1) * series
        return mpmath.log(mpmath.exp(m * e) * total)


def quadrature_log_norm(profile, v_coeffs, m, j):
    """log N_j = log int_0^1 x^j (1-x)^(m-j) e^{-m u(p)} v(p) dx, p = 1 - x, by 40-digit
    tanh-sinh quadrature of the row over its value at its peak on a grid of 1e5 + 1
    points, split there and at 1, 4, 16 and 64 times 1/sqrt(m) on either side."""
    k = m - j
    x = np.linspace(0.0, 1.0, 100001)
    with np.errstate(divide="ignore"):
        log_row = (j * np.log(x) if j else 0.0) + (k * np.log1p(-x) if k else 0.0) \
            - m * profile.value_p(1.0 - x)
    c, w = float(x[int(np.argmax(log_row))]), 1.0 / math.sqrt(m)
    cuts = sorted({0.0, 1.0, c} | {min(max(c + side * w * 4.0**i, 0.0), 1.0)
                                   for side in (-1, 1) for i in range(4)})
    with mpmath.workdps(40):
        u, v = ([mpmath.mpf(a) for a in reversed(cs)] for cs in (profile.coeffs, v_coeffs))

        def log_f(x):
            return ((j * mpmath.log(x) if j else 0) + (k * mpmath.log(1 - x) if k else 0)
                    - m * mpmath.polyval(u, 1 - x) + mpmath.log(mpmath.polyval(v, 1 - x)))

        peak = log_f(mpmath.mpf(c))
        return peak + mpmath.log(mpmath.quad(lambda x: mpmath.exp(log_f(x) - peak), cuts))


A3_GRID = [0.0, 0.25, 1.0, 3.0, 1e3]


def a3_residual(met, m, tol):
    """m^2 (Pi_m - m - a1 - a2/m) on A3_GRID: the a3 term, flat in m up to a4/m.

    Section norms to relative tol move Pi_m by at most (m+1) tol, this by m^2 (m+1) tol."""
    res = bergman_density(met, m, A3_GRID, tol=tol)
    reps = [scalar_curvature(met, s) for s in A3_GRID]
    return m * m * (res.values - np.array([m + r.a1 + r.a2 / m for r in reps]))


class TestDomain:
    """Each corner of the stated section-norm domain (density._DOMAIN) on each of its metrics."""

    @pytest.mark.parametrize("family,tol,m,name,value,oracle", domain_corners(),
                             ids=[f"{n}-{v or ''}-m{m}-tol{t:g}" for _, t, m, n, v, _ in
                                  domain_corners()])
    def test_corner(self, family, tol, m, name, value, oracle):
        met = RadialMetric(_profile_from(name, {"eps": value, "coeffs": value}))
        if name == "fs":
            # log Beta values: lgamma over every row, 40-digit mpmath at the end
            # rows (measured at most 1.75 tol at tol 1e-14), and density m + 1
            assert family == "Fubini-Study" and "log Beta" in oracle
            res = bergman_density(met, m, GRID + [1e4, math.inf], tol=tol)
            bound = 5e-11 if m <= 5000 else 1e-10  # lgamma's own rounding, 6.0e-11 at m = 20000
            assert np.max(np.abs(res.log_norms - lgamma_log_beta(m))) < bound
            with mpmath.workdps(40):
                for j in (0, m):
                    exact = (mpmath.loggamma(j + 1) + mpmath.loggamma(m - j + 1)
                             - mpmath.loggamma(m + 2))
                    assert abs(float(mpmath.mpf(res.log_norms[j]) - exact)) <= 2.0 * tol, j
            assert np.max(np.abs(res.values - (m + 1))) < 1e-12 * (m + 1)
        elif name == "eigenfunction-bump":
            # each checked row within tol plus m eps: log N_j adds log-space terms of
            # up to about m in size (measured at most 0.67 m eps, at tol 1e-14)
            assert family == "perturbed metrics" and "Kummer" in oracle
            logn = section_norms(met, m, tol)
            for j in (0, 1, m // 2, m - 1, m):
                err = abs(float(mpmath.mpf(logn[j]) - kummer_log_norm(float(value), m, j)))
                assert err <= tol + m * np.finfo(float).eps, j
        else:
            # within a tenth of its value at m = 2000 (the a4/m drift measured at most
            # 4.3% between m = 1000 and 20000), plus what tol allows at both m
            assert family == "perturbed metrics" and "a3 band" in oracle
            ref = a3_residual(met, 2000, 1e-13)
            band = 0.1 * np.max(np.abs(ref)) + m * m * (m + 1) * tol + 2000**2 * 2001 * 1e-13
            assert np.max(np.abs(a3_residual(met, m, tol) - ref)) <= band

    def test_readme_table_is_rendered_from_the_rows(self):
        rows = ["| family | tol | largest m | metrics the corner test runs | oracle |",
                "|---|---|---|---|---|"]
        rows += [f"| {family} | {tol:g} | {m} | {', '.join(metrics)} | {oracle} |"
                 for family, tol, m, metrics, oracle in density_module._DOMAIN]
        table = "\n".join(rows) + "\n"
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert table in readme, "README's domain table should read:\n" + table

    def test_outside_every_row(self):
        # eigenfunction bump 0.2 at m = 2000, tol 1e-14 stalls; the domain once
        # claimed every perturbed metric up to m = 2000 at that tol
        corners = domain_corners()
        assert not any(t <= 1e-14 and m >= 2000 and (n, v) == ("eigenfunction-bump", "0.2")
                       for _, t, m, n, v, _ in corners)
        # the message names the row (component) furthest from its bound
        with pytest.raises(QuadratureError, match=r"stalled .* of component \d+ of 2001 "
                           r"\(section norms at m = 2000, tol = 1e-14; "):
            section_norms(RadialMetric(RadialProfile.eigenfunction_bump(0.2)), 2000, tol=1e-14)


BANDED_METRICS = {
    "fs": RadialProfile.zero(),
    "eigenfunction-bump-0.1": RadialProfile.eigenfunction_bump(0.1),
    "eigenfunction-bump-0.45": RadialProfile.eigenfunction_bump(0.45),
    "rational-bump-0.2": RadialProfile.rational_bump(0.2),
    "phi1-poly": RadialProfile([0.0, 0.05, -0.02]),
}


class TestRowGeometry:
    """The columns of _Rows that depend on m alone come from a per-m cache."""

    M_VALUES = [0, 1, 2, 37, 38, 200, 375, 376, 1060]

    @staticmethod
    def fresh(m):
        # the construction _Rows made on every call before the cache
        j = np.arange(m + 1, dtype=float)[:, None]
        xs = np.round(j / max(m, 1) * 2.0**53) / 2.0**53
        k, ps = m - j, 1.0 - xs
        return (j, k, xs, ps, np.divide(-1.0, xs, out=np.zeros_like(xs), where=j > 0),
                np.divide(1.0, ps, out=np.zeros_like(xs), where=k > 0),
                j * np.log(np.where(j > 0, xs, 1.0)) + k * np.log(np.where(k > 0, ps, 1.0)))

    @pytest.mark.parametrize("m", M_VALUES + [1023, 1024])
    def test_columns_are_read_only_and_fresh(self, m):
        rows = density_module._Rows(RadialMetric.fubini_study(), m)
        got = (rows.j, rows.k, rows.xs, rows.ps, rows.neg_inv_x, rows.inv_p, rows.peak)
        for column, want in zip(got, self.fresh(m)):
            assert column.shape == (m + 1, 1) and column.tobytes() == want.tobytes()
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    @pytest.mark.parametrize("name", sorted(BANDED_METRICS))
    def test_cold_and_warm_cache_agree(self, name):
        met = RadialMetric(BANDED_METRICS[name])
        grid = GRID + [np.inf]
        for m in self.M_VALUES:
            runs = []
            for warm in (False, True):
                if not warm:
                    density_module._row_geometry.cache_clear()
                res = bergman_density(met, m, grid)
                if not warm:
                    density_module._row_geometry.cache_clear()
                runs.append((section_norms(met, m).tobytes(), res.values.tobytes(),
                             res.log_norms.tobytes()))
            assert runs[0] == runs[1], m

    def test_footprint_bound(self):
        # the worst case fills every entry with the largest cached m
        cache, top = density_module._row_geometry, density_module._GEOMETRY_CACHE_M
        assert cache.cache_info().maxsize * 7 * top * 8 <= 2**20
        cache.cache_clear()
        met = RadialMetric.fubini_study()
        entries = [density_module._Rows(met, m).j.base for m in range(top - 20, top)]
        assert cache.cache_info().currsize == cache.cache_info().maxsize
        assert sum(e.nbytes for e in entries[-cache.cache_info().maxsize:]) <= 2**20
        density_module._Rows(met, top)  # past the bound nothing is cached
        assert cache.cache_info().misses == 20


class TestBandedSectionNorms:
    @staticmethod
    def norms(monkeypatch, met, m, banded):
        monkeypatch.setattr(density_module, "_BANDED_FROM_M", 0 if banded else math.inf)
        return section_norms(met, m)

    @pytest.mark.parametrize("m", [20, 60, 200, 376, 1060, 5000])
    @pytest.mark.parametrize("name", sorted(BANDED_METRICS))
    def test_banded_equals_dense(self, monkeypatch, name, m):
        met = RadialMetric(BANDED_METRICS[name])
        dense = self.norms(monkeypatch, met, m, False)
        banded = self.norms(monkeypatch, met, m, True)
        assert np.max(np.abs(banded - dense)) <= 1e-12

    DENSITY_METRICS = {**BANDED_METRICS,
                       "eigenfunction-bump--0.45": RadialProfile.eigenfunction_bump(-0.45),
                       "rational-bump-1.9": RadialProfile.rational_bump(1.9)}

    @pytest.mark.parametrize("m", [200, 375, 379, 500])
    @pytest.mark.parametrize("name", sorted(DENSITY_METRICS))
    def test_banded_and_dense_densities_agree(self, monkeypatch, name, m):
        # a dense pass divides each row by nothing, a banded one by its maximum, and
        # each term is its row over its total, one division: the two densities agree
        # within 4 eps (measured 2.0 eps)
        met, grid = RadialMetric(self.DENSITY_METRICS[name]), GRID + [1e3, np.inf]
        values = []
        for banded in (False, True):
            monkeypatch.setattr(density_module, "_BANDED_FROM_M", 0 if banded else math.inf)
            values.append(bergman_density(met, m, grid).values)
        eps = np.finfo(float).eps
        assert np.all(np.abs(values[1] - values[0]) <= 4 * eps * values[0])

    SWITCH_METRICS = {**BANDED_METRICS, "rational-bump-1": RadialProfile.rational_bump(1.0)}

    @pytest.mark.parametrize("name", sorted(SWITCH_METRICS))
    def test_banded_exactly_from_m_376(self, monkeypatch, name):
        # every metric alike: a dense pass states its row count to the quadrature,
        # a banded one states none.  A switch on the supports' mean width once kept
        # the stronger metrics dense up to m = 446 (rational bump 1) and 564
        # (eigenfunction bump 0.45)
        met = RadialMetric(self.SWITCH_METRICS[name])
        quad, stated = density_module.integrate_interval, []

        def spy(f, a, b, rows, **kwargs):
            stated.append(rows)
            return quad(f, a, b, rows=rows, **kwargs)

        monkeypatch.setattr(density_module, "integrate_interval", spy)
        for m in (0, 2, 200, 375, 376, 1060):
            section_norms(met, m)
        dense = [m // 2 + 1 if met.is_chart_symmetric else m + 1 for m in (0, 2, 200, 375)]
        assert stated == dense + [None, None]

    def test_cut_is_relative_to_each_row(self, monkeypatch):
        # eigenfunction bump 0.45 at m = 5000: the rows' own scales, e^{log_scale_j}
        # times the peak e^{-m u(p*)} x*^j p*^k, span more than e^1000, past the
        # float range, so one absolute cut would drop whole rows; the pass keeps all
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.45))
        m = 5000
        rows = density_module._Rows(met, m)
        _, _, log_scale = rows.supports(rows.cut(1e-12))
        scale = log_scale + rows.peak - m * met.profile.value_p(rows.ps)
        assert np.ptp(scale) > 1000.0
        dense = self.norms(monkeypatch, met, m, False)
        assert np.max(np.abs(self.norms(monkeypatch, met, m, True) - dense)) <= 1e-12

    # every _DOMAIN corner metric, and the strongest bumps of each family
    MODE_METRICS = sorted({(n, v) for _, _, _, n, v, _ in domain_corners()}
                          | {("eigenfunction-bump", "0.495"), ("eigenfunction-bump", "-0.495"),
                             ("rational-bump", "1.96")}, key=str)

    @pytest.mark.parametrize("name,value", MODE_METRICS,
                             ids=[f"{n}-{v or ''}" for n, v in MODE_METRICS])
    def test_every_row_mode_converges(self, name, value):
        # within mode's step bound every row's residual |mu(c) - j/m| is at most
        # 4 eps, mu read off u directly as x (1 - p u'(p)); measured, at most 9
        # Newton steps on these metrics
        met = RadialMetric(_profile_from(name, {"eps": value, "coeffs": value}))
        du = np.polynomial.Polynomial(met.profile.coeffs or [0.0]).deriv()
        eps = np.finfo(float).eps
        for m in (376, 1060, 5000, 20000, 100000):
            rows = density_module._Rows(met, m, met.is_chart_symmetric)
            c = rows.mode()
            assert c.shape == rows.xs.shape and np.all((0.0 <= c) & (c <= 1.0))
            assert np.max(np.abs(rows.moment(c) - rows.xs)) <= 4 * eps, m
            assert np.allclose(rows.moment(c), c * (1.0 - (1.0 - c) * du(1.0 - c)),
                               rtol=0.0, atol=16 * eps)

    def test_strongest_rational_bump_rows_stay_small(self, monkeypatch):
        # rational bump 1.9 (v_min 0.05): three Newton steps from x* once left its
        # scale far below the row's maximum, and the shifted totals reached 3.1e8 at
        # m = 5000 and 1.8e39 (row 9402) at m = 20000.  Scaled at the converged mode
        # each total is at most 1, and the rows meet a 40-digit quadrature of their
        # own within tol plus m eps
        met, tol = RadialMetric(RadialProfile.rational_bump(1.9)), 1e-12
        quad, totals = density_module.integrate_interval, []

        def spy(f, *args, **kwargs):
            totals.append(quad(f, *args, **kwargs))
            return totals[-1]

        monkeypatch.setattr(density_module, "integrate_interval", spy)
        for m in (5000, 20000):
            logn = section_norms(met, m, tol)
            assert np.max(totals[-1]) <= 1.0, m
            for j in sorted({0, 1, m // 2, m} | ({9402} if m > 9402 else set())):
                exact = quadrature_log_norm(met.profile, met._v_coeffs, m, j)
                assert abs(float(mpmath.mpf(logn[j]) - exact)) <= tol + m * np.finfo(float).eps, j

    # the metrics the derived cut is compared on, each with the _DOMAIN corner whose
    # tols and largest m it takes (the bump -0.45 is the bump 0.45 in the other chart)
    CUT_METRICS = {
        "fs": (RadialProfile.zero(), ("fs", None)),
        "rational-bump-0.2": (RadialProfile.rational_bump(0.2), ("rational-bump", "0.2")),
        "eigenfunction-bump-0.1": (RadialProfile.eigenfunction_bump(0.1),
                                   ("eigenfunction-bump", "0.1")),
        "eigenfunction-bump-0.45": (RadialProfile.eigenfunction_bump(0.45),
                                    ("eigenfunction-bump", "0.45")),
        "eigenfunction-bump--0.45": (RadialProfile.eigenfunction_bump(-0.45),
                                     ("eigenfunction-bump", "0.45")),
        "phi1-poly": (RadialProfile((0.0, 0.05, -0.02)), ("phi1-poly", "0,0.05,-0.02")),
    }
    CUT_CASES = [(name, m, tol) for name, (_, key) in CUT_METRICS.items()
                 for m in (376, 1060, 5000, 20000) for tol in (1e-12, 1e-13, 1e-14)
                 if any((n, v) == key and t == tol and m <= top
                        for _, t, top, n, v, _ in domain_corners())]

    @pytest.mark.parametrize("name,m,tol", CUT_CASES,
                             ids=[f"{n}-m{m}-tol{t:g}" for n, m, t in CUT_CASES])
    def test_derived_cut_moves_no_number(self, monkeypatch, name, m, tol):
        # the pass at its own cut against the same pass cut at 1e-30 (from m = 376
        # on every pass is banded): its totals agree bit for bit on every row but
        # the last eight, and there within 4 ulps, as do the log norms and the
        # densities.  Where a window's row count
        # changes, BLAS can move the rule sums of the rows in its last, partial tile
        # by an ulp (ROADMAP item 15): measured, one or two end rows by 1 to 3 ulps
        met = RadialMetric(self.CUT_METRICS[name][0])
        at = 1.0 / (1.0 + np.array([0.0, 0.3, 1.0, 4.0, 1e3, np.inf]))
        quad = density_module.integrate_interval
        totals = []

        def spy(f, *args, **kwargs):
            totals.append(quad(f, *args, **kwargs))
            return totals[-1]

        monkeypatch.setattr(density_module, "integrate_interval", spy)
        logn, terms = density_module._section_norms(met, m, tol, at)
        monkeypatch.setattr(density_module._Rows, "cut", lambda self, tol: 1e-30)
        logn30, terms30 = density_module._section_norms(met, m, tol, at)
        total, total30 = totals

        def ulps(a, b):
            return np.max(np.abs(a - b) / np.spacing(np.abs(b)), initial=0.0)

        assert total[:-8].tobytes() == total30[:-8].tobytes()
        assert ulps(total, total30) <= 4
        assert ulps(logn, logn30) <= 4
        assert ulps(terms.sum(axis=0), terms30.sum(axis=0)) <= 4

    # each _DOMAIN corner, and the first banded m of the metrics whose passes were
    # dense there before every pass from m = 376 on was banded (measured, 0.10 of
    # the bound for the eigenfunction bumps +-0.45, 0.50 for the rational bump 1)
    SHARE_CASES = domain_corners() + [
        ("perturbed metrics", 1e-12, 376, name, value, None)
        for name, value in (("eigenfunction-bump", "0.45"), ("eigenfunction-bump", "-0.45"),
                            ("rational-bump", "1"))]

    @pytest.mark.parametrize("family,tol,m,name,value,oracle", SHARE_CASES,
                             ids=[f"{n}-{v or ''}-m{m}-tol{t:g}" for _, t, m, n, v, _ in
                                  SHARE_CASES])
    def test_dropped_share_at_the_domain_corners(self, family, tol, m, name, value, oracle):
        # the cut leaves out at most cut max_x f_j / T_j of row j's total, at most
        # 1e-3 tol where max_x f_j <= (m + 1) (v_max / v_min) T_j.  For
        # Fubini-Study that bound is exact (a binomial pmf is at most 1), reached
        # at rows 0 and m; for the perturbed metrics it is sampled here, on the
        # first and last 50 rows and every (m // 200)-th between.  The row's
        # maximum is taken on its support at 1e-30, then around the best node.
        # Measured, the end rows come nearest, at about (m + 1) v at their pole.
        # Every banded pass checks its own bound, cut e^{log_scale_j} / T_j
        met = RadialMetric(_profile_from(name, {"eps": value, "coeffs": value}))
        rows = density_module._Rows(met, m)
        logn = section_norms(met, m, tol)
        lower, upper, _ = rows.supports(1e-30)
        u, v = met.profile, met._v_coeffs
        js = np.unique(np.concatenate([np.arange(50), np.arange(0, m + 1, max(m // 200, 1)),
                                       np.arange(m - 49, m + 1)]))

        def log_row(j, x):  # log f_j(x), 0 log 0 = 0
            with np.errstate(divide="ignore"):
                out = -m * u.value_p(1.0 - x)
                if j:
                    out = out + j * np.log(x)
                if j < m:
                    out = out + (m - j) * np.log1p(-x)
            return out + np.log(density_module._horner(v, 1.0 - x))

        worst = -np.inf
        for j in js:
            x = np.linspace(lower[j], upper[j], 2001)
            i = int(np.argmax(log_row(j, x)))
            fine = np.linspace(x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)], 201)
            worst = max(worst, float(np.max(log_row(j, fine))) - logn[j])
        bound = math.log((m + 1) * rows.v_max / rows.v_min)
        assert worst <= bound + 1e-9
        sampled = math.log(rows.cut(tol) / (1e-3 * tol)) + worst
        assert sampled <= 1e-9
        # the pass's own bound on the log share over 1e-3 tol: the row's scale from
        # its supports, e^{log_scale_j} times its peak e^{-m u(p*)} x*^j p*^k, over N_j
        _, _, log_scale = rows.supports(rows.cut(tol))
        scale = (log_scale + rows.peak - m * u.value_p(rows.ps)).ravel()
        runtime = math.log(rows.cut(tol) / (1e-3 * tol)) + float(np.max(scale - logn))
        # measured equal: the worst row is an end row, whose scale is its value at its pole
        assert runtime == pytest.approx(sampled, abs=1e-12)
        assert runtime <= density_module._SHARE_MARGIN

    def test_too_coarse_a_cut_raises(self, monkeypatch):
        # a cut 1e6 times the pass's own lets the end rows drop 1e6 times 1e-3 tol
        cut = density_module._Rows.cut
        monkeypatch.setattr(density_module._Rows, "cut", lambda self, tol: 1e6 * cut(self, tol))
        text = r"may drop 1e\+06 times 1e-3 tol of row 0's total \(section norms at m = 1060, "
        with pytest.raises(QuadratureError, match=text + r"tol = 1e-12"):
            section_norms(RadialMetric.fubini_study(), 1060)

    # the cut of a pass to tol, or 1e-30 (tol None), the fixed cut of banded passes before
    CUTS = [(m, tol) for tol in (None, 1e-12, 1e-14) for m in (1060, 5000)]

    @pytest.mark.parametrize("m, tol", CUTS,
                             ids=[f"{m}" + (f"-tol{t:g}" if t else "") for m, t in CUTS])
    @pytest.mark.parametrize("name", sorted(BANDED_METRICS))
    def test_supports_certify_the_cut(self, name, m, tol):
        # each row is below the cut of its own scale outside its support
        met = RadialMetric(BANDED_METRICS[name])
        rows = density_module._Rows(met, m)
        cut = 1e-30 if tol is None else rows.cut(tol)

        # each row over its value at x* = j/m, from u and v directly
        u, v = met.profile, np.polynomial.Polynomial(met._v_coeffs)

        def log_row(j, x):
            xs = j / m
            with np.errstate(divide="ignore"):
                out = (j * (np.log(x) - math.log(xs)) if j else 0.0) + \
                    ((m - j) * (np.log1p(-x) - math.log1p(-xs)) if j < m else 0.0)
            return out - m * (u.value_p(1 - x) - u.value_p(1 - xs)) \
                + np.log(v(1 - x) / v(1 - xs))

        lower, upper, _ = rows.supports(cut)
        assert np.all(np.diff(lower) >= 0) and np.all(np.diff(upper) >= 0)
        assert np.all(lower < upper)
        for j in np.linspace(0, m, 41).astype(int):  # rows 0 and m included
            inside = np.append(np.linspace(lower[j], upper[j], 4001), j / m)
            scale = np.max(log_row(j, inside))  # the row's own scale, >= its value at x*
            # an end of 0 or 1 is no cut at all: no node lies beyond it
            outside = np.concatenate([np.linspace(0.0, lower[j], 200) if lower[j] > 0 else [],
                                      np.linspace(upper[j], 1.0, 200) if upper[j] < 1 else []])
            if len(outside):
                assert np.max(log_row(j, outside)) <= math.log(cut) + scale, j


def _fraction_flip(coeffs):
    """The coefficients of u(1-p) in Fractions, from the float coefficients of u(p)."""
    c = [Fraction(x) for x in coeffs]
    return [(-1) ** j * sum(math.comb(k, j) * c[k] for k in range(j, len(c)))
            for j in range(len(c))]


class TestChartSymmetry:
    """RadialMetric.is_chart_symmetric, u(p) = u(1-p) exactly, and the half pass it selects."""

    @pytest.mark.parametrize("profile", [
        RadialProfile.zero(), RadialProfile.rational_bump(0.2), RadialProfile.rational_bump(1.0),
        RadialProfile.rational_bump(-0.5), RadialProfile((0.3, 0.1, -0.1)),
        RadialProfile((-1.5, 0.07, -0.07)),
        RadialProfile((0.0, 0.0, 0.01, -0.02, 0.01)),  # 0.01 (p(1-p))^2
    ], ids=repr)
    def test_symmetric(self, profile):
        # Fubini-Study, rational bumps eps p(1-p) and c0 + c p(1-p) (+ c q^2)
        assert RadialMetric(profile).is_chart_symmetric

    @pytest.mark.parametrize("profile", [
        RadialProfile.eigenfunction_bump(0.1), RadialProfile.eigenfunction_bump(0.45),
        RadialProfile((0.0, 0.05, -0.02)), RadialProfile((0.01, -0.03, 0.005, 0.002)),
        RadialProfile((0.0, 0.0, 0.01)),
    ], ids=repr)
    def test_asymmetric(self, profile):
        assert not RadialMetric(profile).is_chart_symmetric

    def test_an_ulp_off_symmetric_is_asymmetric(self):
        # c2 = -0.03 is an ulp from 0.02 - 0.05 in floats, the value that makes
        # 1 + 0.05 q + 0.02 q^2 (q = p(1-p)) symmetric.  The exact flip of
        # inverted_chart() keeps the ulp (in c1), and the integers reject the profile
        prof = RadialProfile((1.0, 0.05, -0.03, -0.04, 0.02))
        assert 0.02 - 0.05 == np.nextafter(-0.03, -1.0)
        assert prof.inverted_chart().coeffs == (1.0, np.nextafter(0.05, 0.0)) + prof.coeffs[2:]
        assert not RadialMetric(prof).is_chart_symmetric
        symmetric = RadialProfile((1.0, 0.05, 0.02 - 0.05, -0.04, 0.02))
        assert symmetric.inverted_chart().coeffs == symmetric.coeffs
        assert RadialMetric(symmetric).is_chart_symmetric

    @given(coeffs=st.lists(st.one_of(
        st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=-1e3, max_value=-1e-3),
        st.floats(allow_nan=False, allow_infinity=False)), max_size=8))
    @example(coeffs=[1.0, 0.05, -0.03, -0.04, 0.02])
    @example(coeffs=[0.0, 0.0, 1.7e308])  # -2 c2 past float range
    @example(coeffs=[5e-324, -5e-324, 2.0**-1000])
    @settings(max_examples=300, deadline=None)
    def test_inverted_chart_is_the_fraction_flip_rounded_once(self, coeffs):
        # u(1-p) = sum_j (-1)^j sum_{k >= j} C(k, j) c_k p^j, each sum exact in
        # Fractions and rounded once; past float range a ValueError
        try:
            want = RadialProfile([float(c) for c in _fraction_flip(coeffs)]).coeffs
        except OverflowError:
            with pytest.raises(ValueError, match="inverted chart coefficients overflow"):
                RadialProfile(coeffs).inverted_chart()
            return
        got = RadialProfile(coeffs).inverted_chart().coeffs
        assert [c.hex() for c in got] == [c.hex() for c in want]

    def test_is_chart_symmetric_is_exact_symmetry(self):
        # u = a0 + a1 q + a2 q^2 + a3 q^3 (q = p(1-p)) in float coefficients of p:
        # dyadic a_i (exact, so symmetric), random ones (rounded), and each of
        # those with one coefficient an ulp off
        rng = np.random.default_rng(48)
        seen = {True: 0, False: 0}
        for trial in range(400):
            dyadic = trial % 2 == 0
            a = (rng.integers(-16, 17, 4) / 2.0**14 if dyadic
                 else rng.uniform(-1e-3, 1e-3, 4)).tolist()
            c = [a[0], a[1], a[2] - a[1], a[3] - 2 * a[2], a[2] - 3 * a[3], 3 * a[3], -a[3]]
            if trial % 4 >= 2:  # a nonzero coefficient, so that the degree stays
                i = int(rng.choice(np.flatnonzero(c)))
                c[i] = float(np.nextafter(c[i], rng.choice([-1.0, 1.0]) * math.inf))
            prof = RadialProfile(c)
            exact = _fraction_flip(prof.coeffs) == [Fraction(x) for x in prof.coeffs]
            assert RadialMetric(prof).is_chart_symmetric == exact, prof
            seen[exact] += 1
        assert seen[True] >= 100 and seen[False] >= 100, seen

    @staticmethod
    def passes(monkeypatch, met, m, banded, tol=1e-12):
        """Log norms and densities of the half pass, then of the full pass (flag off)."""
        monkeypatch.setattr(density_module, "_BANDED_FROM_M", 0 if banded else math.inf)
        out = []
        for half in (True, False):
            if not half:
                monkeypatch.setattr(RadialMetric, "is_chart_symmetric", property(lambda s: False))
            res = bergman_density(met, m, GRID + [1e4, np.inf], tol)
            assert np.array_equal(section_norms(met, m, tol), res.log_norms)
            out.append(res)
        return out

    @pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
    @pytest.mark.parametrize("m", [0, 1, 20, 37, 38, 200, 1060, 5000])
    @pytest.mark.parametrize("name", ["fs", "rational-bump-0.2"])
    def test_half_pass_agrees_with_the_full_pass(self, monkeypatch, name, m, banded):
        # each pass holds every row within tol of its integral, so the two may
        # differ by 2 tol, plus the rounding of log N_j at |log N_j|: measured
        # at most 0.23 tol beyond 2 ulps of it (0.91 tol in all, row 2678 of the
        # rational bump at m = 5000, |log N_j| = 3706), and the densities at
        # most 0.064 tol.  N_j = N_{m-j} holds exactly in the half pass
        tol = 1e-12
        met = RadialMetric(BANDED_METRICS[name])
        half, full = self.passes(monkeypatch, met, m, banded, tol)
        assert np.array_equal(half.log_norms, half.log_norms[::-1])
        gap = np.abs(half.log_norms - full.log_norms)
        assert np.all(gap <= 2 * tol + 2 * np.spacing(np.abs(full.log_norms)))
        # the density moves by at most 2 tol relative, as each of its terms does
        assert np.all(np.abs(half.values - full.values) <= 2 * tol * full.values)


class TestGradedStart:
    """Every pass starts from max(floor(sqrt(m) / 1.5), 2) panels uniform in
    theta, x = sin^2(theta): the halves of [0, 1] up to m = 20."""

    @staticmethod
    def run(monkeypatch, met, m, tol, graded):
        """The pass's shifted integrals T_j and the log norms, from either start."""
        quad, totals = density_module.integrate_interval, []

        def spy(f, a, b, edges, **kwargs):
            totals.append(quad(f, a, b, edges=edges if graded else None, **kwargs))
            return totals[-1]

        monkeypatch.setattr(density_module, "integrate_interval", spy)
        logn = section_norms(met, m, tol)
        return totals[0], logn

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    @pytest.mark.parametrize("m", [21, 30, 37, 38, 60, 200, 1060, 5000])
    @pytest.mark.parametrize("name", ["fs", "eigenfunction-bump-0.1", "rational-bump-0.2",
                                      "phi1-poly"])
    def test_agrees_with_one_panel_start(self, monkeypatch, name, m, tol):
        # each T_j is certified within tol of its integral, so the two starts
        # may differ by 2 tol; measured at most 1.03 tol, on row 4999 of both
        # bumps at m = 5000, tol 1e-13.  For the eigenfunction bump a 40-digit
        # integral puts the one-panel start 1.3e-13 off there, the graded 1.4e-14
        met = RadialMetric(BANDED_METRICS[name])
        one_total, one = self.run(monkeypatch, met, m, tol, False)
        total, logn = self.run(monkeypatch, met, m, tol, True)
        assert np.max(np.abs(total - one_total) / one_total) <= 2 * tol
        # log N_j adds log T_j to its Beta peak and shift, rounded at |log N_j|
        assert np.all(np.abs(logn - one) <= 2 * tol + 2 * np.spacing(np.abs(one)))

    @staticmethod
    def schedules(monkeypatch, met, m, tol, start=None, stated=True):
        """T_j, integrand calls and density values of a pass: from its own start
        or from the edges start, with its row count stated or one initial panel a call."""
        quad, out = quadrature.integrate_interval, []

        def spy(f, a, b, edges, rows, **kwargs):
            calls = []

            def g(x):
                calls.append(x.size)
                return f(x)

            out.append((quad(g, a, b, edges=edges if start is None else start,
                             rows=rows if stated else None, **kwargs), calls))
            return out[-1][0]

        monkeypatch.setattr(density_module, "integrate_interval", spy)
        values = bergman_density(met, m, [0.0, 0.3, 1.0, 4.0, 1e3, np.inf], tol).values
        return out[0][0], len(out[0][1]), values

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    @pytest.mark.parametrize("name", sorted(BANDED_METRICS))
    def test_no_more_calls_than_the_halves(self, monkeypatch, name, tol):
        # from m = 21 on the start has three or four panels, in one call as the
        # halves of [0, 1] are.  From the halves, at tol 1e-12 and 1e-13, the
        # rational bump 0.2 splits at m = 29-37 and 27-37, the eigenfunction
        # bump 0.1 at 31-37 and 29-37, the phi1-poly at 36-37 and 34-37 and
        # Fubini-Study at 36-37 at 1e-13; from its own start only the bump
        # 0.45 splits (m = 34-35 and 30-35), where the halves split at every m
        met = RadialMetric(BANDED_METRICS[name])
        for m in range(21, 38):
            _, halves, _ = self.schedules(monkeypatch, met, m, tol, (0.0, 0.5, 1.0))
            _, calls, _ = self.schedules(monkeypatch, met, m, tol)
            assert calls <= halves, m
            if name != "eigenfunction-bump-0.45":
                assert calls == 1, m

    @pytest.mark.parametrize("m", [38, 50, 85, 86, 100, 200, 300, 375])
    @pytest.mark.parametrize("name", sorted(BANDED_METRICS))
    def test_stated_rows_match_first_panel_alone(self, monkeypatch, name, m):
        # the same panels in fewer calls: only the BLAS products that sum a
        # call's rules group their rows by call, so T_j and the density move
        # by at most 4 ulps against each initial panel evaluated alone
        met = RadialMetric(BANDED_METRICS[name])
        alone_total, alone_calls, alone = self.schedules(monkeypatch, met, m, 1e-12, stated=False)
        total, calls, values = self.schedules(monkeypatch, met, m, 1e-12)
        assert calls <= alone_calls - (m <= 85)
        assert np.all(np.abs(total - alone_total) <= 4 * np.spacing(alone_total))
        assert np.all(np.abs(values - alone) <= 4 * np.spacing(alone))


class TestGridInTheFirstCall:
    """A dense pass evaluates the density's grid in its first integrand call."""

    @pytest.mark.parametrize("m", [5, 37, 38, 50, 200])
    @pytest.mark.parametrize("name", sorted(BANDED_METRICS))
    def test_terms_equal_a_separate_evaluation(self, monkeypatch, name, m):
        # each term is bit for bit _Rows.values at the grid, evaluated after the
        # pass, over the row's total; the pass itself is unchanged.  The grid goes
        # in as p: row j is read at x = 1 - p, or for a chart-symmetric metric,
        # whose pass keeps rows 0 .. m//2, row j > m//2 as row m - j at x = p
        met = RadialMetric(BANDED_METRICS[name])
        at = 1.0 / (1.0 + np.array(GRID + [1e3, np.inf]))
        quad, values = density_module.integrate_interval, density_module._Rows.values
        seen, totals, calls = [], [], []

        def spy_values(self, x, offset, rows=slice(None)):
            seen.append((self, offset))
            return values(self, x, offset, rows)

        def spy(f, *args, **kwargs):
            calls.append(0)

            def g(x):
                calls[-1] += 1
                return f(x)

            totals.append(quad(g, *args, **kwargs))
            return totals[-1]

        monkeypatch.setattr(density_module, "_BANDED_FROM_M", math.inf)  # dense at every m
        monkeypatch.setattr(density_module._Rows, "values", spy_values)
        monkeypatch.setattr(density_module, "integrate_interval", spy)
        logn, empty = density_module._section_norms(met, m, 1e-12, ())
        assert empty.shape == (m + 1, 0)
        rows, offset = seen[-1]
        # offset None: a dense pass divides its rows by nothing, and values subtracts none
        assert offset is None
        total = totals[0][:, None]
        with np.errstate(divide="ignore"):
            want = rows.values(1.0 - at, offset) / total
            if met.is_chart_symmetric:
                assert len(want) == m // 2 + 1
                mirrored = (rows.values(at, offset) / total)[:m + 1 - len(want)]
                want = np.concatenate([want, mirrored[::-1]])
        fused, terms = density_module._section_norms(met, m, 1e-12, at)
        assert calls[1] == calls[0]
        assert totals[1].tobytes() == totals[0].tobytes()
        assert fused.tobytes() == logn.tobytes()
        assert terms.shape == (m + 1, len(at)) and terms.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [5, 50, 200])
    def test_no_separate_grid_evaluation(self, monkeypatch, m):
        # a dense density evaluates the rows once per integrand call, no more
        values, quad = density_module._Rows.values, density_module.integrate_interval
        evaluations, calls = [], []

        def spy_values(self, x, offset, rows=slice(None)):
            evaluations.append(np.size(x))
            return values(self, x, offset, rows)

        def spy(f, *args, **kwargs):
            def g(x):
                calls.append(x.size)
                return f(x)

            return quad(g, *args, **kwargs)

        monkeypatch.setattr(density_module._Rows, "values", spy_values)
        monkeypatch.setattr(density_module, "integrate_interval", spy)
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        bergman_density(met, m, GRID)
        assert evaluations == [calls[0] + len(GRID)] + calls[1:]


class TestBergmanDensity:
    def test_fs_constant(self):
        res = bergman_density(RadialMetric.fubini_study(), 3, GRID + [1e4])
        assert np.all(np.abs(res.values - 4.0) < 1e-9)

    def test_fs_trivial_power(self):
        res = bergman_density(RadialMetric.fubini_study(), 0, [0.0, 2.0])
        assert res.values == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_additive_constant_invariance(self):
        u = RadialProfile([0.0, 0.2, -0.1])
        shifted = RadialProfile([0.7, 0.2, -0.1])
        a = bergman_density(RadialMetric(u), 9, GRID)
        b = bergman_density(RadialMetric(shifted), 9, GRID)
        assert np.all(np.abs(a.values - b.values) < 1e-12 * np.abs(a.values))

    def test_positivity_and_smoothness(self):
        s = np.linspace(0.0, 6.0, 61)
        for prof in (
            RadialProfile.eigenfunction_bump(0.2),
            RadialProfile.rational_bump(0.3),
        ):
            res = bergman_density(RadialMetric(prof), 12, s)
            assert np.all(res.values > 0)
            second = np.diff(res.values, 2)
            assert np.max(np.abs(second)) < 1.0

    def test_chart_independence(self):
        # s = 0 here is the pole s' = inf of the inverted chart
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.2))
        s = np.array([0.0, 0.2, 0.5, 1.0, 3.0, 8.0])
        direct = bergman_density(met, 12, s).values
        with np.errstate(divide="ignore"):
            inverted = bergman_density(met.inverted_chart(), 12, 1.0 / s).values
        assert np.all(np.abs(direct - inverted) < 1e-13 * np.abs(direct))

    @pytest.mark.parametrize("s", [-0.5, -1.0, math.nan])
    def test_grid_outside_domain(self, s):
        with pytest.raises(ValueError, match=r"outside \[0, inf\]"):
            bergman_density(RadialMetric.fubini_study(), 3, [0.0, s, math.inf])

    def test_expansion_self_consistency(self):
        # m + a1 + a2/m predicts the density to O(1/m^2)
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        m = 20
        value = bergman_density(met, m, [0.0]).values[0]
        rep = scalar_curvature(met, 0.0)
        assert abs(value - (m + rep.a1 + rep.a2 / m)) < 1e-2
        assert abs(value - (m + rep.a1)) < 2e-2

    @pytest.mark.parametrize("m", [5, 50, 400])
    def test_scalar_grid(self, m):
        # a scalar s gives the one-point grid's value as a 0-d array, on the
        # dense and banded paths (it was a one-element array beside a 0-d grid)
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        res = bergman_density(met, m, 2.0)
        assert res.grid.shape == res.values.shape == ()
        assert res.values.tobytes() == bergman_density(met, m, [2.0]).values.tobytes()

    @pytest.mark.parametrize("m", [5, 50, 400])
    def test_grid_of_any_shape(self, m):
        # values take the grid's shape: a 2-D grid once raised numpy's
        # "operands could not be broadcast together"
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        grid = [[0.0, 0.3, 1.0], [4.0, 1e3, math.inf]]
        res = bergman_density(met, m, grid)
        assert res.grid.shape == res.values.shape == (2, 3)
        flat = bergman_density(met, m, np.ravel(grid)).values
        assert res.values.tobytes() == flat.tobytes()

    def test_norms_attached_to_result(self):
        res = bergman_density(RadialMetric.fubini_study(), 2, [0.0])
        assert res.norms == pytest.approx([1 / 3, 1 / 6, 1 / 3], rel=1e-11)


class TestDensityWithPotential:
    def test_zero_step_identical(self):
        met = RadialMetric(RadialProfile.rational_bump(0.2))
        phi = RadialProfile.eigenfunction_bump(1.0)
        a = bergman_density(perturbed(met, phi, 0.0), 6, GRID)
        b = bergman_density(met, 6, GRID)
        assert np.array_equal(a.values, b.values)

    def test_constant_potential_invariant(self):
        met = RadialMetric.fubini_study()
        phi = RadialProfile([2.0])
        a = bergman_density(perturbed(met, phi, 0.3), 6, GRID)
        assert np.all(np.abs(a.values - 7.0) < 1e-9)

    def test_first_order_magnitude(self):
        met = RadialMetric.fubini_study()
        t, m = 1e-3, 10
        # the first-eigenspace direction is an automorphism pullback:
        # its first-order density change vanishes, only O((tm)^2) remains
        phi = RadialProfile.eigenfunction_bump(1.0)
        res = bergman_density(perturbed(met, phi, t), m, GRID)
        dev = np.max(np.abs(res.values - (m + 1)))
        assert dev < t * m
        # a level-2 direction moves the density at first order in t
        phi2 = RadialProfile([0.0, 0.0, 1.0])
        res2 = bergman_density(perturbed(met, phi2, t), m, GRID)
        dev2 = np.max(np.abs(res2.values - (m + 1)))
        assert 1e-4 < dev2 < 5 * t * m


# (profile maker, exact profile in s) pairs of the curvature oracle tests;
# eps enters as the exact dyadic value of the float the library reads
CURVATURE_FAMILIES = [
    (RadialProfile.eigenfunction_bump, lambda eps, s: eps * (1 - s) / (1 + s)),
    (RadialProfile.rational_bump, lambda eps, s: eps * s / (1 + s) ** 2),
    pytest.param(lambda eps: RadialProfile([0.0, eps / 2, -eps / 5]),
                 lambda eps, s: eps / 2 / (1 + s) - eps / 5 / (1 + s) ** 2, id="phi1-poly"),
]


class TestScalarCurvature:
    def test_fubini_study_report(self):
        for s in (0.0, 1.7, 1e6, math.inf):
            rep = scalar_curvature(RadialMetric.fubini_study(), s)
            assert (rep.rho, rep.lap_rho, rep.a1, rep.a2) == (2.0, 0.0, 1.0, 0.0), s

    @pytest.mark.parametrize("u_maker,u_sym", CURVATURE_FAMILIES)
    def test_numerators_are_exact(self, u_maker, u_sym):
        # R = rho v^3 and L = (Delta rho) v^6 for the metric's own float v:
        # every coefficient is the exact one, rounded once
        for e in (0.1, 0.2):
            met = RadialMetric(u_maker(e))
            v = sum((sp.QQ(*c.as_integer_ratio()) * P**k
                     for k, c in enumerate(met._v_coeffs)), QP(0))
            rho, lap_rho = exact_curvature(P**2 * v)
            for got, f in zip(met._curvature_numerators, (rho * v**3, lap_rho * v**6)):
                assert f.denom.is_ground  # a polynomial in p
                expanded = sp.Poly(f.as_expr(), QP.symbols[0])
                assert got == tuple(float(c) for c in reversed(expanded.all_coeffs())), e

    @pytest.mark.parametrize("profile", [
        RadialProfile.zero(), RadialProfile.eigenfunction_bump(0.1),
        RadialProfile.rational_bump(0.15), RadialProfile([0.0, 0.05, -0.02, 0.013]),
    ], ids=["fs", "eigenfunction-bump", "rational-bump", "phi1-poly-cubic"])
    def test_numerators_match_a_fraction_construction(self, profile):
        # the same recursion in sympy polynomial arithmetic over QQ,
        # divided by the scale in Fractions and rounded once: equal bit for bit
        met = RadialMetric(profile)
        scale = max(Fraction(c).denominator for c in met._v_coeffs)
        v = poly([Fraction(c) * scale for c in met._v_coeffs])
        dv, pq = v.diff(), poly([0, 1, -1])
        n = poly([2, -2]) * v + pq * dv
        r = n * dv - n.diff() * v
        q = pq * (r.diff() * v - r * dv * 3)
        lap = q.diff() * v - q * dv * 4
        for got, want, e in zip(met._curvature_numerators, (r, lap), (2, 4)):
            assert [c.hex() for c in got] == [float(c / scale**e).hex() for c in coeffs(want)]

    @pytest.mark.parametrize("u_maker,u_sym", CURVATURE_FAMILIES)
    def test_against_symbolic_oracle(self, u_maker, u_sym):
        # from the profile in s: psi = log(1+s) + u, g = psi' + s psi''
        s = 1 / P - 1
        for e in (0.1, 0.2):
            dpsi = P + _d_ds(u_sym(sp.QQ(*e.as_integer_ratio()), s))
            rho, lap_rho = exact_curvature(dpsi + s * _d_ds(dpsi))
            met = RadialMetric(u_maker(e))
            for sv in (0.0, 1.0, 1e3, 1e6):
                rep = scalar_curvature(met, sv)
                at = sp.QQ(1) / (1 + sp.QQ(*sv.as_integer_ratio()))
                assert rep.rho == pytest.approx(float(exact_at(rho, at)), rel=1e-13), (e, sv)
                assert rep.lap_rho == pytest.approx(float(exact_at(lap_rho, at)),
                                                    rel=1e-13, abs=1e-15), (e, sv)

    @pytest.mark.parametrize("u_maker,u_sym", CURVATURE_FAMILIES)
    def test_pole_through_the_inverted_chart(self, u_maker, u_sym):
        met = RadialMetric(u_maker(0.1))
        far = scalar_curvature(met, math.inf)
        near = scalar_curvature(met.inverted_chart(), 0.0)
        assert far.rho == pytest.approx(near.rho, rel=1e-14)
        assert far.lap_rho == pytest.approx(near.lap_rho, rel=1e-14)

    @pytest.mark.parametrize("s", [-0.5, -1.0, math.nan, -math.inf])
    def test_outside_the_domain(self, s):
        met = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        with pytest.raises(ValueError, match="outside"):
            scalar_curvature(met, s)

    def test_continuity_at_fubini_study(self):
        rep = scalar_curvature(RadialMetric(RadialProfile.eigenfunction_bump(1e-4)), 0.0)
        assert abs(rep.rho - 2.0) < 1e-2

    def test_a2_is_third_of_laplacian(self):
        met = RadialMetric(RadialProfile.rational_bump(0.3))
        for sv in (0.0, 0.8, 3.0):
            rep = scalar_curvature(met, sv)
            assert rep.a2 == pytest.approx(rep.lap_rho / 3.0, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("name", sorted(BANDED_METRICS))
    def test_cold_and_warm_cache_agree(self, name):
        # each run builds its own metric, as a bench or CLI op does; the warm one
        # reads the numerators the cold one left in the cache
        cache = density_module._curvature_numerators_of
        runs = []
        for warm in (False, True):
            if not warm:
                cache.cache_clear()
            met = RadialMetric(BANDED_METRICS[name])
            reports = [scalar_curvature(met, s) for s in GRID + [math.inf]]
            runs.append(([[c.hex() for c in f] for f in met._curvature_numerators],
                         [(r.rho.hex(), r.lap_rho.hex()) for r in reports]))
        assert runs[0] == runs[1]
        assert cache.cache_info().misses == 1 and cache.cache_info().hits > 0
        # the cached function is the construction itself, called once per v
        fresh = cache.__wrapped__(RadialMetric(BANDED_METRICS[name])._v_coeffs)
        assert [[c.hex() for c in f] for f in fresh] == runs[0][0]

    def test_equal_metrics_share_the_numerators(self):
        density_module._curvature_numerators_of.cache_clear()
        a = RadialMetric(RadialProfile.rational_bump(0.2))._curvature_numerators
        assert RadialMetric(RadialProfile.rational_bump(0.2))._curvature_numerators is a
        assert RadialMetric(RadialProfile.rational_bump(0.3))._curvature_numerators is not a
        cache = density_module._curvature_numerators_of
        assert cache.cache_info().maxsize == density_module._CURVATURE_CACHE_SIZE
        assert cache.cache_info().currsize == 2


def _pulled_back_quadrature(phi, m, s):
    """The first-variation integral with the Mobius-pulled-back integrand
    averaged by cp1_integral: (1/pi) int (m phi~ - Delta phi~) o G (1+|z|^2)^{-(m+2)} dA,
    the weight's (1+|z|^2)^{-m} folded into the integrand."""
    w = math.sqrt(s)
    phi0 = float(phi.value(s))
    lap = RadialProfile(phi.fs_laplacian_coeffs())

    def integrand(z):
        # p o G = |1 - w z|^2 / (|1 - w z|^2 + |z + w|^2)
        d2 = np.abs(1.0 - w * z) ** 2
        p = d2 / (d2 + np.abs(z + w) ** 2)
        return (m * (phi.value_p(p) - phi0) - lap.value_p(p)) * (1.0 + np.abs(z) ** 2) ** (-m)

    return cp1_integral(integrand, rtol=1e-13, atol=1e-15)


def _exact_through_the_inverse(phi, m, s):
    """-(m+1)^2 times the integral, exactly, pulling p^m back instead of phi.

    The round measure is invariant, so the integral of f(p o G) p^m dV_0
    is that of f(p) (p o G^{-1})^m dV_0, and p o G^{-1} =
    |1 + w z|^2 / ((1+s)(1+|z|^2)).  Parseval and a Beta integral then
    give a sum over l <= m rather than l <= k.
    """
    S = Fraction(s)
    c = [Fraction(x) for x in phi.coeffs]
    lap = [Fraction(0)] * len(c)
    for k in range(1, len(c)):  # Delta p^k = k^2 p^(k-1) - k(k+1) p^k
        lap[k - 1] += k * k * c[k]
        lap[k] -= k * (k + 1) * c[k]
    phi0 = sum(ck / (1 + S) ** k for k, ck in enumerate(c))
    total = Fraction(0)
    for k, (ck, lk) in enumerate(zip(c, lap)):
        weight = m * (ck - (phi0 if k == 0 else 0)) - lk
        moment = sum(Fraction(math.comb(m, l) ** 2, (m + k + 1) * math.comb(m + k, l)) * S**l
                     for l in range(m + 1))
        total += weight * moment / (1 + S) ** m
    return -((m + 1) ** 2) * total


# floats the integer closed form must read exactly: signed zeros, subnormals
# and the ends of the float range among them
_EXACT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(allow_nan=False, allow_infinity=False))


def _outcome(formula, coeffs, m, s):
    try:
        return formula(coeffs, m, s).hex()
    except OverflowError:  # a value past the float range, from either sum
        return "overflow"


class TestVariationFormula:
    """The closed form in integers equals the Fraction sum bit for bit."""

    @given(coeffs=st.lists(_EXACT_FLOATS, max_size=6),
           m=st.integers(min_value=0, max_value=200),
           s=st.one_of(st.sampled_from([0.0, 5e-324, 1e-9, 1e6]),
                       st.floats(min_value=0.0, max_value=4.0)))
    @example(coeffs=[], m=20, s=0.5)  # the zero profile
    @example(coeffs=[1.0, -2.0], m=20, s=3.0)  # the first eigenspace: exactly +0.0
    @example(coeffs=[1e300, 1e300, -1e300], m=200, s=1e6)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_fraction_sum(self, coeffs, m, s):
        got = _outcome(density_module._variation_formula, tuple(coeffs), m, s)
        assert got == _outcome(fraction_variation_formula, tuple(coeffs), m, s)


# bench/workloads.py, for cp1_quad's first-variation inputs (it reads the library as lib)
_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
_BENCH = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_BENCH)


class TestFirstVariation:
    FS = RadialMetric.fubini_study()

    def test_zero_potential(self):
        res = first_variation(self.FS, RadialProfile.zero(), 20)
        assert res.formula_value == 0.0
        assert res.fd_value == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("coeffs, m", [
        ((0.0, 1e308, -1e308), 5),  # Delta phi's coefficients overflow
        ((0.0, 0.0, 1e308), 1000),  # the closed form's int / int overflows
        ((1e308,), 5),  # m phi overflows
        ((1e307, -1e307), 100),
    ])
    def test_past_float_range_raises(self, coeffs, m):
        # each once returned nan (with RuntimeWarnings) or raised OverflowError
        with pytest.raises(ValueError, match=re.escape(
                f"first variation overflows (phi = {list(coeffs)}, m = {m})")):
            first_variation(self.FS, RadialProfile(coeffs), m)

    def test_level_two_eigenfunction(self):
        # zonal eigenfunction 1 - 6p + 6p^2: exact value 12 m(m+1)/((m+2)(m+3))
        phi = RadialProfile([1.0, -6.0, 6.0])
        m = 20
        res = first_variation(self.FS, phi, m)
        exact = 12.0 * m * (m + 1) / ((m + 2) * (m + 3))
        assert res.formula_value == pytest.approx(exact, rel=1e-14)
        assert res.rel_diff < 1e-3

    def test_projection_mix(self):
        # phi_2 alone: exact value 2 m(m+1)/((m+2)(m+3))
        phi = RadialProfile([0.0, 0.0, 1.0])
        m = 20
        res = first_variation(self.FS, phi, m)
        exact = 2.0 * m * (m + 1) / ((m + 2) * (m + 3))
        assert res.formula_value == pytest.approx(exact, rel=1e-14)
        assert res.rel_diff < 1e-3

    def test_first_eigenspace_is_silent(self):
        # the automorphism direction: the formula is exactly +0.0 at any base point
        for s in (0.0, 0.75, 3.0):
            res = first_variation(self.FS, RadialProfile([1.0, -2.0]), 20, s=s)
            assert res.formula_value == 0.0 and math.copysign(1.0, res.formula_value) == 1.0

    def test_shifted_base_point(self):
        phi = RadialProfile([1.0, -6.0, 6.0])
        m, s = 20, 1.0
        res = first_variation(self.FS, phi, m, s=s)
        exact = phi.value(s) * 12.0 * m * (m + 1) / ((m + 2) * (m + 3))
        assert res.formula_value == pytest.approx(exact, rel=1e-14)
        assert res.rel_diff < 1e-3

    @pytest.mark.parametrize("m,s,coeffs", [
        (20, 0.0, (1.0, -6.0, 6.0)),
        (20, 0.5, (-1.0 / 3.0, 0.3, 1.0)),
        (37, 1.25, (0.2, -0.7, 0.4, 0.9)),
        (80, 1.9375, (0.5, 1.5, -4.0)),
    ])
    def test_matches_both_oracles(self, m, s, coeffs):
        # dyadic s, so the Fraction oracle sees the base point the library reads
        phi = RadialProfile(coeffs)
        got = first_variation(self.FS, phi, m, s=s).formula_value
        assert got == float(_exact_through_the_inverse(phi, m, s))
        want = -((m + 1) ** 2) * _pulled_back_quadrature(phi, m, s)
        assert got == pytest.approx(want, rel=1e-12)

    def test_no_cp1_pass(self, monkeypatch):
        # cp1_integral's radial passes are the integrate_interval calls made
        # inside quadrature; section norms call it through density's own name
        passes = []
        original = quadrature.integrate_interval

        def counted(*args, **kwargs):
            passes.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_interval", counted)
        phi = RadialProfile([1.0, -6.0, 6.0])
        first_variation(self.FS, phi, 20, s=0.5)
        assert not passes
        _pulled_back_quadrature(phi, 20, 0.5)
        assert passes

    @pytest.mark.parametrize("s", [-0.25, math.nan, math.inf])
    def test_base_point_outside_the_domain(self, s):
        with pytest.raises(ValueError, match="outside"):
            first_variation(self.FS, RadialProfile([1.0, -6.0, 6.0]), 20, s=s)

    @pytest.mark.parametrize("phi", [RadialProfile.zero(), RadialProfile([1.0, -6.0, 6.0])])
    def test_negative_m(self, phi):
        # the zero direction once returned zeros at m = -3
        with pytest.raises(ValueError, match="m = -3 is negative"):
            first_variation(self.FS, phi, -3)

    @pytest.mark.parametrize("m", [20.5, 2.5, 20.0, np.float64(3.0), True, "20", Fraction(20)])
    def test_non_integral_m(self, m):
        # math.perm once raised a bare TypeError here
        with pytest.raises(ValueError, match=r"m = .* is not an integer"):
            first_variation(self.FS, RadialProfile([1.0, -6.0, 6.0]), m)

    def test_result_fields_are_floats(self):
        # fd_value and rel_diff were np.float64 beside a float formula_value
        res = first_variation(self.FS, RadialProfile([0.3, -1.2, 1.5]), np.int64(20), s=0.5)
        assert type(res.m) is int
        assert all(type(x) is float for x in (res.formula_value, res.fd_value, res.rel_diff))

    @pytest.mark.parametrize("seed", range(1, 40))
    def test_linearisation_on_the_benchmark_inputs(self, seed):
        # the centred difference it replaced read rel_diff up to 7.8e-8 here
        for m, s, coeffs in _BENCH.Cp1Quad(cpnbergman, seed).variations:
            assert first_variation(self.FS, RadialProfile(coeffs), m, s).rel_diff < 1e-10

    @pytest.mark.parametrize("phi", [RadialProfile.eigenfunction_bump(1.0),
                                     RadialProfile([0.3, -1.2, 1.5]),
                                     RadialProfile.rational_bump(0.5)])
    @pytest.mark.parametrize("s", [0.0, 0.735, 2.5])
    def test_m_zero(self, phi, s):
        # Pi_0 = 1 for every metric; the difference once read rel_diff 1.0 for the rational bump
        res = first_variation(self.FS, phi, 0, s=s)
        assert res.formula_value == res.fd_value == res.rel_diff == 0.0

    def test_m_zero_random_directions(self):
        # the one row's mean is one exact sum: 0 for every direction, where the
        # float sum over rounded moments read rel_diff up to 1.0e-4 here
        rng = np.random.default_rng(13)
        for _ in range(300):
            phi = RadialProfile(rng.uniform(-1.0, 1.0, int(rng.integers(1, 6))))
            res = first_variation(self.FS, phi, 0, s=float(rng.uniform(0.0, 5.0)))
            assert res.formula_value == res.fd_value == res.rel_diff == 0.0

    def test_first_eigenspace_linearises_to_rounding(self):
        # the automorphism direction at larger m: the terms cancel to about eps
        res = first_variation(self.FS, RadialProfile.eigenfunction_bump(1.0), 80, s=1.3)
        assert res.formula_value == 0.0
        assert abs(res.fd_value) < 1e-13 and res.rel_diff < 1e-5

    @pytest.mark.parametrize("m,s,coeffs", [
        (20, 0.0, (1.0, -6.0, 6.0)),
        (20, 0.5, (-1.0 / 3.0, 0.3, 1.0)),
        (37, 1.25, (0.2, -0.7, 0.4, 0.9)),
        (80, 1.9375, (0.5, 1.5, -4.0)),
        (30, 2.5, (0.0, 0.5, -0.5)),
    ])
    def test_centred_difference_agrees(self, m, s, coeffs):
        # two perturbed passes at +-1e-5 (measured within 6e-9 relative)
        phi = RadialProfile(coeffs)
        lin = first_variation(self.FS, phi, m, s=s).fd_value
        assert centred_difference(self.FS, phi, m, s) == pytest.approx(lin, rel=1e-6)

    def test_requires_fubini_study_background(self):
        met = RadialMetric(RadialProfile.rational_bump(0.2))
        with pytest.raises(ValueError):
            first_variation(met, RadialProfile.eigenfunction_bump(1.0), 10)

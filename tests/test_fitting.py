"""Expansion-coefficient fitting and vanishing diagnostics."""

import io
import math
import re
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnbergman import (
    InsufficientSamplesError,
    fit_expansion,
    fitting,
    vanishing_report,
)

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=8
)


def model_samples(coeffs, n, ms):
    out = []
    for m in ms:
        m = Fraction(m)
        v = sum(c * m ** (n - k) for k, c in enumerate(coeffs))
        out.append((m, v))
    return out


def per_call_fit(samples, n, K):
    """fit_expansion's arithmetic with the design built for the call: the
    cached design, and the residual on arrays, must equal it bit for bit."""
    pairs = list(samples)
    exact = len(pairs) == K + 1 and all(isinstance(x, Rational) for p in pairs for x in p)
    design = np.array([[float(m) ** (-k) for k in range(K + 1)] for m, _ in pairs])
    scale = np.max(np.abs(design), axis=0)
    condition = float(np.linalg.cond(design / scale))
    if exact:
        return fit_expansion(pairs, n, K).coeffs, condition
    y = np.array([float(v) / float(m) ** n for m, v in pairs])
    sol, *_ = np.linalg.lstsq(design / scale, y, rcond=None)
    coeffs = tuple(float(c) for c in sol / scale)
    model = [sum(float(c) * float(m) ** (n - k) for k, c in enumerate(coeffs)) for m, _ in pairs]
    residual = float(max(abs(pred - v) for pred, (_, v) in zip(model, pairs)))
    return coeffs, residual, condition


def bits(fit):
    # every number of a FitResult, floats in hex, Fractions as they are
    return [x.hex() if isinstance(x, float) else x
            for x in (*fit.coeffs, fit.residual, fit.condition)]


class TestExactPath:
    def test_synthetic_example(self):
        samples = model_samples([1, 2, 3], 1, [4, 5, 6])
        fit = fit_expansion(samples, 1, 2)
        assert fit.coeffs == (1, 2, 3)
        assert fit.residual == 0

    def test_fs_cp2(self):
        samples = [(m, Fraction((m + 1) * (m + 2))) for m in (2, 3, 4, 5)]
        fit = fit_expansion(samples, 2, 3)
        assert fit.coeffs == (1, 3, 2, 0)

    def test_fs_cp1(self):
        samples = [(m, Fraction(m + 1)) for m in (10, 20, 30)]
        fit = fit_expansion(samples, 1, 2)
        assert fit.coeffs == (1, 1, 0)

    @given(
        coeffs=st.lists(rationals, min_size=1, max_size=6),
        n=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_recovery(self, coeffs, n, data):
        # K + 1 exact samples (m, m^n p(1/m)) at distinct positive rational m
        # give back p's coefficients exactly: the exact branch interpolates
        K = len(coeffs) - 1
        ms = data.draw(st.lists(st.fractions(min_value=Fraction(1, 6), max_value=60,
                                             max_denominator=6),
                                min_size=K + 1, max_size=K + 1, unique=True))
        fit = fit_expansion(model_samples(coeffs, n, ms), n, K)
        assert list(fit.coeffs) == coeffs
        assert all(type(c) is Fraction for c in fit.coeffs)
        assert fit.residual == 0


class TestLeastSquaresPath:
    def test_overdetermined_exact_model(self):
        samples = [(float(m), float(m + 1)) for m in range(10, 60, 5)]
        fit = fit_expansion(samples, 1, 2)
        assert fit.coeffs == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)
        assert fit.residual < 1e-11

    def test_condition_reported(self):
        samples = [(float(m), float(m + 1)) for m in range(10, 60, 5)]
        fit = fit_expansion(samples, 1, 2)
        assert np.isfinite(fit.condition) and fit.condition >= 1.0

    def test_sensitivity_bounded_by_condition(self):
        # scaled-column least squares: coefficient motion under a sample
        # perturbation of norm delta is at most cond * delta / min_scale
        rng = np.random.default_rng(11)
        ms = np.arange(10, 61, 5, dtype=float)
        base = [(m, m + 1.0) for m in ms]
        fit = fit_expansion(base, 1, 2)
        delta = 1e-9
        noise = rng.normal(size=len(ms))
        noise *= delta / np.linalg.norm(noise)
        bumped = [(m, v + e) for (m, v), e in zip(base, noise)]
        fit2 = fit_expansion(bumped, 1, 2)
        moved = np.max(np.abs(np.subtract(fit2.coeffs, fit.coeffs)))
        min_scale = (1.0 / ms.max()) ** 2
        assert moved <= fit.condition * delta / min_scale


class TestValidation:
    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamplesError):
            fit_expansion([(10, 11.0), (20, 21.0)], 1, 2)

    def test_duplicate_m_rejected(self):
        with pytest.raises(InsufficientSamplesError):
            fit_expansion([(10, 11.0), (10, 11.0), (20, 21.0)], 1, 2)
        # K + 1 exact samples take the interpolating branch, which needs distinct nodes
        with pytest.raises(InsufficientSamplesError):
            fit_expansion([(Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(1)),
                           (2, Fraction(5))], 1, 2)

    def test_negative_order_rejected(self):
        # K = -1 once reached numpy's "cond is not defined on empty arrays"
        with pytest.raises(ValueError, match="K = -1 is negative"):
            fit_expansion([(10, 11.0), (20, 21.0)], 1, -1)

    @pytest.mark.parametrize("samples", [
        [(0, 0.0), (10, 11.0), (20, 21.0)],            # float path: 0.0 ** -1 once raised
        [(0, 0), (10, 11), (20, 21)],                  # exact path: Fraction(1, 0)
        [(Fraction(-1, 2), 1.0), (10, 11.0), (20, 21.0)],
        [(float("nan"), 1.0), (10, 11.0), (20, 21.0)],
    ])
    def test_non_positive_m_rejected(self, samples):
        # the model is a series in 1/m; m = 0 once ended in ZeroDivisionError
        with pytest.raises(ValueError, match="sample m must be positive"):
            fit_expansion(samples, 1, len(samples) - 1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("K", [1, 2])  # the float path, with and without least squares
    def test_non_finite_value_rejected(self, value, K):
        # a nan or infinite value once gave nan coefficients and residual
        samples = [(10, 11.0), (20, value), (30, 31.0)]
        with pytest.raises(ValueError, match=f"sample value must be finite, got {value} at m = 20"):
            fit_expansion(samples, 1, K)

    @pytest.mark.parametrize("m, shown", [(10**400, "1e+400"),
                                          (Fraction(1, 10**320), "1e-320")])
    @pytest.mark.parametrize("samples, tail", [([(2,), (20, 21)], ""),
                                               ([(2.0,), (20, 21.0), (30, 31.0)],
                                                ", and m^1 finite and nonzero")],
                             ids=["exact", "least-squares"])
    def test_m_past_float_range_rejected(self, m, shown, samples, tail):
        # exact m: 1e400 once raised OverflowError at float(m) and 1e-320 at m ** -1
        samples = [(m, *samples[0])] + samples[1:]
        with pytest.raises(ValueError, match=f"sample m = {re.escape(shown)} is outside "
                           f"float range: m and m\\^-1 must be finite{re.escape(tail)}$"):
            fit_expansion(samples, 1, 1)

    @pytest.mark.parametrize("m, n", [(1e200, 2), (1e-120, 3), (math.inf, 1)])
    def test_float_model_power_past_float_range_rejected(self, m, n):
        # the least-squares path divides by m^n, which overflowed (OverflowError)
        # or underflowed to 0 (ZeroDivisionError); an infinite m gave an infinite residual
        samples = [(m, 1.0), (10.0, 11.0), (20.0, 21.0)]
        with pytest.raises(ValueError, match=f"sample m = {re.escape(f'{m:.6g}')} is outside "
                           f"float range: m and m\\^-1 must be finite, and m\\^{n} finite "
                           "and nonzero$"):
            fit_expansion(samples, n, 1)
        if math.isfinite(m):  # the exact path works in Fractions, where m^n is exact
            exact = [(Fraction(x), Fraction(v)) for x, v in samples[:2]]
            assert fit_expansion(exact, n, 1).residual == 0

    @pytest.mark.parametrize("samples", [
        [(10.0, 1e308), (20.0, -1e308), (30.0, 1e308), (40.0, -1e308)],
        [(0.5, 1e308), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)],  # value / m past float range
    ], ids=["coefficients", "value-over-m"])
    def test_least_squares_past_float_range_rejected(self, samples):
        # each once gave infinite or nan coefficients and a nan residual, with
        # RuntimeWarnings (errors in this suite)
        with pytest.raises(ValueError, match="least-squares fit overflows: coefficients"):
            fit_expansion(samples, 1, 2)


class TestDesignCache:
    """Each (m values, n, K) design is built once, in a bounded cache."""

    LADDER = (20, 25, 30, 40, 50, 60, 100, 200)

    @staticmethod
    def samples(path, kind):
        if path == "exact":  # K + 1 = 4 rational samples
            return [(kind(m), Fraction(m + 1) + Fraction(1, 3 * m)) for m in (20, 25, 30, 40)]
        return [(kind(m), m + 0.5 + 0.3 / m - 0.07 / m**2) for m in TestDesignCache.LADDER]

    @pytest.mark.parametrize("path, kinds", [("exact", (int, Fraction)),
                                             ("least-squares", (int, float, Fraction))])
    def test_cold_and_warm_cache_agree(self, path, kinds):
        runs = []
        for kind in kinds:
            fitting._design.cache_clear()
            runs += [bits(fit_expansion(self.samples(path, kind), 1, 3)) for _ in range(2)]
        assert all(run == runs[0] for run in runs)
        # equal m given as int, float or Fraction share one entry
        fitting._design.cache_clear()
        for kind in kinds:
            fit_expansion(self.samples(path, kind), 1, 3)
        info = fitting._design.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, len(kinds) - 1)

    @given(ms=st.lists(st.floats(min_value=0.5, max_value=1e4), min_size=2, max_size=12,
                       unique=True),
           n=st.integers(min_value=0, max_value=3), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_a_per_call_design(self, ms, n, data):
        K = data.draw(st.integers(min_value=0, max_value=len(ms) - 1))
        values = data.draw(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                                    min_size=len(ms), max_size=len(ms)))
        samples = list(zip(ms, values))
        coeffs, *rest = per_call_fit(samples, n, K)
        assert bits(fit_expansion(samples, n, K)) == [x.hex() for x in (*coeffs, *rest)]
        exact = [(Fraction(m), Fraction(v)) for m, v in samples[:K + 1]]
        fit = fit_expansion(exact, n, K)
        assert (fit.coeffs, fit.condition) == per_call_fit(exact, n, K)

    @pytest.mark.parametrize("N", [8, 10, 12])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_square_fits_sum_the_model_in_order(self, N, n):
        # K + 1 = N float samples leave a residual at rounding level, where the
        # order of the model's sum over k shows in its bits
        rng = np.random.default_rng(N + 10 * n)
        ms = np.sort(rng.uniform(0.5, 500.0, size=N)).tolist()
        for K in (N - 2, N - 1):
            samples = list(zip(ms, rng.normal(size=N).tolist()))
            coeffs, *rest = per_call_fit(samples, n, K)
            assert bits(fit_expansion(samples, n, K)) == [x.hex() for x in (*coeffs, *rest)]

    def test_entries_are_read_only(self):
        scaled, scale, condition, powers = fitting._design(tuple(map(float, self.LADDER)), 1, 3)
        assert type(condition) is float
        for a in (scaled, scale, powers):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        assert fitting._design((20.0, 25.0), None, 1)[3] is None  # the exact path's entry

    def test_footprint_bound(self):
        # the worst case fills every entry with the largest cached design: three
        # arrays of _DESIGN_CACHE_VALUES floats (the scale is one row of them)
        cache, top = fitting._design, fitting._DESIGN_CACHE_VALUES
        size = cache.cache_info().maxsize
        assert size == fitting._DESIGN_CACHE_SIZE and size * 3 * top * 8 <= 2**17
        cache.cache_clear()
        for i in range(size + 4):
            fit_expansion([(m + i, 1.0 + 1.0 / m) for m in range(1, top // 4 + 1)], 1, 3)
        assert cache.cache_info().currsize == size
        ms = tuple(float(m + size + 3) for m in range(1, top // 4 + 1))
        assert sum(a.nbytes for a in cache(ms, 1, 3) if isinstance(a, np.ndarray)) <= 3 * top * 8
        # one more sample x order past the bound is built for the call and not kept
        misses = cache.cache_info().misses
        fit_expansion([(m, 1.0 + 1.0 / m) for m in range(1, top + 2)], 1, 0)
        assert cache.cache_info().misses == misses and cache.cache_info().currsize == size


class TestVanishingReport:
    def test_fs_cp1(self):
        samples = [(m, Fraction(m + 1)) for m in (10, 20, 30, 40)]
        fit = fit_expansion(samples, 1, 3)
        report = vanishing_report(fit, 1, tol=1e-8)
        assert list(report.entries) == [(2, True), (3, True)]

    def test_fs_cp2(self):
        samples = [(m, Fraction((m + 1) * (m + 2))) for m in (2, 3, 4, 5)]
        fit = fit_expansion(samples, 2, 3)
        report = vanishing_report(fit, 2, tol=1e-8)
        assert list(report.entries) == [(3, True)]

    def test_nonvanishing_tail(self):
        fit = fit_expansion(model_samples([1, 2, 3], 1, [4, 5, 6]), 1, 2)
        report = vanishing_report(fit, 1, tol=1e-8)
        assert list(report.entries) == [(2, False)]

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
    def test_requires_positive_tol(self, tol):
        # tol nan once read every entry as not vanishing, and tol inf every
        # entry as vanishing
        fit = fit_expansion([(m, Fraction(m + 1)) for m in (10, 20, 30, 40)], 1, 3)
        with pytest.raises(ValueError, match="tol must be positive"):
            vanishing_report(fit, 1, tol=tol)

    def test_requires_room_above_n(self):
        fit = fit_expansion(model_samples([1, 2], 1, [4, 5]), 1, 1)
        with pytest.raises(ValueError):
            vanishing_report(fit, 1, tol=1e-8)

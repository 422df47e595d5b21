"""Expansion-coefficient fitting and vanishing diagnostics."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnbergman import (
    InsufficientSamplesError,
    fit_expansion,
    load_samples_csv,
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

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
    def test_requires_positive_tol(self, tol):
        # tol nan once read every entry as not vanishing
        fit = fit_expansion([(m, Fraction(m + 1)) for m in (10, 20, 30, 40)], 1, 3)
        with pytest.raises(ValueError, match="tol must be positive"):
            vanishing_report(fit, 1, tol=tol)

    def test_requires_room_above_n(self):
        fit = fit_expansion(model_samples([1, 2], 1, [4, 5]), 1, 1)
        with pytest.raises(ValueError):
            vanishing_report(fit, 1, tol=1e-8)


class TestCsvLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("m,value\n10,11.0\n20,21.0\n30,31.0\n")
        samples = load_samples_csv(path)
        fit = fit_expansion(samples, 1, 2)
        assert fit.coeffs == pytest.approx([1.0, 1.0, 0.0], abs=1e-10)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,value\n10\n")
        with pytest.raises(ValueError):
            load_samples_csv(path)

"""Extraction of expansion coefficients from density samples over m.

Model: v(m) = m^n (a_0 + a_1/m + ... + a_K/m^K).  With exactly K+1
samples this is interpolation in x = 1/m and is solved exactly on
rational inputs; with more samples a column-scaled least squares is
used (the raw Vandermonde in 1/m is badly conditioned over wide m
ranges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import Sequence, Tuple

import numpy as np

from .errors import InsufficientSamplesError


@dataclass(frozen=True)
class FitResult:
    n: int
    K: int
    coeffs: tuple
    residual: float
    condition: float


def _interpolate(xs: list, ys: list) -> list:
    """Coefficients, low degree first, of the polynomial through distinct (xs, ys).

    Newton divided differences, exact over Q, then the Newton form
    d0 + (x - x0)(d1 + (x - x1)(d2 + ...)) expanded by Horner.
    """
    d = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            d[i] = (d[i] - d[i - 1]) / (xs[i] - xs[i - level])
    c = [d[-1]]
    for xk, dk in zip(xs[-2::-1], d[-2::-1]):  # c <- c (x - xk) + dk
        c = [dk - xk * c[0]] + [a - xk * b for a, b in zip(c, c[1:])] + [c[-1]]
    return c


_DESIGN_CACHE_SIZE = 32  # _design keeps the designs of this many (ms, n, K)
_DESIGN_CACHE_VALUES = 128  # and only those of at most this many samples x orders


@lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _design(ms: tuple, n, K: int):
    """The fit data of the float sample points ms, read-only: the design
    m^-k (k = 0..K) over its column scale, that scale, the scaled design's
    condition number, and for n not None the least-squares model's powers
    m^(n-k), all in Python float powers (the exact path passes None: its
    model is in Fractions, where m^n cannot overflow).  fit_expansion caches
    it while len(ms) (K + 1) is at most _DESIGN_CACHE_VALUES: 32 entries of
    at most 3 x 128 floats, 96 KiB."""
    design = np.array([[m ** (-k) for k in range(K + 1)] for m in ms])
    scale = np.max(np.abs(design), axis=0)
    scaled = design / scale
    powers = None if n is None else np.array([[m ** (n - k) for k in range(K + 1)] for m in ms])
    for a in (scaled, scale, powers):
        if a is not None:
            a.flags.writeable = False
    return scaled, scale, float(np.linalg.cond(scaled)), powers


def _shown(m) -> str:
    # a sample past float range has no float to print: six digits of it in decimal
    if isinstance(m, Rational):
        m = (Decimal(int(m.numerator)) / Decimal(int(m.denominator))).normalize()
    return f"{m:.6g}"


def fit_expansion(samples: Sequence[Tuple], n: int, K: int) -> FitResult:
    """Fit a_0..a_K of the large-m model to (m, value) samples.

    Ill conditioning is reported through the condition field, never
    raised.  The residual is the max deviation of the model from the
    inputs: exact on the exact path (K + 1 rational samples), and on the
    least-squares path in floats, each model value summed over k from
    float(c_k) float(m)^(n-k).  A sample m <= 0 (or nan), one whose m or
    m^-K is not a finite float (or on the least-squares path whose m^n is
    not a finite nonzero one), or a value that is nan or infinite raises
    ValueError naming the first such sample; so does a least-squares
    coefficient or residual past float range.  Designs are cached (_design),
    at most 32 of them, each of at most 128 samples x orders.
    """
    if K < 0:
        raise ValueError(f"fit order K = {K} is negative")
    pairs = [(m, v) for m, v in samples]
    ms = [m for m, _ in pairs]
    bad = [m for m in ms if not m > 0]  # the model's 1/m needs m > 0
    if bad:
        raise ValueError(f"sample m must be positive, got {bad[0]}")
    bad = [(m, v) for m, v in pairs if not (isinstance(v, Rational) or math.isfinite(v))]
    if bad:  # a nan or infinite value would make every coefficient nan
        raise ValueError(f"sample value must be finite, got {bad[0][1]} at m = {bad[0][0]}")
    if len(set(ms)) != len(ms):
        raise InsufficientSamplesError("sample m values must be distinct")
    if len(pairs) < K + 1:
        raise InsufficientSamplesError(
            f"need at least {K + 1} samples for order {K}, got {len(pairs)}"
        )
    exact = len(pairs) == K + 1 and all(isinstance(x, Rational) for pair in pairs for x in pair)
    fms = []
    for m in ms:  # the design needs m and m^-K as finite floats, the float model m^n too
        try:
            fm = float(m)
            ok = (math.isfinite(fm) and math.isfinite(fm ** -K)
                  and (exact or 0.0 < fm ** n < math.inf))
        except OverflowError:
            ok = False
        if not ok:
            need = "" if exact else f", and m^{n} finite and nonzero"
            raise ValueError(f"sample m = {_shown(m)} is outside float range: "
                             f"m and m^-{K} must be finite{need}")
        fms.append(fm)
    cached = len(fms) * (K + 1) <= _DESIGN_CACHE_VALUES
    scaled, scale, condition, powers = (_design if cached else _design.__wrapped__)(
        tuple(fms), None if exact else n, K)
    if exact:
        xs = [Fraction(1, 1) / Fraction(m) for m, _ in pairs]
        ys = [Fraction(v) / Fraction(m) ** n for m, v in pairs]
        coeffs = tuple(_interpolate(xs, ys))
        model = [sum(Fraction(c) * Fraction(m) ** (n - k) for k, c in enumerate(coeffs))
                 for m in ms]
        residual = float(max(abs(pred - v) for pred, (_, v) in zip(model, pairs)))
    else:
        # in Python floats, which overflow to inf or nan without a RuntimeWarning;
        # each sample's terms c_k m^(n-k) added one after another from k = 0 up
        values = [float(v) for _, v in pairs]
        rhs = [v / p for v, p in zip(values, powers[:, 0].tolist())]
        sol, *_ = np.linalg.lstsq(scaled, rhs, rcond=None)
        coeffs = tuple(c / d for c, d in zip(sol.tolist(), scale.tolist()))
        gaps = []
        for row, v in zip(powers.tolist(), values):
            model = 0.0
            for p, c in zip(row, coeffs):
                model += p * c
            gaps.append(abs(model - v))
        if not all(map(math.isfinite, gaps)):  # so are the coefficients: m^(n-k) > 0 is finite
            raise ValueError(f"least-squares fit overflows: coefficients {list(coeffs)}")
        residual = max(gaps)
    return FitResult(n, K, coeffs, residual, condition)


@dataclass(frozen=True)
class VanishingReport:
    """(k, vanishes) verdicts for n < k <= K, with the fit residual attached."""

    entries: tuple
    residual: float
    tol: float


def vanishing_report(fit: FitResult, n: int, tol: float) -> VanishingReport:
    if fit.K <= n:
        raise ValueError("fit order must exceed the dimension to test vanishing")
    if not 0 < tol < math.inf:
        raise ValueError(f"vanishing tol must be positive and finite, got {tol}")
    entries = tuple((k, abs(fit.coeffs[k]) < tol) for k in range(n + 1, fit.K + 1))
    return VanishingReport(entries, fit.residual, float(tol))

"""Extraction of expansion coefficients from density samples over m.

Model: v(m) = m^n (a_0 + a_1/m + ... + a_K/m^K).  With exactly K+1
samples this is interpolation in x = 1/m and is solved exactly on
rational inputs; with more samples a column-scaled least squares is
used (the raw Vandermonde in 1/m is badly conditioned over wide m
ranges).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
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


def fit_expansion(samples: Sequence[Tuple], n: int, K: int) -> FitResult:
    """Fit a_0..a_K of the large-m model to (m, value) samples.

    Ill conditioning is reported through the condition field, never
    raised; the residual is the exact max deviation over the inputs.
    A sample m <= 0 (or nan) or a value that is nan or infinite raises
    ValueError naming the first such sample.
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
    design = np.array([[float(m) ** (-k) for k in range(K + 1)] for m in ms])
    scale = np.max(np.abs(design), axis=0)
    condition = float(np.linalg.cond(design / scale))

    if exact:
        xs = [Fraction(1, 1) / Fraction(m) for m, _ in pairs]
        ys = [Fraction(v) / Fraction(m) ** n for m, v in pairs]
        coeffs = tuple(_interpolate(xs, ys))
    else:
        y = np.array([float(v) / float(m) ** n for m, v in pairs])
        sol, *_ = np.linalg.lstsq(design / scale, y, rcond=None)
        coeffs = tuple(float(c) for c in sol / scale)

    model = [
        sum(Fraction(c) * Fraction(m) ** (n - k) if exact else float(c) * float(m) ** (n - k)
            for k, c in enumerate(coeffs))
        for m, _ in pairs
    ]
    residual = float(max(abs(pred - v) for pred, (_, v) in zip(model, pairs)))
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


def load_samples_csv(path) -> list:
    """Read (m, value) rows from a CSV of exactly two columns under the header m,value."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("samples CSV is empty")
        if header != ["m", "value"]:
            hint = " (a density CSV needs --at-s)" if header[:1] == ["s"] else ""
            raise ValueError(f"samples CSV line 1 is {','.join(header)!r}: "
                             f"expected the header m,value{hint}")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"samples CSV line {reader.line_num} has {len(row)} cells: "
                                 f"expected two columns per row, m and value")
            m = Fraction(row[0])
            v = Fraction(row[1]) if "/" in row[1] or "." not in row[1] else float(row[1])
            m = int(m) if m.denominator == 1 else m
            out.append((m, v))
    return out

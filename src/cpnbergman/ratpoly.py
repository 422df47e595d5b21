"""Exact results as univariate polynomials over Q and truncated series in 1/m.

The library computes its exact results in plain integers (see
factor_ratio_series) and wraps them in these two immutable types on
return.  Polynomials store coefficients low degree first; the series
type represents  m^lead * (c0 + c1/m + ...)  with a finite number of
known coefficients.  Each type has one canonical form, so equal results
compare equal.  Neither carries polynomial arithmetic; the series keeps
a product and a reciprocal only for the benchmark (see InverseMSeries).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence


def _frac(x) -> Fraction:
    if type(x) is Fraction:  # immutable: no copy needed
        return x
    if isinstance(x, float):
        raise TypeError("exact arithmetic only: got float %r" % (x,))
    return Fraction(x)


def factor_ratio_series(up: Iterable[int], down: Iterable[int], J: int,
                        start: Sequence[int] = (1,)) -> List[int]:
    """First J + 1 coefficients, in x, of start(x) prod_up (1 + i x) / prod_down (1 + i x).

    In integers: times 1 + i x is a descending pass, over it an ascending one.
    """
    c = list(start[:J + 1]) + [0] * (J + 1 - len(start))
    for d, i in enumerate(up, len(start)):
        for j in range(min(d, J), 0, -1):
            c[j] += i * c[j - 1]
    for i in down:
        for j in range(1, J + 1):
            c[j] -= i * c[j - 1]
    return c


class RationalPolynomial:
    """Polynomial with Fraction coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        if self.is_zero():
            return "RationalPolynomial(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("%s*m" % c)
            else:
                parts.append("%s*m^%d" % (c, k))
        return "RationalPolynomial(%s)" % " + ".join(parts)


class InverseMSeries:
    """Truncated expansion  m^lead * (c[0] + c[1]/m + ... + c[order]/m^order).

    min_power = lead - order is the lowest power of m whose coefficient
    is known.  Canonical form has c[0] != 0, except for the zero series
    (single zero coefficient), whose lead is its min_power.  The
    coefficient of m^p, for min_power <= p <= lead, is coeffs[lead - p].
    """

    __slots__ = ("lead", "coeffs")

    def __init__(self, lead: int, coeffs: Iterable):
        cs = [_frac(c) for c in coeffs]
        if not cs:
            raise ValueError("need at least one coefficient")
        min_power = lead - (len(cs) - 1)
        while len(cs) > 1 and cs[0] == 0:
            cs.pop(0)
            lead -= 1
        if cs == [Fraction(0)]:
            lead = min_power
        self.lead = lead
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, min_power: int = 0) -> "InverseMSeries":
        return cls(min_power, [0])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def min_power(self) -> int:
        return self.lead - self.order

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def leading_coefficients(self, k: int):
        """First k coefficients c0..c_{k-1}; pads with zeros past the order."""
        out = list(self.coeffs[:k])
        out += [Fraction(0)] * (k - len(out))
        return out

    # The product and the reciprocal have no caller in the library.  They
    # stay because the traced benchmark wraps them by name on this class
    # (bench/tracing.py METHODS); they leave together with those entries.

    def __mul__(self, other):
        """Product to the smaller relative order of the two factors."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return InverseMSeries.zero(self.min_power)
            return InverseMSeries(self.lead, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return InverseMSeries.zero(self.min_power + other.lead
                                       if self.is_zero()
                                       else other.min_power + self.lead)
        order = min(self.order, other.order)
        cs = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs):
            if i > order or a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > order:
                    break
                cs[i + j] += a * b
        return InverseMSeries(self.lead + other.lead, cs)

    __rmul__ = __mul__

    def reciprocal(self) -> "InverseMSeries":
        """1 / self to the same relative order; the leading power changes sign."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("reciprocal of a zero series")
        bs = [1 / c0]
        for k in range(1, self.order + 1):
            s = Fraction(0)
            for j in range(1, k + 1):
                s += self.coeffs[j] * bs[k - j]
            bs.append(-s / c0)
        return InverseMSeries(-self.lead, bs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InverseMSeries)
            and self.lead == other.lead
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return "InverseMSeries(lead=%d, [%s])" % (self.lead, body)

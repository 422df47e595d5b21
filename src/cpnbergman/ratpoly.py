"""Exact univariate polynomials over Q and truncated series in 1/m.

Both types are immutable.  Polynomials store coefficients low degree
first; the series type represents  m^lead * (c0 + c1/m + ... ) with a
finite number of known coefficients and tracks how far down in powers
of m its values are trustworthy, so that arithmetic never silently
promotes garbage coefficients to "known".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("exact arithmetic only: got float %r" % (x,))
    return Fraction(x)


class RationalPolynomial:
    """Polynomial with Fraction coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls) -> "RationalPolynomial":
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots: Iterable) -> "RationalPolynomial":
        p = cls([1])
        for r in roots:
            p = p * cls([-_frac(r), 1])
        return p

    @classmethod
    def interpolate(cls, xs: Sequence, ys: Sequence) -> "RationalPolynomial":
        """Unique polynomial of degree < len(xs) through the given points.

        Newton divided differences; exact over Q.  Nodes must be distinct.
        """
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        n = len(xs)
        if n == 0:
            return cls()
        xs = [_frac(x) for x in xs]
        table = [_frac(y) for y in ys]
        # table[i] holds the divided difference f[x_i..x_{i+level}]
        coeffs = [table[0]]
        for level in range(1, n):
            for i in range(n - level):
                dx = xs[i + level] - xs[i]
                if dx == 0:
                    raise ValueError("interpolation nodes must be distinct")
                table[i] = (table[i + 1] - table[i]) / dx
            coeffs.append(table[0])
        # expand Newton form sum_k coeffs[k] * prod_{i<k} (x - x_i)
        result = cls()
        basis = cls([1])
        for k, c in enumerate(coeffs):
            result = result + basis * cls([c])
            basis = basis * cls([-xs[k], 1])
        return result

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

    def __call__(self, x):
        # Horner; exact for Fraction/int inputs, float for float input
        acc = 0 if not isinstance(x, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if isinstance(x, float) else c)
        return acc

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "RationalPolynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - d, 0)
        for k in range(len(rem) - 1, d - 1, -1):
            q = rem[k] / lead
            quot[k - d] = q
            if q:
                for j in range(d + 1):
                    rem[k - d + j] -= q * other.coeffs[j]
        return RationalPolynomial(quot), RationalPolynomial(rem[:d])

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        acc = RationalPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + RationalPolynomial([c])
        return acc

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
    is known.  Addition keeps only powers known on both sides;
    multiplication keeps the smaller relative order.  Canonical form has
    c[0] != 0, except for the zero series (single zero coefficient).
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

    @classmethod
    def from_polynomial(cls, p: RationalPolynomial, order: int) -> "InverseMSeries":
        """Exact embedding: trailing 1/m coefficients of a polynomial are 0."""
        if p.is_zero():
            return cls.zero(-order)
        lead = p.degree
        cs = [p.coefficient(lead - j) for j in range(lead + 1)]
        cs += [Fraction(0)] * max(order - lead, 0)
        return cls(lead, cs[: order + 1])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def min_power(self) -> int:
        return self.lead - self.order

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coefficient_at(self, power: int) -> Fraction:
        """Exact coefficient of m^power; powers above lead are zero."""
        if power > self.lead:
            return Fraction(0)
        if power < self.min_power:
            raise ValueError(
                "coefficient of m^%d not known (series truncated at m^%d)"
                % (power, self.min_power)
            )
        return self.coeffs[self.lead - power]

    def leading_coefficients(self, k: int):
        """First k coefficients c0..c_{k-1}; pads with zeros past the order."""
        out = list(self.coeffs[:k])
        out += [Fraction(0)] * (k - len(out))
        return out

    def __add__(self, other: "InverseMSeries") -> "InverseMSeries":
        mp = max(self.min_power, other.min_power)
        lead = max(self.lead, other.lead)
        if lead < mp:
            # both zero on the window
            return InverseMSeries.zero(mp)
        cs = [
            (self.coefficient_at(p) if p >= self.min_power else Fraction(0))
            + (other.coefficient_at(p) if p >= other.min_power else Fraction(0))
            for p in range(lead, mp - 1, -1)
        ]
        return InverseMSeries(lead, cs)

    def __neg__(self):
        return InverseMSeries(self.lead, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
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

    def normalized(self) -> "InverseMSeries":
        """Divide by the leading coefficient so c0 = 1 (zero stays zero)."""
        if self.is_zero():
            return self
        c0 = self.coeffs[0]
        return InverseMSeries(self.lead, [c / c0 for c in self.coeffs])

    def evaluate(self, m):
        """Evaluate at a concrete m; exact when m is int/Fraction."""
        inv = Fraction(1, 1) / Fraction(m) if not isinstance(m, float) else 1.0 / m
        acc = 0 if not isinstance(m, float) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * inv + (float(c) if isinstance(m, float) else c)
        if isinstance(m, float):
            return acc * m ** self.lead
        return acc * Fraction(m) ** self.lead

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InverseMSeries)
            and self.lead == other.lead
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.lead, self.coeffs))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return "InverseMSeries(lead=%d, [%s])" % (self.lead, body)

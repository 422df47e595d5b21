"""Bergman densities of radial Kahler metrics on the projective line.

Chart coordinate z, s = |z|^2.  Every potential profile here is a
polynomial in p = 1/(1+s).  That family is closed under d/ds (since
d/ds p^k = -k p^{k+1}) and under the chart swap s -> 1/s, so pointwise
evaluation stays stable for arbitrarily large s and the closed-form
Laplacian needs no differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import PositivityError, QuadratureError
from .quadrature import _TINY, integrate_interval


def _horner(coeffs, p):
    # from the top coefficient (a step from 0 gives it exactly); a scalar p in Python
    # floats, an array p in place in one new array, from c_top * p
    if np.ndim(p) == 0:
        p, out = float(p), float(coeffs[-1]) if coeffs else 0.0
        for c in reversed(coeffs[:-1]):
            out = out * p + c
        return float(out)
    p = np.asarray(p, dtype=float)
    if len(coeffs) < 2:
        return np.full_like(p, float(coeffs[-1]) if coeffs else 0.0)
    out = coeffs[-1] * p
    out += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        out *= p
        out += c
    return out


def _int_bilinear(a, b, c=(), d=(), t=0):
    """a b + t c d for integer coefficient lists, low degree first, trimmed."""
    out = [0] * max(len(a) + len(b) - 1, len(c) + len(d) - 1, 0)
    for x, y, w in ((a, b, 1), (c, d, t)):
        for i, f in enumerate(x):
            for j, g in enumerate(y):
                out[i + j] += w * f * g
    while out and not out[-1]:
        out.pop()
    return out


def _dyadic_integers(coeffs):
    """Float coefficients times 2^e, their common dyadic denominator, as ints; and 2^e."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    scale = max((den for _, den in ratios), default=1)
    return [num * (scale // den) for num, den in ratios], scale


def _flip(u):
    """The integer coefficients of u(1 - p) from those of u(p), low degree first."""
    flipped = [0] * len(u)
    for c in reversed(u):  # flipped <- flipped (1 - p) + c
        for i in range(len(u) - 1, 0, -1):
            flipped[i] -= flipped[i - 1]
        flipped[0] += c
    return flipped


def _divided_difference(coeffs, p, q):
    """D(p, q) with P(p) - P(q) = (p - q) D(p, q), so D(q, q) = P'(q).

    P has the given coefficients; p and q broadcast against each other.
    Evaluating D and multiplying by p - q keeps the rounding error of
    P(p) - P(q) proportional to the difference itself.
    """
    shape = np.broadcast(p, q).shape
    if len(coeffs) < 2:
        return np.zeros(shape)
    # Horner's first two steps from d = 0 leave d = c_top exactly
    d = np.full(shape, float(coeffs[-1]))
    a = coeffs[-1] * q + coeffs[-2]
    for c in reversed(coeffs[:-2]):
        d *= p
        d += a
        a = a * q + c
    return d


def _extremum_candidates(coeffs) -> np.ndarray:
    """Points of [0, 1] among which a polynomial in p attains its extrema.

    0, 1, and the real parts of the derivative's roots, clipped to [0, 1];
    real parts of complex roots are kept so that a double critical point
    split by rounding into a conjugate pair is not lost.  A constant
    derivative has no root, and a linear one d0 + d1 p has -d0 / d1: what
    np.roots returns for them, bit for bit.  A quadratic one has q / d2 and
    d0 / q, q = -(d1 + sign(d1) sqrt(disc)) / 2, or -d1 / (2 d2) twice for a
    complex pair: within rounding of np.roots, without its LAPACK call.
    np.roots gives them where d1^2 or 4 d0 d2 leaves the normal range, and
    for higher degrees, whose top coefficients below eps times the largest
    are dropped first: on [0, 1] they move the derivative by less than its
    rounding, and np.roots would divide by them.
    """
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    roots = [] if len(deriv) < 2 else None
    if len(deriv) == 2 and deriv[1] != 0.0:
        roots = [-deriv[0] / deriv[1] if deriv[0] != 0.0 else 0.0]
    elif len(deriv) == 3 and deriv[2] != 0.0:
        d0, d1, d2 = deriv
        square, product = d1 * d1, 4.0 * d0 * d2
        if _TINY <= max(square, abs(product)) < math.inf:
            disc = square - product
            q = -0.5 * (d1 + math.copysign(math.sqrt(max(disc, 0.0)), d1))
            roots = [q / d2, d0 / q] if disc >= 0.0 else [-d1 / (2.0 * d2)] * 2
    if roots is None:
        if len(deriv) > 3:
            small = np.finfo(float).eps * max(map(abs, deriv))
            while abs(deriv[-1]) < small:
                deriv.pop()
        roots = np.roots(deriv[::-1]).real  # np.roots takes the highest degree first
    return np.concatenate(([0.0, 1.0], np.clip(roots, 0.0, 1.0)))


class RadialProfile:
    """Real radial function u(s) = sum_k c_k / (1+s)^k, with finite c_k."""

    def __init__(self, coeffs: Sequence[float] = ()):
        c = [float(v) for v in coeffs]
        if not all(map(math.isfinite, c)):
            raise ValueError(f"profile coefficients must be finite, got {c}")
        while c and c[-1] == 0.0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls) -> "RadialProfile":
        return cls(())

    @classmethod
    def eigenfunction_bump(cls, eps: float) -> "RadialProfile":
        # eps * (1-s)/(1+s): the zonal first eigenfunction, scaled
        return cls((-eps, 2.0 * eps))

    @classmethod
    def rational_bump(cls, eps: float) -> "RadialProfile":
        # eps * s/(1+s)^2
        return cls((0.0, eps, -eps))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def value_p(self, p):
        return _horner(self.coeffs, p)

    def value(self, s):
        return self.value_p(1.0 / (1.0 + np.asarray(s, dtype=float)))

    def fs_laplacian_coeffs(self):
        """p-coefficients of the Fubini-Study Laplacian of the profile.

        Delta p^k = k(ks-1)(1+s)^{-k} = k^2 p^{k-1} - k(k+1) p^k.
        """
        deg = len(self.coeffs) - 1
        q = [0.0] * (deg + 1)
        for k in range(1, deg + 1):
            c = self.coeffs[k]
            q[k - 1] += c * k * k
            q[k] -= c * k * (k + 1)
        return tuple(q)

    def inverted_chart(self) -> "RadialProfile":
        """The same function read in the chart s' = 1/s: p(1/s') = 1 - p(s'), so
        u(1 - p), flipped exactly in integers (_flip) and each coefficient rounded once."""
        u, scale = _dyadic_integers(self.coeffs)
        try:
            return RadialProfile([c / scale for c in _flip(u)])
        except OverflowError as err:  # int / int past float range
            raise ValueError(f"inverted chart coefficients overflow: {list(self.coeffs)}") from err

    def __repr__(self):
        return f"RadialProfile({list(self.coeffs)!r})"


class RadialMetric:
    """Kahler form with local potential psi = log(1+s) + u(s), unit volume.

    The density in the chart is w = psi' + s psi'' = p^2 * v(p) with
    v a polynomial; positivity of v on [0, 1] is the metric condition.
    It is checked at construction where v can attain its minimum: the
    endpoints and the critical points of v.
    """

    def __init__(self, profile: RadialProfile):
        self.profile = profile
        # w = p^2 (1 + Delta u), Delta the Fubini-Study Laplacian
        v = list(profile.fs_laplacian_coeffs()) or [0.0]
        v[0] += 1.0
        if not all(map(math.isfinite, v)):
            raise ValueError(f"metric density coefficients overflow: {v}")
        self._v_coeffs = tuple(v)
        points = _extremum_candidates(self._v_coeffs).tolist()
        vals = [_horner(self._v_coeffs, p) for p in points]
        self._v_range = (min(vals), max(vals))
        i = vals.index(self._v_range[0])
        if vals[i] <= 0.0:
            s = 1.0 / points[i] - 1.0 if points[i] > 0 else math.inf
            raise PositivityError(
                f"metric density is not positive (min {vals[i]:.3e} near s = {s:.4g})"
            )

    @classmethod
    def fubini_study(cls) -> "RadialMetric":
        return cls(RadialProfile.zero())

    @property
    def is_fubini_study(self) -> bool:
        return self.profile.is_zero

    def volume(self) -> float:
        # int_0^inf w ds = int_0^1 v(p) dp, exactly
        return float(sum(c / (k + 1) for k, c in enumerate(self._v_coeffs)))

    def inverted_chart(self) -> "RadialMetric":
        return RadialMetric(self.profile.inverted_chart())

    @property
    def is_chart_symmetric(self) -> bool:
        """Whether u(p) = u(1-p) exactly: the chart swap s -> 1/s is then an
        isometry, and the section norms satisfy N_j = N_{m-j}.  p -> 1-p
        turns the top coefficient c_d into (-1)^d c_d, so an odd degree is
        asymmetric.  An even one compares u, in the integers of its common
        dyadic denominator, with their exact flip (_flip)."""
        if len(self.profile.coeffs) % 2 == 0:
            return self.profile.is_zero  # Fubini-Study, u = 0, has no coefficients
        u, _ = _dyadic_integers(self.profile.coeffs)
        return _flip(u) == u

    @property
    def _curvature_numerators(self):
        """R and L of this metric's v (_curvature_numerators_of), computed once
        for every metric with the same v."""
        return _curvature_numerators_of(self._v_coeffs)


_CURVATURE_CACHE_SIZE = 64  # _curvature_numerators_of keeps this many v


@lru_cache(maxsize=_CURVATURE_CACHE_SIZE)
def _curvature_numerators_of(v_coeffs: tuple):
    """p-coefficients of R and L: rho = R / v^3, Delta rho = L / v^6.

    With E f = d/dp (p(1-p) f_p), (s f')' = p^2 E f and w = p^2 v give
    rho = -E(log w) / v and Delta rho = E(rho) / v.  So with
    N = 2(1-p) v + p(1-p) v', R = N v' - N' v, Q = p(1-p)(R' v - 3 R v')
    and L = Q' v - 4 Q v'.  Exact in integer coefficient lists: v times
    2^e, the common denominator of its dyadic coefficients; R and L, of
    degree 2 and 4 in v, are scaled back by 2^(2e) and 2^(4e), each
    coefficient in one correctly rounded division.  Built once per v: equal
    float coefficients (0.0 and -0.0 alike) give equal integers.
    """
    v, scale = _dyadic_integers(v_coeffs)

    def der(f):
        return [k * c for k, c in enumerate(f)][1:]

    n = _int_bilinear([2, -2], v, [0, 1, -1], der(v), 1)  # [0, 1, -1] is p(1-p)
    r = _int_bilinear(n, der(v), der(n), v, -1)
    q = _int_bilinear([0, 1, -1], _int_bilinear(der(r), v, r, der(v), -3))
    lap = _int_bilinear(der(q), v, q, der(v), -4)
    return tuple(c / scale**2 for c in r), tuple(c / scale**4 for c in lap)


_BANDED_FROM_M = 376  # section-norm passes from this m on are banded (section_norms)
_GEOMETRY_CACHE_M = 1024  # _row_geometry caches the columns of every m below this
# The stated section-norm domain, one corner per row: family, tol, largest m, the metrics
# (CLI --metric with --eps or --coeffs) that tests/test_density.py runs there, and oracle.
_FULL = ("eigenfunction-bump 0.1 0.2 0.3 0.4 0.45", "rational-bump 0.2 0.24 0.5 1",
         "phi1-poly 0,0.05,-0.02")
_DOMAIN = (("Fubini-Study", 1e-13, 20000, ("fs",), "log Beta"),
           ("Fubini-Study", 1e-14, 20000, ("fs",), "log Beta"),
           ("perturbed metrics", 1e-12, 20000, _FULL, "Kummer, a3 band"),
           ("perturbed metrics", 1e-13, 5000, _FULL, "Kummer, a3 band"),
           ("perturbed metrics", 1e-13, 20000,
            ("eigenfunction-bump 0.1", "rational-bump 0.2 0.24", _FULL[2]), "Kummer, a3 band"),
           ("perturbed metrics", 1e-14, 1000, _FULL, "Kummer, a3 band"),
           ("perturbed metrics", 1e-14, 2000,
            ("eigenfunction-bump 0.1", "rational-bump 0.2 0.24 0.5", _FULL[2]), "Kummer, a3 band"))


def _domain(family: str) -> str:
    """The rows of _DOMAIN for family, as a section-norm QuadratureError states them."""
    return "; ".join(f"m <= {m} at tol {tol:g} ({', '.join(metrics)})"
                     for name, tol, m, metrics, _ in _DOMAIN if name == family)


@lru_cache(maxsize=16)
def _row_geometry(m: int):
    """The columns of _Rows that depend on m alone, read-only: j, k, x*, p*,
    -1/x*, 1/p* and the Beta peak j log x* + k log p*, each (m+1, 1).  _Rows
    caches them for m < _GEOMETRY_CACHE_M only: 16 entries of at most 7 x 1024
    floats, 0.92 MB.  Past that they are 1 to 2% of a pass."""
    j = np.arange(m + 1, dtype=float)[:, None]
    xs = np.round(j / max(m, 1) * 2.0**53) / 2.0**53
    k, ps = m - j, 1.0 - xs
    out = np.stack([j, k, xs, ps, np.divide(-1.0, xs, out=np.zeros_like(xs), where=j > 0),
                    np.divide(1.0, ps, out=np.zeros_like(xs), where=k > 0),
                    j * np.log(np.where(j > 0, xs, 1.0)) + k * np.log(np.where(k > 0, ps, 1.0))])
    out.flags.writeable = False
    return out


class _Rows:
    """The section-norm integrand rows of one metric, set up once per pass: all
    m+1 of them, or with half set rows 0 .. m//2 only.

    In x = 1 - p, row j (k = m - j) is x^j (1-x)^k e^{-m u(p)} v(p).  Over
    x*^j p*^k e^{-m u(p*)}, at the Beta mode x* = j/m and p* = 1 - x*, it
    is e^{g_j(x)} v(p), with the row exponent

        g_j(x) = j log(x/x*) + k log((1-x)/p*) - m (u(p) - u(p*)),

    the one exponent that both the quadrature integrand (values) and the
    support search (supports) evaluate.  x* is rounded to a multiple of
    2^-53, so p* = 1 - x* holds exactly: k log1p((x* - x) / p*) is then
    k log((1 - x) / p*), where a rounded x* + p* would add
    k (x* + p* - 1), about m 2^-54, to every exponent.  j, k, x*, p*,
    -1/x*, 1/p* (zeroed where the matching power vanishes) and the peak
    j log x* + k log p*, all from _row_geometry, and v(p*) and its log are
    (rows, 1) columns.
    """

    def __init__(self, metric: RadialMetric, m: int, half: bool = False):
        self.m, self.u, self.v = m, metric.profile.coeffs, metric._v_coeffs
        self.v_min, self.v_max = metric._v_range
        geometry = (_row_geometry if m < _GEOMETRY_CACHE_M else _row_geometry.__wrapped__)(m)
        if half:
            geometry = geometry[:, :m // 2 + 1]
        self.j, self.k, self.xs, self.ps, self.neg_inv_x, self.inv_p, self.peak = geometry
        self.v_star = _horner(self.v, self.ps)
        self.log_v_star = np.log(self.v_star)

    def exponent(self, x, rows=slice(None)):
        """g_j(x) for the rows in the slice rows, at nodes x or a (rows, c) array x.

        log1p of the distance from x* and a divided difference for u keep
        the rounding error proportional to that distance rather than to m.
        Both log1p terms go through one call on a stacked (2, rows, nodes)
        array, whose first half holds the distance x* - x until the u term
        has used it, and the result is that first half: at most three
        rows x nodes arrays are alive at once.  Each element is
        k L1 - m d dp + j L2 in that order, as from separate calls.
        """
        xs = self.xs[rows]
        logs = np.empty((2, len(xs), np.shape(x)[-1]))
        dp = np.subtract(xs, x, out=logs[0])
        if self.u:
            d = _divided_difference(self.u, 1.0 - x, self.ps[rows])
            d *= dp
            d *= self.m
        np.multiply(dp, self.neg_inv_x[rows], out=logs[1])
        dp *= self.inv_p[rows]
        np.log1p(logs, out=logs)
        g = logs[0]
        g *= self.k[rows]
        if self.u:
            g -= d
        logs[1] *= self.j[rows]
        g += logs[1]
        return g

    def values(self, x, offset, rows=slice(None)):
        """The rows at nodes x, e^{g_j(x) + log v(1 - x) - offset_j}, in place.

        offset None (offsets all 0) subtracts nothing, and a constant v, which is
        1 (the volume is 1: Fubini-Study, a constant u), adds nothing."""
        out = self.exponent(x, rows)
        if len(self.v) > 1:
            out += np.log(_horner(self.v, 1.0 - x))
        if offset is not None:
            out -= offset[rows]
        return np.exp(out, out=out)

    def cut(self, tol):
        """The row cut of a banded pass to relative tolerance tol (section_norms),
        1e-3 tol v_min / ((m + 1) v_max); at least tiny, where a log of it is finite."""
        return max(1e-3 * tol * self.v_min / ((self.m + 1) * self.v_max), _TINY)

    def supports(self, cut):
        """Certified supports (lower_j, upper_j) in x of the rows, cut at cut.

        In t = log s, g_j is j t - m psi plus a constant, strictly concave
        because d/dt (s psi') = s w > 0, so each tangent line bounds it from
        above: from any t0 where g_j' = j - m mu(x0) > 0 (mu(x) = s psi' =
        x (1 - p u'(p)), the moment map), g_j <= C_j for all
        t <= t0 - (g_j(t0) - C_j) / g_j'(t0), and likewise on the right.  As
        v(p) <= v_max, the row is then below cut times its own scale on
        [0, lower_j] and on [upper_j, 1], the scale being the larger of its
        values e^{g_j} v(p) at x* (v(p*)) and at an estimate c of its mode,
        so at most its maximum.  A pass cuts at cut(tol).

        The first tangent points lie on either side of the mode mu(x) = j/m:
        mu' = v >= v_min bounds the distance from the Newton estimate c by
        |mu(c) - j/m| / v_min, and past that a Gaussian plus exponential
        width at the cut level puts them near the crossings.  Each further
        Newton step starts from a certified end and moves it towards its
        crossing.  A row without a usable tangent point keeps the whole of
        [0, 1] on that side.  The ends are made monotone in j (cumulative min
        and max), so the rows kept on any stretch of x form one contiguous
        window.
        """
        m, v, j, xs, v_star = self.m, self.v, self.j, self.xs, self.v_star
        du = [i * c for i, c in enumerate(self.u)][1:]

        def mu(x):
            return x - x * (1.0 - x) * _horner(du, 1.0 - x) if du else x

        c, spread, log_scale = xs, 0.0, self.log_v_star
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if du:
                for _ in range(3):
                    c = np.clip(c - (mu(c) - xs) / _horner(v, 1.0 - c), 0.0, 1.0)
                spread = np.abs(mu(c) - xs) / self.v_min
                log_scale = np.maximum(log_scale, self.exponent(c) + np.log(_horner(v, 1.0 - c)))
            level = math.log(cut / self.v_max) + log_scale
            width = math.log(self.v_max / cut) / (m * v_star)
            side = np.array([-1.0, 1.0])
            x = c + side * (spread + np.sqrt(2.0 * width * c * (1.0 - c)) + width)
            ends = np.array([0.0, 1.0]) + np.zeros_like(x)
            for _ in range(2):
                slope = j - m * mu(x)
                t = np.log(x) - np.log1p(-x) - (self.exponent(x) - level) / slope
                x = 1.0 / (1.0 + np.exp(-t))
                ok = (side * slope < 0.0) & np.isfinite(t)
                ends = np.where(ok, x, ends)
                x = ends
        lower, upper = ends[:, 0], ends[:, 1]
        return np.minimum.accumulate(lower[::-1])[::-1], np.maximum.accumulate(upper)


def section_norms(metric: RadialMetric, m: int, tol: float = 1e-12) -> np.ndarray:
    """Logs of the squared L^2 norms of the monomial sections 1, z, ..., z^m.

    N_j = int_0^inf s^j h(s)^m w(s) ds.  In x = s/(1+s) = 1 - p the
    integrand is x^j (1-x)^(m-j) e^{-m u(p)} v(p): a Beta integrand times
    a factor that does not depend on j.  For Fubini-Study (u = 0, v = 1)
    N_j is the Beta value j! (m-j)! / (m+1)!.

    The rows are set up once per pass (_Rows), each centred at its Beta
    mode x* = j/m, where its exponent g_j is defined, and shifted by
    log v(p*) plus a second-order estimate of how far the smooth factor
    lifts the peak.  That shift aims at a maximum near 1 for every row;
    it misses strong bumps, whose shifted totals spread further from 1 as
    m grows, until past the stated domain the rows overflow (a shift by
    each row's Laplace mode is ROADMAP item 2).  One vector-valued
    adaptive pass integrates the rows to relative tolerance tol each, and
    the constants are added back in log space, where nothing underflows
    however large m is.  Those log-space constants are up to about m in
    size, so the returned log N_j also carry their rounding, about m eps
    absolute beyond tol.

    Every row peaks with a width of about 1/(2 sqrt(m)) in theta, where
    x = sin^2(theta), so the pass starts from panels uniform in theta
    (_graded_edges), each about 4.8 widths, where one Gauss-Kronrod rule
    meets the default tol.  A dense pass states its row count, so that
    its initial panels share as few integrand calls as the quadrature's
    budget allows.

    From m = 376 on (_BANDED_FROM_M, the first m an earlier support-width
    rule banded) the pass is banded: a rule evaluates only the rows whose
    certified support (_Rows.supports) reaches its nodes.  A dropped rule
    value is below the panel width times the cut of its row's own scale,
    so the cut is relative to each row: an absolute one would drop rows
    whose shifted totals are tiny.  Over [0, 1] the dropped values of row
    j, f_j, add up to at most cut max_x f_j / T_j of its total T_j.  The
    cut, _Rows.cut(tol), is 1e-3 tol v_min / ((m + 1) v_max), so that this
    share is at most 1e-3 tol wherever max_x f_j <= (m + 1) (v_max /
    v_min) T_j.  For Fubini-Study (v = 1) f_j / T_j is a Beta density,
    (m + 1) times a binomial pmf, which is at most 1.  For a perturbed
    metric the bound is not proved: tests/test_density.py checks it on
    the first and last 50 rows, and every (m // 200)-th between, of each
    metric at each _DOMAIN corner.  Past the bound the share grows only
    in proportion.

    A chart-symmetric metric (RadialMetric.is_chart_symmetric: u(p) =
    u(1-p) exactly, so that s -> 1/s is an isometry; Fubini-Study and the
    rational bumps) has N_j = N_{m-j}.  Its pass integrates rows
    0 .. m//2 only, and a banded one stops at the first initial edge past
    row m//2's upper support, beyond which the cut drops every kept row.
    Rows past m/2 are then read off rows that peak at x <= 1/2, where the
    nodes hold x to relative rounding, not from nodes near x = 1, which
    hold 1 - x only to absolute rounding, about m eps relative in x^m.
    Any other metric gets the full pass.

    An m that is not a nonnegative integer (an int or a numpy integer, not
    a bool), a tol that is not positive and finite, or a row shift past
    float range (m times a large constant in u) raises ValueError.  A pass
    that cannot certify tol, or whose shifted rows overflow, raises
    QuadratureError naming m, tol, the rows a half pass covered and the
    rows of _DOMAIN for the metric's family.
    """
    return _section_norms(metric, m, tol, ())[0]


@lru_cache(maxsize=64)
def _graded_edges(m: int):
    """The initial partition of a section-norm pass: floor(sqrt(m) / 1.5) panels,
    and at least two, uniform in theta, x = sin^2(theta).  Off the dyadic grid a
    rounded midpoint moves a panel's rule by an ulp, about m ulps of an end row's total."""
    theta = np.linspace(0.0, 0.5 * np.pi, max(math.isqrt(4 * m) // 3, 2) + 1)
    return tuple((np.round(np.sin(theta) ** 2 * 2.0**24) / 2.0**24).tolist())


def _integer_m(m) -> int:
    """m as an int; ValueError naming m unless it is an int or a numpy integer (not a bool)."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ValueError(f"m = {m!r} is not an integer")
    return int(m)


def _section_norms(metric: RadialMetric, m: int, tol: float, at):
    """section_norms, and each integrand row over its integral at the points p in at.

    The second is an (m+1, len(at)) array, (m+1, 0) for section_norms' at = ():
    row j at x = 1 - p, or for a chart-symmetric metric, whose pass integrates
    rows 0 .. m//2 only, row j > m//2 as row m - j at x = p, p itself rather
    than 1 - (1 - p).  Each term is the shifted row there over its shifted
    total, one division, so an ulp in a total moves its term by about an
    ulp.  A dense pass evaluates the rows at those points (_Rows.values) in
    its first integrand call and keeps those columns, in one call fewer
    than after the pass and bit for bit the same; a banded pass evaluates
    them after the pass.
    """
    m = _integer_m(m)
    if m < 0 or not 0 < tol < math.inf:
        raise ValueError(f"section norms need m >= 0 and tol > 0 finite, got m = {m}, tol = {tol}")
    half = metric.is_chart_symmetric
    rows = _Rows(metric, m, half)
    kept = len(rows.j)
    xs, ps, v_star, log_v_star = rows.xs, rows.ps, rows.v_star, rows.log_v_star
    # d/dx of log(e^{-m u} v) at x*; the Beta part curves by m / (x*(1-x*))
    slope = m * _divided_difference(rows.u, ps, ps) - _divided_difference(rows.v, ps, ps) / v_star
    lift = slope * slope * xs * ps / (2 * max(m, 1))
    offset = log_v_star + lift
    offset = offset if offset.any() else None  # None: every row's offset is 0, as for Fubini-Study
    at = np.asarray(at, dtype=float)
    points = np.concatenate([1.0 - at, at]) if half else 1.0 - at

    held = []  # the rows at the points, from the first call of a dense pass
    edges = _graded_edges(m)
    banded = m >= _BANDED_FROM_M
    if banded:
        lower, upper = rows.supports(rows.cut(tol))
        # past the last row's upper support every row is below the cut: stop at the
        # first edge there (1 unless the pass keeps only rows 0 .. m//2)
        edges = edges[:int(np.searchsorted(edges, upper[-1])) + 1]

        def integrand(x):
            # the rows whose support reaches a rule's nodes (in increasing order)
            j0 = int(np.searchsorted(upper, x[0], "right"))
            j1 = int(np.searchsorted(lower, x[-1], "left"))
            return kept, j0, rows.values(x, offset, slice(j0, j1))
    else:
        def integrand(x):
            if held:
                return rows.values(x, offset)
            out = rows.values(np.concatenate([x, points]), offset)
            held.append(out[:, len(x):])
            return out[:, :len(x)]

    try:
        # divide: log1p(-1), a power of x or 1-x at a pole among the density's points
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            shift = log_v_star - m * metric.profile.value_p(ps) + lift
            if not np.isfinite(shift).all():
                raise ValueError(f"section norms at m = {m} leave float range: the rows' "
                                 "log shifts log v - m u + lift are not all finite")
            total = integrate_interval(integrand, 0.0, edges[-1], rtol=tol, edges=edges,
                                       rows=None if banded else kept)
    except QuadratureError as err:
        family = "Fubini-Study" if metric.is_fubini_study else "perturbed metrics"
        cover = f", a half pass over rows 0..{kept - 1}" if half else ""
        raise QuadratureError(f"{err} (section norms at m = {m}, tol = {tol:g}{cover}; the "
                              f"stated domain for {family} is {_domain(family)})") from err
    if np.any(total <= 0.0):
        raise PositivityError("section norm came out nonpositive")
    logn = (rows.peak + shift + np.log(total)[:, None]).ravel()
    with np.errstate(divide="ignore"):
        terms = (held[0] if held else rows.values(points, offset)) / total[:, None]
    if half:  # N_j = N_{m-j}: rows kept .. m are rows m - kept .. 0
        mirrored = m + 1 - kept
        logn = np.concatenate([logn, logn[:mirrored][::-1]])
        terms = np.concatenate([terms[:, :len(at)], terms[:mirrored, len(at):][::-1]])
    return logn, terms


@dataclass
class DensityResult:
    """Density values on the grid, with the log section norms behind them."""

    m: int
    grid: np.ndarray
    values: np.ndarray
    log_norms: np.ndarray

    @property
    def norms(self) -> np.ndarray:
        """Linear section norms, out of float range past m of about 1000; never raises."""
        with np.errstate(under="ignore", over="ignore"):
            return np.exp(self.log_norms)


def bergman_density(metric: RadialMetric, m: int, grid, tol: float = 1e-12) -> DensityResult:
    """Density of states sum_j |z^j|^2_{h^m} / N_j on a grid of s values in [0, inf].

    In x = s/(1+s) = 1 - p, w ds = v(p) dx and s^j h^m = x^j (1-x)^(m-j) e^{-m u(p)},
    so Pi_m(s) = (1/v(p)) sum_j f_j(x) / T_j: each section-norm integrand row,
    centred and shifted as section_norms integrates it, over its integral (for a
    chart-symmetric metric, f_j(x) / T_j = f_{m-j}(p) / T_{m-j} past j = m/2).  No
    exponent grows with m or s, and s = inf is x = 1; a negative s or nan
    raises ValueError.  values has the grid's shape, whatever its ndim.  tol
    is the relative tolerance of each section norm; m and tol are checked as
    in section_norms.
    """
    grid = np.asarray(grid, dtype=float)
    if not (grid >= 0.0).all():
        raise ValueError(f"density grid {grid[~(grid >= 0.0)]} is outside [0, inf]")
    p = np.ravel(1.0 / (1.0 + grid))
    logn, terms = _section_norms(metric, m, tol, p)
    values = np.sum(terms, axis=0) / _horner(metric._v_coeffs, p)
    return DensityResult(int(m), grid, values.reshape(grid.shape), logn)


@dataclass
class CurvatureReport:
    s: float
    rho: float
    lap_rho: float
    a1: float
    a2: float


def scalar_curvature(metric: RadialMetric, s: float) -> CurvatureReport:
    """Scalar curvature, its Laplacian, and the induced expansion data.

    rho = R(p) / v^3 and Delta rho = L(p) / v^6 at p = 1/(1+s), with R and
    L exact per metric (RadialMetric._curvature_numerators).  Horner on
    p in [0, 1] loses no accuracy as s grows: the domain is every s in
    [0, inf], the pole (p = 0) included; any other s (negative, nan)
    raises ValueError.  a1 = rho/2 and a2 = (Delta rho)/3; the round
    metric gives exactly (2, 0, 1, 0).
    """
    s = float(s)
    if not 0.0 <= s <= math.inf:
        raise ValueError(f"s = {s} is outside [0, inf]")
    r, lap = metric._curvature_numerators
    p = 1.0 / (1.0 + s)
    v3 = _horner(metric._v_coeffs, p) ** 3
    rho, lap_rho = _horner(r, p) / v3, _horner(lap, p) / (v3 * v3)
    return CurvatureReport(s, rho, lap_rho, rho / 2.0, lap_rho / 3.0)


@dataclass
class FirstVariationResult:
    """The closed form of dPi_m/dt at s and the density's linearisation there.

    fd_value holds the linearised value, not a finite difference (the
    name is kept for existing readers); rel_diff is their relative gap.
    """

    m: int
    s: float
    formula_value: float
    fd_value: float
    rel_diff: float


def _variation_formula(coeffs, m: int, s: float) -> float:
    """first_variation's closed form for the p-coefficients coeffs, rounded once.

    s = a/b and the c_k are integers over powers of two, P = b/(a+b), and r_i =
    (m+1)...(m+i) gives 1/((m+k+1) C(m+k, l)) = l! r_{k-l} / r_{k+1}: the sum is one
    integer over scale r_n (a+b)^n, n = len(coeffs), rounded by int / int as by float(Fraction).
    """
    a, b = s.as_integer_ratio()
    nums, scale = _dyadic_integers(coeffs)
    top = len(nums)
    r = [math.perm(m + i, i) for i in range(top + 1)]
    moments = [(a + b) ** (top - k) * (r[top] // r[k + 1])
               * sum(math.comb(k, l) ** 2 * math.factorial(l) * r[k - l] * a**l * b ** (k - l)
                     for l in range(k + 1))
               for k in range(top)]
    integral = sum(num * ((m + k * (k + 1)) * moments[k]
                          - m * b**k * (a + b) ** (top - k) * (r[top] // r[1])
                          - (k * k * moments[k - 1] if k else 0))
                   for k, num in enumerate(nums))
    return -((m + 1) ** 2) * integral / (scale * r[top] * (a + b) ** top)


def first_variation(metric: RadialMetric, phi: RadialProfile, m: int,
                    s: float = 0.0) -> FirstVariationResult:
    """Derivative of the density at a point along the potential direction phi.

    The closed form (Fubini-Study background only) is

        sigma'(0) = -(m+1)^2 * (1/pi) int (m phi~ - Delta phi~) (1+|z|^2)^{-(m+2)} dA

    with phi~ = phi - phi(base).  A base point off the origin is pulled
    back to 0 by the Mobius map G(z) = (z + w)/(1 - w z), w = sqrt(s),
    which preserves the round metric and commutes with its Laplacian.
    p o G = |1 - w z|^2 / ((1+s)(1+|z|^2)), so by Parseval and a Beta
    integral the p^k term is (1+s)^{-k} sum_l C(k,l)^2 s^l / ((m+k+1) C(m+k,l)):
    the formula is one exact integer sum over the float inputs, rounded once.

    The check value differentiates Pi_m = sum_j tau_j along u -> u - t phi
    under the integral sign at t = 0:

        dPi_m/dt(s) = sum_j tau_j(s) (m phi(p_s) - E_j[m phi - Delta phi]),

    tau_j the terms from one section-norm pass at tol 1e-12 (v = 1 here),
    E_j[p^k] = prod_{i=1..k} (m-j+i)/(m+1+i) row j's Beta moments.  The
    relative gap is floored at tol S, S = sum_j tau_j (|m phi(p_s)| +
    sum_k |m c_k - d_k| E_j[p^k]) (Delta phi = sum_k d_k p^k), the size of
    the terms before they cancel, so an exact 0 does not divide rounding
    by rounding.  At m = 0 the one row's mean is its exact sum, 0, as
    Pi_0 = 1.  A formula, term or gap past float range raises ValueError.
    """
    if not metric.is_fubini_study:
        raise ValueError("closed-form first variation requires the Fubini-Study background")
    m = _integer_m(m)
    if m < 0:
        raise ValueError(f"m = {m} is negative")
    s = float(s)
    if not 0.0 <= s < math.inf:
        raise ValueError(f"base point s = {s} is outside [0, inf)")

    try:
        formula = _variation_formula(phi.coeffs, m, s)
    except OverflowError:  # its int / int past float range, raised below
        formula = math.inf
    tol, p = 1e-12, 1.0 / (1.0 + s)
    tau = _section_norms(metric, m, tol, [p])[1][:, 0]
    j = np.arange(m + 1.0)
    moment, mean, size = np.ones(m + 1), np.zeros(m + 1), np.zeros(m + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # terms past float range, raised below
        for k, (c, d) in enumerate(zip(phi.coeffs, phi.fs_laplacian_coeffs())):
            if k:
                moment *= (m - j + k) / (m + 1 + k)
            mean += (m * c - d) * moment
            size += abs(m * c - d) * moment
        if m == 0:
            # the one row's moments are 1/(k+1), so its mean is -sum_k d_k / (k+1); summed
            # exactly over d_k = (k+1)^2 c_{k+1} - k (k+1) c_k, it telescopes to 0
            mean[0] = 0.0
        m_phi = m * phi.value_p(p)
        lin, floor = float(tau @ (m_phi - mean)), tol * float(tau @ (abs(m_phi) + size))
    den = max(abs(formula), abs(lin), floor)
    rel = abs(formula - lin) / den if den > 0 else 0.0
    if not all(map(math.isfinite, (formula, lin, floor, rel))):
        raise ValueError(f"first variation overflows (phi = {list(phi.coeffs)}, m = {m})")
    return FirstVariationResult(m, s, formula, lin, rel)

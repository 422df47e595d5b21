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
from typing import Sequence

import numpy as np

from .errors import PositivityError, StepUnderflowError
from .jets import Jet
from .quadrature import cp1_integral, integrate_interval


def _horner(coeffs, p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    for c in reversed(coeffs):
        out = out * p + c
    if out.ndim == 0:
        return float(out)
    return out


def _divided_difference(coeffs, p, q):
    """D(p, q) with P(p) - P(q) = (p - q) D(p, q), so D(q, q) = P'(q).

    P has the given coefficients; p and q broadcast against each other.
    Evaluating D and multiplying by p - q keeps the rounding error of
    P(p) - P(q) proportional to the difference itself.
    """
    d = np.zeros(np.broadcast_shapes(np.shape(p), np.shape(q)))
    a = 0.0
    for c in reversed(coeffs):
        d *= p
        d += a
        a = a * q + c
    return d


def _extremum_candidates(coeffs) -> np.ndarray:
    """Points of [0, 1] among which a polynomial in p attains its extrema.

    0, 1, and the real parts of the derivative's roots, clipped to [0, 1];
    real parts of complex roots are kept so that a double critical point
    split by rounding into a conjugate pair is not lost.
    """
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    roots = np.roots(deriv[::-1])  # np.roots takes the highest degree first
    return np.concatenate(([0.0, 1.0], np.clip(roots.real, 0.0, 1.0)))


class RadialProfile:
    """Real radial function u(s) = sum_k c_k / (1+s)^k."""

    def __init__(self, coeffs: Sequence[float] = ()):
        c = [float(v) for v in coeffs]
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

    def fs_laplacian(self, s):
        return _horner(self.fs_laplacian_coeffs(), 1.0 / (1.0 + np.asarray(s, dtype=float)))

    def inverted_chart(self) -> "RadialProfile":
        """The same function read in the chart s' = 1/s.

        p(1/s') = 1 - p(s'), so coefficients transform by the signed
        binomial sum.
        """
        deg = len(self.coeffs) - 1
        out = [0.0] * (deg + 1)
        for j in range(deg + 1):
            acc = 0.0
            for k in range(j, deg + 1):
                acc += self.coeffs[k] * math.comb(k, j)
            out[j] = (-1) ** j * acc
        return RadialProfile(out)

    def jet_at(self, s: float, order: int) -> Jet:
        x = Jet.variable(float(s), order)
        p = (x + 1.0).reciprocal()
        out = Jet.constant(0.0, order)
        for c in reversed(self.coeffs):
            out = out * p + c
        return out

    def sup_norm(self) -> float:
        """max |u| over s >= 0, i.e. over p in [0, 1], at its critical points."""
        return float(np.max(np.abs(_horner(self.coeffs, _extremum_candidates(self.coeffs)))))

    def scaled(self, t: float) -> "RadialProfile":
        return RadialProfile([t * c for c in self.coeffs])

    def __sub__(self, other: "RadialProfile") -> "RadialProfile":
        size = max(len(self.coeffs), len(other.coeffs))
        out = [0.0] * size
        for k, c in enumerate(self.coeffs):
            out[k] += c
        for k, c in enumerate(other.coeffs):
            out[k] -= c
        return RadialProfile(out)

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
        self._v_coeffs = tuple(v)
        points = _extremum_candidates(self._v_coeffs)
        vals = _horner(self._v_coeffs, points)
        self._v_range = (float(np.min(vals)), float(np.max(vals)))
        i = int(np.argmin(vals))
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

    def h_log(self, s):
        """log of the fibre weight h = e^{-u}/(1+s)."""
        s = np.asarray(s, dtype=float)
        return -np.log1p(s) - self.profile.value(s)

    def volume(self) -> float:
        # int_0^inf w ds = int_0^1 v(p) dp, exactly
        return float(sum(c / (k + 1) for k, c in enumerate(self._v_coeffs)))

    def with_potential(self, phi: RadialProfile, t: float) -> "RadialMetric":
        return RadialMetric(self.profile - phi.scaled(t))

    def inverted_chart(self) -> "RadialMetric":
        return RadialMetric(self.profile.inverted_chart())


# A section-norm row is left out of a quadrature rule where a certified
# bound puts it below this fraction of its own scale on every node.
_ROW_CUT = 1e-30


def _row_supports(metric: RadialMetric, m: int):
    """Certified supports (lower_j, upper_j) in x of the section-norm rows.

    Row j of the shifted integrand is exp(g_j) v(p) / v(p*) e^{-lift_j},
    g_j = j log(x/x*) + k log((1-x)/(1-x*)) - m (u(p) - u(p*)), x* = j/m.
    In t = log s, g_j is j t - m psi plus a constant, strictly concave
    because d/dt (s psi') = s w > 0, so each tangent line bounds it from
    above: from any t0 where g_j' = j - m mu(x0) > 0 (mu(x) = s psi' =
    x (1 - p u'(p)), the moment map), g_j <= C_j for all
    t <= t0 - (g_j(t0) - C_j) / g_j'(t0), and likewise on the right.  As
    v(p) <= v_max, the row is then below _ROW_CUT times its own scale on
    [0, lower_j] and on [upper_j, 1], the scale being the larger of its
    values at x* (e^{-lift_j}) and at an estimate c of its mode.

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
    u, v = metric.profile.coeffs, metric._v_coeffs
    v_min, v_max = metric._v_range
    du = [i * c for i, c in enumerate(u)][1:]
    j = np.arange(m + 1.0)[:, None]
    k = m - j
    xs = j / m
    ps = 1.0 - xs
    inv_1mx = np.divide(1.0, ps, out=np.zeros_like(ps), where=k > 0)
    neg_inv_x = np.divide(-1.0, xs, out=np.zeros_like(xs), where=j > 0)

    def mu(x):
        return x - x * (1.0 - x) * _horner(du, 1.0 - x) if du else x

    def g(x):
        dp = xs - x
        out = k * np.log1p(dp * inv_1mx) + j * np.log1p(dp * neg_inv_x)
        if u:
            out -= m * _divided_difference(u, 1.0 - x, ps) * dp
        return out

    v_star = _horner(v, ps)
    c, spread, log_scale = xs, 0.0, np.log(v_star)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if du:
            for _ in range(3):
                c = np.clip(c - (mu(c) - xs) / _horner(v, 1.0 - c), 0.0, 1.0)
            spread = np.abs(mu(c) - xs) / v_min
            log_scale = np.maximum(log_scale, g(c) + np.log(_horner(v, 1.0 - c)))
        level = math.log(_ROW_CUT / v_max) + log_scale
        width = math.log(v_max / _ROW_CUT) / (m * v_star)
        side = np.array([-1.0, 1.0])
        x = c + side * (spread + np.sqrt(2.0 * width * c * (1.0 - c)) + width)
        ends = np.array([0.0, 1.0]) + np.zeros_like(x)
        for _ in range(2):
            slope = j - m * mu(x)
            t = np.log(x) - np.log1p(-x) - (g(x) - level) / slope
            x = 1.0 / (1.0 + np.exp(-t))
            ok = (side * slope < 0.0) & np.isfinite(t)
            ends = np.where(ok, x, ends)
            x = ends
    lower, upper = ends[:, 0], ends[:, 1]
    return np.minimum.accumulate(lower[::-1])[::-1], np.maximum.accumulate(upper)


def _banding_pays(m: int, xs: np.ndarray, ps: np.ndarray, v_star: np.ndarray,
                  v_max: float) -> bool:
    """Whether the cut leaves out at least half of the row x node values.

    With L = log(1/_ROW_CUT), row j's support is about
    2 sqrt(2 L x*(1-x*) / (m v*)) wide (its Gaussian width at the cut
    level), and at least 2 L / (m v*), the width of the exponential peaks
    of the end rows.  For Fubini-Study the mean width falls below one
    half from m = 376 on.  Below that the supports and the window lookups
    cost more than banding saves: forced banding measured 30% slower at
    m = 100 and 8-13% slower at m = 200, but 10% faster at m = 300.
    The exponential width alone, at least 2 L / (m v_max), settles small m.
    """
    if 4.0 * -math.log(_ROW_CUT) >= max(m, 1) * v_max:
        return False
    drop = -math.log(_ROW_CUT) / (max(m, 1) * v_star)
    width = np.maximum(np.sqrt(8.0 * drop * xs * ps), 2.0 * drop)
    return bool(np.mean(np.minimum(width, 1.0)) < 0.5)


def section_norms(metric: RadialMetric, m: int, tol: float = 1e-12) -> np.ndarray:
    """Logs of the squared L^2 norms of the monomial sections 1, z, ..., z^m.

    N_j = int_0^inf s^j h(s)^m w(s) ds.  In x = s/(1+s) = 1 - p the
    integrand is x^j (1-x)^(m-j) e^{-m u(p)} v(p): a Beta integrand times
    a factor that does not depend on j.  For Fubini-Study (u = 0, v = 1)
    N_j is the Beta value j! (m-j)! / (m+1)!.

    Each exponent is centred at the Beta mode x* = j/m, with log1p and a
    divided difference for u, so its rounding error scales with its
    distance from the peak rather than with m.  A per-j shift (the
    smooth factor's log at x* plus a second-order estimate of how far it
    lifts the peak) brings every integrand's maximum near 1.  One
    vector-valued adaptive pass then integrates all m+1 of them to
    relative tolerance tol each, and the constants are added back in
    log space, where nothing underflows however large m is.

    Where that pays (_banding_pays) the pass is banded, for row j only
    matters near its mode, where s psi'(s) = j/m.  Each row gets a
    support [lower_j, upper_j] once, from tangent lines of its exponent,
    which is strictly concave in t = log s, with the factor v(p) bounded
    by v_max (see _row_supports).  Outside it the row is below _ROW_CUT
    (1e-30) times its own scale, which is at least e^{-lift_j}, its
    shifted value at x*.  A rule leaves out the rows whose support misses
    all its nodes, so a dropped rule value is below the panel width times
    that, and all the dropped values of a row together below 1e-30 of
    its scale: a cut relative to each row, not an absolute one, which
    would drop rows whose shifted totals are tiny (below 1e-40 for an
    eigenfunction bump 0.45 at m = 5000).  Where every row's support
    reaches a rule's nodes the pass does the dense arithmetic.
    """
    u, v = metric.profile.coeffs, metric._v_coeffs
    j = np.arange(m + 1, dtype=float)
    k = m - j
    xs = j / max(m, 1)
    ps = 1.0 - xs
    # -1/x* and 1/(1-x*), zeroed where the matching power vanishes
    neg_inv_x = np.divide(-1.0, xs, out=np.zeros_like(xs), where=j > 0)[:, None]
    inv_1mx = np.divide(1.0, ps, out=np.zeros_like(xs), where=k > 0)[:, None]
    jc, kc, xc, pc = j[:, None], k[:, None], xs[:, None], ps[:, None]
    v_star = _horner(v, ps)
    log_v_star = np.log(v_star)
    # d/dx of log(e^{-m u} v) at x*; the Beta part curves by m / (x*(1-x*))
    slope = m * _divided_difference(u, ps, ps) - _divided_difference(v, ps, ps) / v_star
    lift = slope * slope * xs * ps / (2 * max(m, 1))
    offset = (log_v_star + lift)[:, None]
    rows = (jc, kc, xc, pc, neg_inv_x, inv_1mx, offset)

    def evaluate(x, jc, kc, xc, pc, neg_inv_x, inv_1mx, offset):
        # in place: at most three rows x nodes arrays are alive at once
        p = 1.0 - x
        dp = xc - x
        expo = np.multiply(dp, inv_1mx)
        np.log1p(expo, out=expo)
        expo *= kc
        if u:
            d = _divided_difference(u, p, pc)
            d *= dp
            d *= m
            expo -= d
        t = dp  # dp is not needed past here: reuse its buffer for the j term
        t *= neg_inv_x
        np.log1p(t, out=t)
        t *= jc
        expo += t
        expo += np.log(_horner(v, p))
        expo -= offset
        return np.exp(expo, out=expo)

    if _banding_pays(m, xs, ps, v_star, metric._v_range[1]):
        lower, upper = _row_supports(metric, m)

        def integrand(x):
            # the rows whose support reaches a rule's nodes (in increasing order)
            j0 = int(np.searchsorted(upper, x[0], "right"))
            j1 = int(np.searchsorted(lower, x[-1], "left"))
            return m + 1, j0, evaluate(x, *(a[j0:j1] for a in rows))
    else:
        def integrand(x):
            return evaluate(x, *rows)

    with np.errstate(over="ignore", invalid="ignore"):
        total = integrate_interval(integrand, 0.0, 1.0, rtol=tol)
    if np.any(total <= 0.0):
        raise PositivityError("section norm came out nonpositive")
    peak = (j * np.log(np.where(j > 0, xs, 1.0))
            + k * np.log(np.where(k > 0, ps, 1.0)))
    shift = log_v_star - m * metric.profile.value_p(ps) + lift
    return peak + shift + np.log(total)


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
    """Density of states sum_j |z^j|^2_{h^m} / N_j on a grid of s values.

    Each term is exp(a_j) with a_j = j log s + m log h(s) - log N_j, and
    the terms are combined by max-subtraction in log space: s^j h^m
    overflows well before m = 60 at moderate s, and N_j underflows past
    m of about 1000.  tol is the relative tolerance of each section norm.
    """
    grid = np.asarray(grid, dtype=float)
    logn = section_norms(metric, m, tol)
    hl = metric.h_log(grid)
    zero = grid <= 0.0
    logs = np.where(zero, 0.0, np.log(np.where(zero, 1.0, grid)))
    j = np.arange(m + 1)[:, None]
    a = j * logs[None, :] + m * hl[None, :] - logn[:, None]
    if zero.any():
        a[1:, zero] = -np.inf
    mx = np.max(a, axis=0)
    values = np.exp(mx) * np.sum(np.exp(a - mx), axis=0)
    return DensityResult(m, grid, values, logn)


@dataclass
class CurvatureReport:
    s: float
    rho: float
    lap_rho: float
    a1: float
    a2: float


def scalar_curvature(metric: RadialMetric, s: float) -> CurvatureReport:
    """Scalar curvature, its Laplacian, and the induced expansion data.

    All derivatives come from degree-6 Taylor jets of the potential, so
    no finite differencing enters.  a1 = rho/2 and a2 = (Delta rho)/3;
    for the round metric this gives (2, 0, 1, 0).
    """
    order = 6
    x = Jet.variable(float(s), order)
    psi = (x + 1.0).log() + metric.profile.jet_at(float(s), order)

    def radial(f: Jet) -> Jet:
        f1 = f.derivative()
        return f1 + x * f1.derivative()

    g = radial(psi)                 # metric density, jet order 4
    rho = -(radial(g.log()) / g)    # order 2
    lap_rho = radial(rho) / g       # order 0
    return CurvatureReport(float(s), rho.value, lap_rho.value,
                           rho.value / 2.0, lap_rho.value / 3.0)


@dataclass
class FirstVariationResult:
    m: int
    s: float
    step: float
    formula_value: float
    fd_value: float
    rel_diff: float


def first_variation(metric: RadialMetric, phi: RadialProfile, m: int, s: float = 0.0,
                    t: float = 1e-5, tol: float = 1e-11) -> FirstVariationResult:
    """Derivative of the density at a point along the potential direction phi.

    The closed form (Fubini-Study background only) is

        sigma'(0) = -(m+1)^2 * (1/pi) int (m phi~ - Delta phi~) (1+|z|^2)^{-(m+2)} dA

    with phi~ = phi - phi(base).  A base point off the origin is pulled
    back to 0 by the Mobius map z -> (z + w)/(1 - w z), w = sqrt(s),
    which preserves the round metric and commutes with its Laplacian;
    the pulled-back integrand is no longer radial, so the angular
    average is taken numerically.

    The check value is a centred difference of the perturbed density at
    +-t.  Its relative gap is floored at m^2 t sup|phi~|, the step-noise
    scale, so directions with an exactly vanishing derivative do not
    divide noise by noise.
    """
    if t < 1e-9:
        raise StepUnderflowError(f"difference step {t:.3e} is below the noise floor")
    if not metric.is_fubini_study:
        raise ValueError("closed-form first variation requires the Fubini-Study background")

    s = float(s)
    w0 = math.sqrt(s)
    phi0 = float(phi.value(s))
    lap = phi.fs_laplacian_coeffs()
    pcoeffs = phi.coeffs

    def integrand(z):
        # p = 1/(1 + |G(z)|^2) through the stable joint form
        a = 1.0 - w0 * z
        b = z + w0
        d2 = (a * a.conjugate()).real
        n2 = (b * b.conjugate()).real
        p = d2 / (d2 + n2)
        return m * (_horner(pcoeffs, p) - phi0) - _horner(lap, p)

    def weight(sv):
        return np.exp(-(m + 2) * np.log1p(np.asarray(sv, dtype=float)))

    if phi.is_zero:
        formula = 0.0
    else:
        integral = cp1_integral(integrand, weight, rtol=tol, atol=1e-14)
        formula = -((m + 1) ** 2) * integral

    plus = bergman_density(metric.with_potential(phi, t), m, [s]).values[0]
    minus = bergman_density(metric.with_potential(phi, -t), m, [s]).values[0]
    fd = (plus - minus) / (2.0 * t)

    floor = m * m * t * (phi - RadialProfile([phi0])).sup_norm()
    den = max(abs(formula), abs(fd), floor)
    rel = abs(formula - fd) / den if den > 0 else 0.0
    return FirstVariationResult(m, s, t, formula, fd, rel)

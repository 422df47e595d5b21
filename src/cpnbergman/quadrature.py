"""Adaptive Gauss-Kronrod quadrature on intervals and CP^1.

Every panel is one 31-node Kronrod rule (K31), whose embedded 15-node
Gauss rule (G15) gives its error estimate from the same integrand
values.  Integrands must accept numpy arrays of evaluation points and be
pointwise in them: one call may hold the nodes of several panels.  Every
pass runs on a finite interval.  An integral over CP^1 is one adaptive
radial pass in x = |z|^2 / (1 + |z|^2) on [0, 1], where the Fubini-Study
form is dx dtheta / 2 pi, of trapezoid circle means: each radial node
doubles its own circle until two successive means agree.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .conversion import _exponents
from .errors import QuadratureError

# The (G15, K31) Gauss-Kronrod pair on [-1, 1] (Kronrod 1965; Piessens et
# al., QUADPACK, 1983; Laurie, Math. Comp. 66, 1997): the nonnegative K31
# nodes, increasing from 0, their K31 weights, and the G15 weights of the
# nodes of even index here, which are the G15 nodes.  The others are the
# roots of the Stieltjes polynomial E_16.  Each value is a 40-digit one
# rounded once; tests/test_quadrature.py rebuilds them from Fractions.
_KRONROD_NODES = (
    0.0, 0.1011420669187175, 0.20119409399743451, 0.29918000715316884,
    0.3941513470775634, 0.4850818636402397, 0.5709721726085388, 0.650996741297417,
    0.7244177313601701, 0.790418501442466, 0.8482065834104272, 0.8972645323440819,
    0.937273392400706, 0.9677390756791391, 0.9879925180204854, 0.9980022986933971,
)
_KRONROD_WEIGHTS = (
    0.10133000701479154, 0.10076984552387559, 0.09917359872179196, 0.09664272698362368,
    0.09312659817082532, 0.08856444305621176, 0.08308050282313302, 0.07684968075772038,
    0.06985412131872826, 0.06200956780067064, 0.05348152469092809, 0.04458975132476488,
    0.03534636079137585, 0.02546084732671532, 0.015007947329316122, 0.005377479872923349,
)
_GAUSS_WEIGHTS = (
    0.2025782419255613, 0.19843148532711158, 0.1861610000155622, 0.16626920581699392,
    0.13957067792615432, 0.10715922046717194, 0.07036604748810812, 0.03075324199611727,
)


def _mirror(half, sign=1.0):
    """Values at the 31 nodes, increasing, from those at the nonnegative ones."""
    half = np.array(half)
    return np.concatenate([sign * half[:0:-1], half])


_X = _mirror(_KRONROD_NODES, -1.0)
_WK = _mirror(_KRONROD_WEIGHTS)
_WG = np.zeros(len(_KRONROD_NODES))
_WG[::2] = _GAUSS_WEIGHTS
# one product gives each panel's K31 value and K31 - G15
_RULES = np.stack([_WK, _WK - _mirror(_WG)], axis=1)
# K and G share their nodes, so |K - G| misses the rounding of f and of the
# totals: each panel's estimate is at least this many ulps of its sum of w |f|
_ROUNDING_ULPS = 2.0
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
# the panel budget of one pass
_MAX_PANELS = 4096
# the row x node values of one call on the initial panels of an f whose rows
# are stated: as many panels as fit, and at least two, as a split evaluates
_MAX_CALL_VALUES = 2**14
# cp1_integral's angular steps per radial node: (64, 128), (128, 256), ... up to 1024 points
_N_THETA = 64
_N_THETA_MAX = 1024
# Stall test of integrate_interval.  A pass whose tol is below the rounding
# level stalls with error estimates of hundreds of ulps of its totals, within
# _FLOOR_ULPS.  Converging passes too can spend long runs at that floor without
# halving their worst error/bound ratio, so the test tracks only from split
# _STALL_SPLITS on (CHANGES.md has the measured runs).
_FLOOR_ULPS = 1000
_STALL_SPLITS = 32
# _rules keeps the nodes of up to _NODE_CACHE_SIZE edges tuples of at most
# _NODE_CACHE_PANELS panels: 128 x 16 x 32 floats, 512 KiB at most.  A tyz_sweep
# pass of the benchmark calls f on 48 distinct tuples, a cp1_quad pass on 5
_NODE_CACHE_SIZE = 128
_NODE_CACHE_PANELS = 16


@lru_cache(maxsize=_NODE_CACHE_SIZE)
def _panel_nodes(edges: tuple):
    """The K31 nodes of the panels between edges, increasing, and the panels'
    half-widths: both read-only, built once per edges tuple."""
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi)[:, None] + half[:, None] * _X).ravel()
    x.flags.writeable = half.flags.writeable = False
    return x, half


def _rules(f, edges):
    """K31 values and error estimates on the panels between edges, from one call of f.

    Returns (banded, shape, start, sums).  shape is that of the integral:
    () for a 1-D f, else (k,).  sums has shape (panels, 3, rows): each
    panel's K31 values, error estimates and masses over f's rows
    start .. start + rows - 1, all k of a dense f (start 0) or the window
    of a banded one.  A panel's mass is its K31 sum of w |f|, and its
    error estimate is |K31 - G15|, and at least _ROUNDING_ULPS ulps of its
    mass.
    """
    edges = tuple(edges)
    cached = len(edges) <= _NODE_CACHE_PANELS + 1
    x, half = (_panel_nodes if cached else _panel_nodes.__wrapped__)(edges)
    vals = f(x)
    banded = isinstance(vals, tuple)
    if banded:
        k, start, vals = vals
        shape = (k,)
    else:
        shape, start = np.shape(vals)[:-1], 0
    # one row per (integrand row, panel) pair, so one matrix product covers every panel
    vals = np.reshape(vals, (-1, len(_X)))
    out = np.empty((3, len(vals)))
    with np.errstate(invalid="ignore", over="ignore"):  # inf gives nan: rejected as not finite
        sums = vals @ _RULES
        out[0] = sums[:, 0]
        out[2] = np.abs(vals) @ _WK
        np.maximum(np.abs(sums[:, 1]), _ROUNDING_ULPS * _EPS * out[2], out=out[1])
        out = out.reshape(3, -1, len(half))
        out *= half
    return banded, shape, start, out.transpose(2, 0, 1)


def integrate_interval(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rtol: float = 1e-12,
    atol: float = 0.0,
    edges: Optional[Sequence[float]] = None,
    rows: Optional[int] = None,
) -> Union[float, np.ndarray]:
    """Adaptive panel integration of f over [a, b].

    Every panel is one 31-node Gauss-Kronrod rule: its K31 value, with
    |K31 - G15| as its error estimate, G15 being the Gauss rule on every
    other node.  Since K and G share their nodes, the estimate is at
    least _ROUNDING_ULPS ulps of the panel's sum of w |f|, the rounding
    that |K - G| cannot see.  The worst panel is halved until the summed
    error estimate meets max(rtol * |total|, atol, tiny), and
    QuadratureError is raised once _MAX_PANELS panels, the initial ones
    included, do not.  A split costs two K31 rules, 62 nodes.  The floor
    at tiny (np.finfo(float).tiny) means that a total below tiny / rtol is
    held only to tiny absolute: scale such an integrand up.

    a < b must be finite, and rtol and atol finite and at least 0
    (ValueError otherwise).  The initial panels lie between edges,
    increasing from a to b, by default (a, b).  Edges at f's kinks, or
    spaced like its features, spare the splits that bisection from [a, b]
    would spend finding them.
    Dyadic edges keep every panel's midpoint and half-width exact, as
    bisection's are; a rounded one moves the rule off its panel.

    edges and rows alone fix the calls of f, in panel order: one per
    initial panel, or, if rows states that f is dense with that many rows
    (returns shape (rows, len(x))), as many initial panels a call as
    _MAX_CALL_VALUES row x node values allow, at least two; then one per
    split, on both its halves (62 nodes).  An initial return of another
    shape than rows states raises ValueError.  f must be pointwise in x,
    its value at a node not depending on the other nodes of the call;
    each panel's values are then what a call on its own nodes gives, bit
    for bit.  The node array f receives is shared, read-only: the same
    edges give the same array on every call and pass.  f must not write
    into it (numpy raises ValueError).

    f may instead return shape (k, len(x)): k >= 0 integrands sharing one
    set of panels.  The result is then a (k,) array, and splitting goes on
    until every component j meets max(rtol * |total_j|, atol).  A panel's
    priority is its largest error across components, each relative to
    that component's bound at the time the panel is made: a scale fixed
    from a single early rule would trust totals that miss narrow peaks
    entirely.  A 1-D f, returning shape (len(x),), is integrated as the
    one row of such a vector integrand and gives a float.  A non-finite
    integrand raises QuadratureError.

    A banded vector integrand returns a triple (k, j0, values) instead,
    values holding rows j0 .. j0 + len(values) - 1 of the k; the rows it
    leaves out count as exact zeros on those nodes.  This is for rows
    that each matter only near their own peak, and the integrand must
    certify what it leaves out: a row below a cut on every node gives a
    rule value below the panel width times that cut (section_norms is
    such an integrand, and states its cut).  Each panel carries its call's
    row window, for a split's halves the hull of theirs; its error estimate
    and its share of the totals are added into the dense (k,) vectors on
    that window alone.  Panels, priorities and the result are as for the
    shape (k, len(x)) form.

    After the initial step and after each split, one array of
    error/bound ratios over all k components decides whether to split
    on, the stall test below and the component a failure names.  Its
    O(k) scan runs once a split, and splits are rare where the initial
    panels fit the integrand's features.

    When the tolerance sits below the integrand's rounding level,
    splitting no longer lowers the estimate.  So once every component
    still short of its bound has an error estimate within _FLOOR_ULPS
    ulps of its summed mass (the sum of w |f| over its panels, which is
    |total| for a positive integrand and exceeds it where the integrand
    cancels), and _STALL_SPLITS splits in a row (counted from
    split _STALL_SPLITS after the initial step on) have not halved the
    worst error-to-bound ratio, QuadratureError is raised instead of
    spending the rest of the panel budget.  The check adds no integrand
    evaluations and does not change which panels are split.
    """
    if not -math.inf < a < b < math.inf:
        raise ValueError(f"need finite a < b, got a = {a} and b = {b}")
    if not (0 <= rtol < math.inf and 0 <= atol < math.inf):  # a nan bound meets every estimate
        raise ValueError(f"need finite rtol >= 0 and atol >= 0, got {rtol} and {atol}")
    if edges is None:
        edges = (a, b)
    elif edges[0] != a or edges[-1] != b or any(not hi > lo for lo, hi in zip(edges, edges[1:])):
        raise ValueError("edges must increase from a to b")

    # initial panels per call: one, or as many of the stated rows as the budget allows
    group = 1 if rows is None else max(2, _MAX_CALL_VALUES // (len(_X) * max(rows, 1)))

    def panels(edges, group):
        # banded and shape of f's last call, and (lo, hi, start, sums) of each
        # panel between edges, as _rules gives them
        out = []
        for i in range(0, len(edges) - 1, group):
            part = edges[i:i + group + 1]
            banded, shape, start, sums = _rules(f, part)
            out += zip(part, part[1:], [start] * group, sums)
        return banded, shape, out

    banded, shape, roots = panels(edges, group)
    if rows is not None and (banded or shape != (rows,)):
        raise ValueError(f"rows = {rows} was stated, but f "
                         + ("is banded" if banded else f"gives an integral of shape {shape}"))
    k = shape[0] if shape else 1
    acc = np.zeros((3, k))  # the total, error estimate and mass of every component
    total, err, mass = acc

    def add(panel, ufunc=np.add):
        _, _, start, sums = panel
        window = acc[:, start:start + sums.shape[1]]
        ufunc(window, sums, out=window)

    for root in roots:
        add(root)

    floor = max(atol, _TINY)

    def bound(total):
        return np.maximum(rtol * np.abs(total), floor)

    def priority(panel):
        _, _, start, sums = panel
        e = sums[1]
        return float((e / bound(total[start:start + len(e)])).max(initial=0.0))

    def ratios():  # each component's error/bound ratio, and whether it is short: above 1
        if not np.isfinite(err).all():
            raise QuadratureError("integrand is not finite on [%g, %g]" % (a, b))
        ratio = err / bound(total)
        return ratio, ratio > 1.0

    def fail(reason):  # naming the worst component j of a vector integrand
        j = int(np.argmax(ratio))
        return QuadratureError("%s: %d panels, error estimate %.3e on total %.3e%s" % (
            reason, count, err[j], total[j], " of component %d of %d" % (j, k) if shape else ""))

    ratio, short = ratios()
    # a sorted list is a heap, built only if some component is short of its bound
    # (np.count_nonzero tells in a third of the time short.any() takes for small k)
    heap = sorted((-priority(root),) + root for root in roots) if np.count_nonzero(short) else []
    count = len(roots)
    stall_from = count - 1 + _STALL_SPLITS  # count > stall_from once _STALL_SPLITS splits are done
    # worst error/bound ratio while stuck at the rounding level, and when it was set
    mark, marked_at = None, count
    while np.count_nonzero(short):
        if count >= _MAX_PANELS:
            raise fail("quadrature budget exhausted")
        parent = heapq.heappop(heap)[1:]
        lo, hi = parent[:2]
        children = panels((lo, 0.5 * (lo + hi), hi), 2)[2]
        add(parent, np.subtract)
        for child in children:
            add(child)
        ratio, short = ratios()
        for child in children:
            heapq.heappush(heap, (-priority(child),) + child)
        count += 1
        # passes that converge within _STALL_SPLITS splits skip the test; the
        # others are at the floor once no short component's error is above it
        at_floor = (count > stall_from and np.count_nonzero(short)
                    and not np.any(err[short] > _FLOOR_ULPS * _EPS * mass[short]))
        worst = float(ratio.max()) if at_floor else None
        if worst is None or mark is None or worst <= 0.5 * mark:
            mark, marked_at = worst, count
        elif count - marked_at >= _STALL_SPLITS:
            raise fail("error estimate stalled at the rounding level for %d splits"
                       % _STALL_SPLITS)
    return total if shape else float(total[0])


def cp1_integral(
    F: Callable[[np.ndarray], np.ndarray],
    rtol: float = 1e-10,
    atol: float = 1e-13,
) -> Union[float, np.ndarray]:
    """Integral of F over CP^1 against the unit-volume Fubini-Study form.

    In x = |z|^2 / (1 + |z|^2) that form is dx dtheta / 2 pi (Archimedes'
    hat-box theorem), so this is the integral over [0, 1] of
    mean_theta F(sqrt(x/(1-x)) e^{i theta}) dx: no weight and no
    Jacobian.  A form w(|z|^2) dA / pi is F times w(s) (1+s)^2.  F must
    broadcast over complex arrays and return real values (a complex dtype
    raises ValueError); it may return shape (k,) + z.shape for k
    integrands, and the result is then a (k,) array instead of a float.
    F is called on the circles of several radial nodes at once, so it
    must be pointwise in z.

    This is one radial pass, whose integrand settles each node's angular
    mean on its own, the trapezoid rule converging geometrically on each
    circle for smooth F (Trefethen and Weideman, SIAM Review 56, 2014).
    F is evaluated on the node's 2 nt-point circle, from 2 nt = 128, until
    every component's nt-point mean (the even points) and 2 nt-point mean
    agree within max(rtol * mean |F| on that circle, atol); the node then
    gives its 2 nt-point mean.  Past 1024 points QuadratureError is
    raised, naming n_theta and its cap: the domain is an F whose angular
    means settle within 1024 points at every node.  Non-finite values are
    passed on, for the radial pass to reject.
    """

    def radial(x: np.ndarray, nt: int = _N_THETA) -> np.ndarray:
        vals = F(np.sqrt(x / (1.0 - x))[:, None] * np.exp(1j * np.pi / nt * np.arange(2 * nt)))
        if np.iscomplexobj(vals):
            raise ValueError("cp1_integral needs a real-valued F, got %s values" % vals.dtype)
        with np.errstate(invalid="ignore", over="ignore"):  # as in _rules
            fine = vals.mean(axis=-1)
            unsettled = (np.abs(vals[..., ::2].mean(axis=-1) - fine)
                         > np.maximum(rtol * np.abs(vals).mean(axis=-1), atol))
        unsettled = unsettled.reshape(-1, len(x)).any(axis=0)
        if unsettled.any():  # those nodes alone go on to the doubled circle
            if 2 * nt == _N_THETA_MAX:
                raise QuadratureError(
                    "angular refinement did not stabilize: n_theta = %d, the cap of "
                    "cp1_integral, is too few angles for this integrand" % _N_THETA_MAX)
            fine[..., unsettled] = radial(x[unsettled], 2 * nt)
        return fine

    return integrate_interval(radial, 0.0, 1.0, rtol=rtol, atol=atol)


def _power_kernel(p: int, e: int) -> Tuple[Callable[[np.ndarray], np.ndarray], int]:
    """An integrand over t > 0 and an exponent E: 2^E times its integral is
    the integral of t^p (1 + t)^(-e), e > p + 1.

    t -> 1/t makes p the smaller exponent.  Its value at a dyadic t0 near
    the peak times exp of log1p terms in t - t0 has a rounding that does
    not grow with e, unlike logs of t and 1 + t.  The peak's power of two
    goes to E, so the pass sees a peak in [1/4, 1), out of reach of
    integrate_interval's floor at tiny, unless t0^p or (1 + t0)^(-e)
    underflows."""
    p = min(p, e - p - 2)
    t0 = max(round(2.0**20 * p / (e - p)), 1) / 2.0**20  # t0 and 1 + t0 exact
    (a, ea), (b, eb) = math.frexp(t0**p), math.frexp((1.0 + t0) ** -e)
    peak = a * b

    def kernel(t: np.ndarray) -> np.ndarray:
        d = t - t0
        return peak * np.exp(p * np.log1p(d / t0) - e * np.log1p(d / (1.0 + t0)))

    return kernel, ea + eb


def monomial_kernel_quadrature(n: int, m: int, P, rtol: float = 1e-10) -> float:
    """(1/pi^n) int |z^P|^2 (1+|z|^2)^{-(m+n+1)} dV as n passes on [0, 1].

    Radial reduction gives int s^P (1 + s_1 + ... + s_n)^(-e) ds, e = m + n + 1,
    and s_n = (1 + s_1 + ... + s_{n-1}) t splits off the factor
    int_0^inf t^(p_n) (1 + t)^(-e) dt, leaving the same form with e lowered by
    p_n + 1.  Each factor is one integrate_interval pass in x = t/(1+t),
    held to rtol / n, so their relative errors sum to at most rtol.  n is
    1 or 2, the numeric validation scope; the exact counterpart is
    fs_monomial_integral."""
    P = _exponents(P, n)
    if sum(P) > m:
        raise ValueError("requires |P| <= m")
    if n not in (1, 2):
        raise ValueError("monomial quadrature implemented for n in {1, 2}")
    value, scale, e = 1.0, 0, m + n + 1
    for p in reversed(P):
        kernel, exponent = _power_kernel(p, e)
        value *= integrate_interval(lambda x: kernel(x / (1 - x)) / (1 - x) ** 2, 0.0, 1.0,
                                    rtol=rtol / n)
        scale += exponent
        e -= p + 1
    return math.ldexp(value, scale)

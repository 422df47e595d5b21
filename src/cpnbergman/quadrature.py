"""Adaptive Gauss-Legendre quadrature on intervals, half-lines and CP^1.

Integrands must accept numpy arrays of evaluation points and be pointwise
in them: one call may hold the nodes of up to four rules.  The half-line
is compactified by s = x/(1-x); integrals over CP^1 combine an adaptive
radial pass with a trapezoid angular average whose resolution is doubled
until two successive values agree.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import QuadratureError

# Gauss-Legendre order of every rule, and the panel budget of one pass
_ORDER = 15
_MAX_PANELS = 4096
# cp1_integral's angular steps: (64, 128), (128, 256), ... up to 1024 points
_N_THETA = 64
_N_THETA_MAX = 1024
# Stall test of integrate_interval.  Converging section-norm passes halve
# their worst error/bound ratio at least every 3 splits; passes whose tol
# is below the rounding level stall with error estimates of 75 to 800
# ulps of their totals (eigenfunction bumps 0.1-0.45, m = 5000, tol 1e-14).
_FLOOR_ULPS = 1000
_STALL_SPLITS = 32
# cp1_integral skips a doubling step whose first radial split shows a
# coarse/fine gap above this multiple of the tolerance plus both rows'
# error estimates.  Past 2 the step fails even if the estimates are exact
# bounds; a discontinuous angular profile shows 5.05 at every step.
_SCREEN_FACTOR = 4.0


@lru_cache(maxsize=None)
def _gl():
    # computed on first use: leggauss loads LAPACK, which most imports never need
    return np.polynomial.legendre.leggauss(_ORDER)


def _panel(f, a: float, b: float):
    x, w = _gl()
    half = 0.5 * (b - a)
    vals = f(0.5 * (a + b) + half * x)
    if isinstance(vals, tuple):
        k, start, rows = vals
        return k, start, half * (rows @ w)
    return half * (vals @ w)


def _panels(f, edges):
    """Rule values on the consecutive panels between edges, four panels a call of f.

    The panels' nodes reach f as one array, in panel order, and each
    rule's value is half * (rows @ w) on its own columns, as _panel gives
    it from a call on that panel alone.  f must not be banded.
    """
    if len(edges) > 5:
        return _panels(f, edges[:5]) + _panels(f, edges[4:])
    x, w = _gl()
    halves = [0.5 * (hi - lo) for lo, hi in zip(edges, edges[1:])]
    vals = f(np.concatenate([0.5 * (lo + hi) + half * x
                             for lo, hi, half in zip(edges, edges[1:], halves)]))
    n = len(x)
    return [half * (vals[..., i * n:(i + 1) * n] @ w) for i, half in enumerate(halves)]


def _pad(part, start: int, size: int) -> np.ndarray:
    """Rows start .. start + size - 1 of a banded value, zeros outside its window."""
    _, s, vals = part
    if s == start and len(vals) == size:
        return vals
    out = np.zeros(size)
    out[s - start:s - start + len(vals)] = vals
    return out


def _hull(*parts):
    """(start, size) of the smallest row window holding every part's window."""
    start = min(p[1] for p in parts)
    return start, max(p[1] + len(p[2]) for p in parts) - start


def integrate_interval(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rtol: float = 1e-12,
    atol: float = 0.0,
    screen: Optional[Callable] = None,
    edges: Optional[Sequence[float]] = None,
) -> Union[float, np.ndarray]:
    """Adaptive panel integration of f over [a, b].

    Every rule is Gauss-Legendre of order _ORDER.  A panel's error is
    estimated by comparing its single-rule value with the sum over its
    two halves; the worst panel is split until the summed error estimate
    meets max(rtol * |total|, atol), and QuadratureError is raised once
    _MAX_PANELS panels, the initial ones included, do not.  The
    half-panel rules are kept, so a split costs two new rules for each
    child, not three.

    The initial panels lie between edges, increasing from a to b, by
    default (a, b); the initial step evaluates each one's coarse rule and
    its two halves.  Edges at f's kinks, or spaced like its features,
    spare the splits that bisection from [a, b] would spend finding them.
    Dyadic edges keep every panel's midpoint and half-width exact, as
    bisection's are; a rounded one moves the rules off their panel.

    f is called on at most four rules (4 _ORDER nodes) at a time, in rule
    order: the first coarse rule alone, the other coarse rules and the
    half rules four at a time, then once per split on its four new rules.
    So f must be pointwise in x, its value at a node not depending
    on the other nodes of the call; each rule's value is then what a call
    on its own nodes gives, bit for bit.  A banded f (below) is called on
    one rule at a time, since a call's row window is the hull of its
    nodes' windows.

    f may instead return shape (k, len(x)): k integrands sharing one set
    of panels.  The result is then a (k,) array, and splitting goes on
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
    rule value below the panel width times that cut.  section_norms does
    so with a cut of 1e-30 of each row's own scale, never an absolute
    one: its row j is log-concave in t = log s times a factor v(p) <=
    v_max, so a tangent line in t, with v_max / v, bounds it outside a
    support computed once per row.  Each panel carries the hull of its
    three rules' row windows; its error estimate and its share of the
    totals are added into the dense (k,) vectors on that window alone,
    and so is the count of components short of their bound, so a split
    costs O(window), not O(k).  Where a window covers every row the
    arithmetic is the dense one, in the same order.  Panels, priorities
    and the result are as for the shape (k, len(x)) form.

    When the tolerance sits below the integrand's rounding level,
    splitting no longer lowers the estimate.  So once every component
    still short of its bound has an error estimate within _FLOOR_ULPS
    ulps of its total, and _STALL_SPLITS splits in a row (counted from
    split _STALL_SPLITS after the initial step on) have not halved the
    worst error-to-bound ratio, QuadratureError is raised instead of
    spending the rest of the panel budget.  The check adds no integrand
    evaluations and does not change which panels are split.

    screen, if given, is called once as screen(total, err) with the
    initial step's total and error estimate, before any refinement; it
    may raise to abandon the pass.
    """
    if not b > a:
        raise ValueError("need b > a")
    if edges is None:
        edges = (a, b)
    elif edges[0] != a or edges[-1] != b or any(hi <= lo for lo, hi in zip(edges, edges[1:])):
        raise ValueError("edges must increase from a to b")

    coarse = _panel(f, edges[0], edges[1])
    banded = isinstance(coarse, tuple)
    scalar = not banded and np.ndim(coarse) == 0
    if scalar:
        # a 1-D integrand is the one row of a dense vector integrand
        row, coarse = f, np.array([coarse])

        def f(x):
            return row(x)[None]
    if banded:
        # banded values (k, start, values), combined on the hull of their windows
        k = coarse[0]

        def rules(edges):
            return [_panel(f, lo, hi) for lo, hi in zip(edges, edges[1:])]

        def pair(left, right):
            start, size = _hull(left, right)
            return k, start, _pad(left, start, size) + _pad(right, start, size)

        def diff(left, right, coarse):
            start, size = _hull(left, right, coarse)
            return k, start, np.abs(_pad(left, start, size) + _pad(right, start, size)
                                    - _pad(coarse, start, size))

        def add(acc, part, sign):
            _, start, vals = part
            rows = acc[start:start + len(vals)]
            if sign > 0:
                rows += vals
            else:
                rows -= vals
            return acc

        def on_window(total, e):
            _, start, vals = e
            return total[start:start + len(vals)], vals

        window = _hull
    else:
        k = len(coarse)

        def rules(edges):
            return _panels(f, edges)

        def pair(left, right):
            return left + right

        def diff(left, right, coarse):
            return abs(left + right - coarse)

        def add(acc, part, sign):
            return acc + part if sign > 0 else acc - part

        def on_window(total, e):
            return total, e

        def window(*parts):
            return 0, k

    def split(edges, parents):
        # halve each panel between edges, four rules a call for a dense f
        fine = [edges[0]]
        for lo, hi in zip(edges, edges[1:]):
            fine += [0.5 * (lo + hi), hi]
        halves = rules(fine)
        return [(fine[2 * i], fine[2 * i + 2], halves[2 * i], halves[2 * i + 1],
                 diff(halves[2 * i], halves[2 * i + 1], parent))
                for i, parent in enumerate(parents)]

    floor = max(atol, np.finfo(float).tiny)

    def bound(total):
        return np.maximum(rtol * np.abs(total), floor)

    roots = split(edges, [coarse] + rules(edges[1:]) if len(edges) > 2 else [coarse])
    (_, _, left, right, err), rest = roots[0], roots[1:]
    total = pair(left, right)
    if banded:
        total, err = add(np.zeros(k), total, 1), add(np.zeros(k), err, 1)
    for _, _, left, right, e in rest:
        total, err = add(total, pair(left, right), 1), add(err, e, 1)
    if screen is not None:
        screen(total, err)
    rounding = _FLOOR_ULPS * np.finfo(float).eps

    def priority(e, total):
        total, e = on_window(total, e)
        return float((e / bound(total)).max(initial=0.0))

    above = np.zeros(k, dtype=bool)  # components whose error is above their bound

    def unmet(start, size):
        # refresh above on components start .. start + size - 1; the change in its count
        e = err[start:start + size]
        if not np.all(np.isfinite(e)):
            raise QuadratureError("integrand is not finite on [%g, %g]" % (a, b))
        now, was = e > bound(total[start:start + size]), above[start:start + size]
        change = int(np.count_nonzero(now)) - int(np.count_nonzero(was))
        was[:] = now
        return change

    def floor_ratio(err, total):
        ratio = err / bound(total)
        short = ratio > 1.0
        if not np.any(short) or np.any(err[short] > rounding * np.abs(total[short])):
            return None
        return float(np.max(ratio))

    def fail(reason):
        j = int(np.argmax(err / bound(total)))
        return QuadratureError("%s: %d panels, error estimate %.3e on total %.3e"
                               % (reason, count, err[j], total[j]))

    heap = sorted((-priority(root[4], total),) + root for root in roots)  # a sorted list is a heap
    count = len(roots)
    stall_from = count - 1 + _STALL_SPLITS  # count > stall_from once _STALL_SPLITS splits are done
    # kept up to date on each split's row window, so a banded split is O(window)
    n_unmet = unmet(0, k)
    # worst error/bound ratio while stuck at the rounding level, and when it was set
    mark, marked_at = None, count
    while n_unmet:
        if count >= _MAX_PANELS:
            raise fail("quadrature budget exhausted")
        _, lo, hi, left, right, e = heapq.heappop(heap)
        children = split((lo, 0.5 * (lo + hi), hi), (left, right))
        total = add(total, pair(left, right), -1)
        err = add(err, e, -1)
        for _, _, cleft, cright, ce in children:
            total = add(total, pair(cleft, cright), 1)
            err = add(err, ce, 1)
        n_unmet += unmet(*window(e, children[0][4], children[1][4]))
        for child in children:
            heapq.heappush(heap, (-priority(child[4], total),) + child)
        count += 1
        # passes that converge within _STALL_SPLITS splits skip the test
        ratio = floor_ratio(err, total) if count > stall_from else None
        if ratio is None or mark is None or ratio <= 0.5 * mark:
            mark, marked_at = ratio, count
        elif count - marked_at >= _STALL_SPLITS:
            raise fail("error estimate stalled at the rounding level for %d splits"
                       % _STALL_SPLITS)
    return float(total[0]) if scalar else total


def integrate_half_line(
    f: Callable[[np.ndarray], np.ndarray],
    rtol: float = 1e-12,
    atol: float = 0.0,
    screen: Optional[Callable] = None,
) -> Union[float, np.ndarray]:
    """Integral of f over [0, infinity) via the substitution s = x/(1-x).

    f may return shape (k, len(s)); see integrate_interval.  f gets up to
    four rules' nodes per call and must be pointwise in s; a banded f gets
    one rule per call.
    """

    def g(x: np.ndarray) -> np.ndarray:
        om = 1.0 - x
        return f(x / om) / om**2

    return integrate_interval(g, 0.0, 1.0, rtol=rtol, atol=atol, screen=screen)


class _Unsettled(Exception):
    """Raised by cp1_integral's screen to abandon a doubling step early."""


def cp1_integral(
    F: Callable[[np.ndarray], np.ndarray],
    radial_weight: Callable[[np.ndarray], np.ndarray],
    rtol: float = 1e-10,
    atol: float = 1e-13,
) -> Union[float, np.ndarray]:
    """Integral over CP^1 of F against radial_weight(s) ds after averaging.

    Computes int_0^inf radial_weight(s) * mean_theta F(sqrt(s) e^{i theta}) ds.
    With radial_weight = (1+s)^{-2} this is the integral against the
    unit-volume Fubini-Study form.  F must broadcast over complex arrays
    and return real values (a complex dtype raises ValueError); it may
    return shape (k,) + z.shape for k integrands, and the result is then
    a (k,) array instead of a float.  One call of F covers the circles at
    up to four radial rules' nodes, z of shape (15 r, 2 nt) for r rules,
    so F must be pointwise in z.

    The trapezoid angular rule is spectrally accurate for smooth F.  Each
    doubling step is one adaptive radial pass that evaluates F once on a
    2 nt-point circle and integrates two rows per component: the nt-point
    mean (the even nodes) and the 2 nt-point mean.  The 2 nt value is
    returned once every component's two rows agree within
    max(rtol |I|, atol); otherwise nt doubles, so the steps are (64, 128),
    (128, 256), ... up to (512, 1024), after which QuadratureError is
    raised, naming n_theta and its cap: the domain is an F whose angular
    means settle within 1024 nodes.  A step whose first radial split
    already shows a gap far beyond the tolerance plus both rows' error
    estimates moves on without refining; no value is accepted from an
    unrefined pass.
    """
    vector = False  # whether F returns k stacked integrands; set by radial

    def bound(value):
        return np.maximum(rtol * np.abs(value), atol)

    def screen(total, err):
        k = len(total) // 2
        gap = np.abs(total[k:] - total[:k])
        if np.any(gap > _SCREEN_FACTOR * (bound(total[k:]) + err[:k] + err[k:])):
            raise _Unsettled

    nt = _N_THETA
    while 2 * nt <= _N_THETA_MAX:
        circle = np.exp(1j * np.pi / nt * np.arange(2 * nt))

        def radial(s: np.ndarray) -> np.ndarray:
            nonlocal vector
            vals = F(np.sqrt(s)[:, None] * circle)
            if np.iscomplexobj(vals):
                raise ValueError("cp1_integral needs a real-valued F, got %s values" % vals.dtype)
            vector = vals.ndim > 2
            coarse = vals[..., ::2].mean(axis=-1).reshape(-1, len(s))
            fine = vals.mean(axis=-1).reshape(-1, len(s))
            return radial_weight(s) * np.concatenate([coarse, fine])

        nt *= 2
        try:
            total = integrate_half_line(radial, rtol=rtol, atol=atol, screen=screen)
        except _Unsettled:
            continue
        k = len(total) // 2
        coarse, fine = total[:k], total[k:]
        if np.all(np.abs(fine - coarse) <= bound(fine)):
            return fine if vector else float(fine[0])
    raise QuadratureError(
        "angular refinement did not stabilize: n_theta = %d, the cap of cp1_integral, "
        "is too few angles for this integrand" % _N_THETA_MAX
    )


def fs_weight(s: np.ndarray) -> np.ndarray:
    """Radial density of the unit-volume Fubini-Study form on CP^1."""
    return (1.0 + s) ** (-2)


def _power_kernel(p: int, a, e: int) -> Callable[[np.ndarray], np.ndarray]:
    """t -> t^p (a + t)^(-e), through logs; t > 0, as at every quadrature node."""

    def kernel(t: np.ndarray) -> np.ndarray:
        expo = -e * np.log(a + t)
        if p > 0:
            expo = expo + p * np.log(t)
        return np.exp(expo)

    return kernel


def monomial_kernel_quadrature(n: int, m: int, P, rtol: float = 1e-10) -> float:
    """(1/pi^n) int |z^P|^2 (1+|z|^2)^{-(m+n+1)} dV by nested quadrature.

    Radial reduction gives an n-fold iterated integral of the power kernel
    t^p (a + t)^(-e) (_power_kernel); n = 1 and n = 2 are supported,
    matching the numeric validation scope.  n = 1 integrates the kernel
    with a = 1, e = m + 2.  For n = 2 the inner integrals, with a = 1 + s1
    and e = m + 3, at all nodes of an outer refinement step (up to four
    rules) are one vector-valued half-line pass, each row held to
    0.1 rtol.  The exact rational counterpart is fs_monomial_integral.
    """
    P = tuple(int(p) for p in P)
    if len(P) != n:
        raise ValueError("multi-index length must equal n")
    if sum(P) > m:
        raise ValueError("requires |P| <= m")
    if n == 1:
        return integrate_half_line(_power_kernel(P[0], 1.0, m + 2), rtol=rtol)
    if n == 2:
        p1, p2 = P

        def outer(s1: np.ndarray) -> np.ndarray:
            # one vector pass: row i is int_0^inf t^p2 (1 + s1_i + t)^{-(m+3)} dt
            inner = _power_kernel(p2, 1.0 + s1[:, None], m + 3)
            return (s1 ** p1 if p1 else 1.0) * integrate_half_line(inner, rtol=0.1 * rtol)

        return integrate_half_line(outer, rtol=rtol)
    raise ValueError("nested monomial quadrature implemented for n in {1, 2}")

"""Adaptive quadrature on intervals and CP^1."""

import heapq
import inspect
import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from cpnbergman import density, quadrature
from cpnbergman import (
    QuadratureError,
    RadialMetric,
    RadialProfile,
    cp1_integral,
    fs_monomial_integral,
    integrate_interval,
    monomial_kernel_quadrature,
    section_norms,
)
from monomial_reference import nested_monomial_quadrature


def _legendre(n):
    """Exact coefficients of the Legendre polynomial P_n, lowest degree first."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, n):
        nxt = [Fraction(0)] + [Fraction(2 * k + 1, k + 1) * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(k, k + 1) * c
        prev, cur = cur, nxt
    return cur if n else prev


def _solve(rows, rhs):
    """Gauss-Jordan elimination in Fractions."""
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for i in range(len(a)):
        piv = next(r for r in range(i, len(a)) if a[r][i] != 0)
        a[i], a[piv] = a[piv], a[i]
        a[i] = [c / a[i][i] for c in a[i]]
        for r in range(len(a)):
            if r != i and a[r][i] != 0:
                a[r] = [c - a[r][i] * d for c, d in zip(a[r], a[i])]
    return [r[-1] for r in a]


def _kronrod_rule():
    """The (G15, K31) pair at 40 digits: nonnegative nodes, K31 and G15 weights.

    The Kronrod nodes are the roots of the Stieltjes polynomial E_16, the
    monic even polynomial with int E_16 P_15 x^i dx = 0 for i < 16, found
    exactly in Fractions; the K31 weights make the rule exact on
    P_0 .. P_30.
    """
    p15 = _legendre(15)

    def moment(e):  # int_{-1}^{1} x^e P_15(x) dx
        return sum(c * Fraction(2, i + e + 1) for i, c in enumerate(p15) if (i + e) % 2 == 0)

    evens, odds = range(0, 16, 2), range(1, 16, 2)
    lower = _solve([[moment(e + i) for e in evens] for i in odds], [-moment(16 + i) for i in odds])
    with mpmath.workdps(40):
        def roots(coeffs):  # positive roots of an even polynomial, by its coefficients in x^2
            ys = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator for c in coeffs[::-1]],
                                  maxsteps=200, extraprec=200)
            return [mpmath.sqrt(mpmath.re(y)) for y in ys]

        gauss = roots(p15[1::2])  # P_15 / x is even
        nodes = sorted([mpmath.mpf(0)] + gauss + roots(lower + [Fraction(1)]))
        system = mpmath.matrix([[(1 if x == 0 else 2) * mpmath.legendre(q, x) for x in nodes]
                                for q in range(0, 31, 2)])
        kronrod = mpmath.lu_solve(system, mpmath.matrix([2] + [0] * 15))
        dp15 = [i * c for i, c in enumerate(p15)][1:]
        gauss_w = [2 / ((1 - x * x) * mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator
                                                      for c in dp15[::-1]], x) ** 2)
                   for x in nodes[::2]]
        return nodes, list(kronrod), gauss_w


def test_three_public_integrators():
    # every pass is on a finite interval; CP^1 integrals need no weight
    public = {name for name, value in vars(quadrature).items()
              if callable(value) and not name.startswith("_")
              and getattr(value, "__module__", None) == quadrature.__name__}
    assert public == {"integrate_interval", "cp1_integral", "monomial_kernel_quadrature"}
    assert list(inspect.signature(cp1_integral).parameters) == ["F", "rtol", "atol"]


class TestKronrodRule:
    """The hard-coded (G15, K31) constants against an independent rebuild."""

    def test_constants_within_one_ulp(self):
        nodes, kronrod, gauss = _kronrod_rule()
        stored = (quadrature._KRONROD_NODES, quadrature._KRONROD_WEIGHTS,
                  quadrature._GAUSS_WEIGHTS)
        for got, want in zip(stored, (nodes, kronrod, gauss)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(mpmath.mpf(g) - w) <= math.ulp(g), (g, w)

    def test_exact_on_monomials(self):
        # K31 integrates x^q exactly up to q = 3 * 15 + 2 = 47, G15 up to 29
        x, wk = quadrature._X, quadrature._WK
        wg = wk - quadrature._RULES[:, 1]
        for q in range(48):
            want = 2.0 / (q + 1) if q % 2 == 0 else 0.0
            assert abs(np.dot(wk, x**q) - want) <= 4e-16, q
            if q < 30:
                assert abs(np.dot(wg, x**q) - want) <= 4e-16, q
        # and no further: the 40-digit rules miss x^56 by 8.4e-14 and x^30 by 2.9e-9
        assert abs(np.dot(wk, x**56) - 2.0 / 57) > 1e-14
        assert abs(np.dot(wg, x**30) - 2.0 / 31) > 1e-9

    def test_embedded_gauss_rule_is_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(15)
        wg = quadrature._WK - quadrature._RULES[:, 1]
        assert np.array_equal(np.nonzero(wg)[0], np.arange(1, 31, 2))
        assert np.allclose(quadrature._X[1::2], x, rtol=0, atol=1e-15)
        assert np.allclose(wg[1::2], w, rtol=0, atol=1e-15)


class TestInterval:
    def test_polynomial_exact(self):
        val = integrate_interval(lambda x: x**3, 0.0, 1.0)
        assert val == pytest.approx(0.25, abs=1e-14)

    def test_exponential(self):
        val = integrate_interval(np.exp, 0.0, 2.0)
        assert val == pytest.approx(math.e**2 - 1.0, rel=1e-13)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_interval(np.exp, 1.0, 1.0)

    @pytest.mark.parametrize("a,b", [(-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_rejects_infinite_interval(self, a, b):
        # an infinite end once ran to "integrand is not finite" (QuadratureError)
        with pytest.raises(ValueError, match="need finite a < b"):
            integrate_interval(lambda x: np.exp(-x * x), a, b)

    @pytest.mark.parametrize("rtol,atol", [(math.nan, 0.0), (1e-12, math.nan),
                                           (-1e-12, 0.0), (1e-12, -1e-300),
                                           (math.inf, 0.0), (1e-12, math.inf)])
    def test_rejects_bad_tolerance(self, rtol, atol):
        # a nan bound once met every estimate: the first rule, 34 times the
        # exact (1 - cos 200) / 200, came back with no error
        with pytest.raises(ValueError, match="rtol >= 0 and atol >= 0"):
            integrate_interval(lambda x: np.sin(200.0 * x), 0.0, 1.0, rtol=rtol, atol=atol)
        with pytest.raises(ValueError, match="rtol >= 0 and atol >= 0"):
            cp1_integral(lambda z: np.abs(z), rtol=rtol, atol=atol)
        if atol == 0.0:
            with pytest.raises(ValueError, match="rtol >= 0 and atol >= 0"):
                monomial_kernel_quadrature(1, 10, (3,), rtol=rtol)

    def test_budget_exhaustion(self, monkeypatch):
        # kink keeps the panel error estimate alive past a tiny budget
        def kink(x):
            return np.sqrt(np.abs(x - 1.0 / 3.0))

        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
        with pytest.raises(QuadratureError):
            integrate_interval(kink, 0.0, 1.0, rtol=1e-15)

    @pytest.mark.parametrize("vector", [False, True])
    def test_noise_floor_stalls_before_budget(self, vector):
        # a ripple of about 45 ulps that no panel can resolve: rtol 1e-16 is
        # below what splitting can certify, so it stops long before the
        # 4096-panel budget and its 16383 integrand calls
        calls = []

        def noisy(x):
            calls.append(x.size)
            ripple = 1.0 + 1e-14 * np.sin(1e7 * x)
            return np.stack([np.exp(x), ripple]) if vector else ripple

        with pytest.raises(QuadratureError, match="stalled"):
            integrate_interval(noisy, 0.0, 1.0, rtol=1e-16)
        assert len(calls) < 1000

    def test_cancelling_integrand_stalls_against_its_mass(self):
        # sin(2000x) on [0, 1] totals 6.8e-4 against a sum of w |f| of 0.64,
        # so rtol 1e-12 asks for less than the rounding of that mass: the
        # floor is measured against the mass, and the pass stops within a few
        # hundred calls (against |total| it crawled on for thousands)
        calls = []

        def f(x):
            calls.append(x.size)
            return np.sin(2000.0 * x)

        with pytest.raises(QuadratureError, match="stalled"):
            integrate_interval(f, 0.0, 1.0, rtol=1e-12)
        assert len(calls) < 400

    def test_needle_resolved_with_budget(self):
        c = 0.1234567

        def needle(x):
            return np.exp(-((x - c) ** 2) * 1e4)

        val = integrate_interval(needle, 0.0, 1.0, rtol=1e-12)
        assert val == pytest.approx(math.sqrt(math.pi / 1e4), rel=1e-10)

    def test_vector_matches_scalar_calls(self):
        # components of very different size and width share one set of panels
        c = 0.1234567
        parts = [
            np.exp,
            lambda x: x**3,
            lambda x: np.exp(-((x - c) ** 2) * 1e4),
            lambda x: 1e-30 * np.sqrt(x),
        ]
        vec = integrate_interval(lambda x: np.stack([f(x) for f in parts]), 0.0, 1.0,
                                 rtol=1e-12)
        assert vec.shape == (len(parts),)
        for f, got in zip(parts, vec):
            want = integrate_interval(f, 0.0, 1.0, rtol=1e-12)
            assert isinstance(want, float)
            assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("f, rows", [
        (lambda x: np.zeros((0, x.size)), None),
        (lambda x: np.zeros((0, x.size)), 0),
        (lambda x: (0, 0, np.zeros((0, x.size))), None),
    ], ids=["dense", "dense-rows-0", "banded"])
    def test_zero_rows(self, f, rows):
        # the dense forms once raised ZeroDivisionError from the call budget
        for edges in [None, np.linspace(0.0, 1.0, 9)]:
            got = integrate_interval(f, 0.0, 1.0, edges=edges, rows=rows)
            assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_failure_names_the_worst_component(self):
        # the ripple row is the one that cannot meet rtol 1e-16; a 1-D pass has
        # no component to name
        def noisy(x):
            return np.stack([np.exp(x), 1.0 + 1e-14 * np.sin(1e7 * x), np.exp(-x)])

        with pytest.raises(QuadratureError, match=r"on total 1\.000e\+00 of component 1 of 3$"):
            integrate_interval(noisy, 0.0, 1.0, rtol=1e-16)
        with pytest.raises(QuadratureError, match=r"on total 1\.000e\+00$"):
            integrate_interval(lambda x: noisy(x)[1], 0.0, 1.0, rtol=1e-16)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("vector", [False, True])
    def test_vector_nonfinite_raises(self, vector, value):
        # RuntimeWarnings are errors here: an infinite value once raised numpy's
        # "invalid value encountered in matmul" before the finiteness check
        def f(x):
            bad = np.where(x > 0.5, value, 1.0)
            return np.stack([np.ones_like(x), bad]) if vector else bad

        with pytest.raises(QuadratureError, match="integrand is not finite on"):
            integrate_interval(f, 0.0, 1.0)


class TestSchedule:
    """edges and rows alone fix the calls of f: one per initial panel, or,
    where the caller states f's row count, groups of initial panels under a
    row x node budget; then one per split, on both its halves, for dense
    and banded f alike."""

    @pytest.fixture
    def splits(self, monkeypatch):
        popped = []

        def heappop(heap):
            popped.append(1)
            return heapq.heappop(heap)

        monkeypatch.setattr(quadrature, "heapq",
                            SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
        return popped

    def test_dense_vector_pass(self, splits):
        # the initial K31 panel, then each split's two halves in one call
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.stack([np.exp(x), np.exp(-((x - 0.1234567) ** 2) * 1e4)])

        integrate_interval(f, 0.0, 1.0, rtol=1e-12)
        assert len(splits) > 0
        assert sizes == [31] + [62] * len(splits)
        assert sum(sizes) == 31 * (1 + 2 * len(splits))

    @staticmethod
    def two_rows(x):
        return np.stack([np.exp(x), np.exp(-((x - 0.1234567) ** 2) * 1e4)])

    def test_nonfinite_value_at_a_split_raises(self, splits):
        # 0.25 is the centre node of [0, 1/2], not a K31 node of [0, 1]: the
        # value is seen only once the first split evaluates its halves
        sizes = []

        def f(x):
            sizes.append(x.size)
            rows = self.two_rows(x)
            rows[0] = np.where(x == 0.25, np.inf, rows[0])
            return rows

        with pytest.raises(QuadratureError, match=r"^integrand is not finite on \[0, 1\]$"):
            integrate_interval(f, 0.0, 1.0, rtol=1e-12)
        assert sizes == [31, 62] and len(splits) == 1

    def test_banded_nonfinite_value_at_a_split_raises(self, splits):
        # as above, for a banded f whose window is rows 0 and 1 of three on
        # [0, 1/2]: the split's call holds both halves, and its window, the
        # hull of theirs, is all three rows
        windows = []

        def f(x):
            rows = np.concatenate([self.two_rows(x), [np.exp(-x)]])
            rows[0] = np.where(x == 0.25, np.inf, rows[0])
            window = rows[:2] if x.max() <= 0.5 else rows
            windows.append(len(window))
            return 3, 0, window

        with pytest.raises(QuadratureError, match=r"^integrand is not finite on \[0, 1\]$"):
            integrate_interval(f, 0.0, 1.0, rtol=1e-12)
        assert windows == [3, 3] and len(splits) == 1

    def partition_pass(self, monkeypatch, budget, rows=None):
        """Node counts per call, and the total, of a 2-row f from 7 panels."""
        monkeypatch.setattr(quadrature, "_MAX_CALL_VALUES", budget)
        sizes = []

        def f(x):
            sizes.append(x.size)
            return self.two_rows(x)

        return sizes, integrate_interval(f, 0.0, 1.0, rtol=1e-12, edges=np.linspace(0.0, 1.0, 8),
                                         rows=rows)

    def test_dense_pass_from_a_partition(self, splits, monkeypatch):
        # the initial step evaluates one K31 rule per panel, each in a call of
        # its own as no rows are stated, though 2^14 values would hold 264
        # panels of 2 rows; then each split's two halves in one call
        sizes, got = self.partition_pass(monkeypatch, quadrature._MAX_CALL_VALUES)
        assert len(splits) > 0
        assert sizes == [31] * 7 + [62] * len(splits)
        assert sum(sizes) == 31 * (7 + 2 * len(splits))
        assert got == pytest.approx(integrate_interval(self.two_rows, 0.0, 1.0, rtol=1e-12),
                                    rel=2e-12)

    @pytest.mark.parametrize("budget, initial", [
        (186, [93, 93, 31]),  # three panels a call
        (62, [62, 62, 62, 31]),  # one panel's worth: still two a call, as a split
        (0, [62, 62, 62, 31]),
    ])
    def test_partition_under_a_smaller_budget(self, splits, monkeypatch, budget, initial):
        # with rows = 2 stated, groups of floor(budget / (31 * 2)) panels, and at least two
        full = quadrature._MAX_CALL_VALUES
        sizes, got = self.partition_pass(monkeypatch, budget, rows=2)
        assert sizes == initial + [62] * len(splits)
        # each panel's values are what a call on its own nodes gives: the
        # grouping moves the totals by no more than the BLAS order of a rule sum
        splits.clear()
        sizes, want = self.partition_pass(monkeypatch, full, rows=2)
        assert sizes == [217] + [62] * len(splits)
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("m", [38, 100, 375])
    def test_dense_section_norms_keep_to_the_budget(self, monkeypatch, m):
        # no call holds more row x node values than the budget or two panels;
        # the pass states its rows, so the first call is a full group.
        # Fubini-Study is chart-symmetric: its pass keeps rows 0 .. m//2
        sizes, banded, _ = self.section_pass(monkeypatch, m, 1e-12)
        assert not any(banded)
        P, rows = math.isqrt(4 * m) // 3, m // 2 + 1
        group = max(2, quadrature._MAX_CALL_VALUES // (31 * rows))
        assert sizes[0] == 31 * min(group, P)
        assert max(sizes) * rows <= max(quadrature._MAX_CALL_VALUES, 62 * rows)
        # Fubini-Study meets tol 1e-12 on its initial panels: no split
        assert sum(sizes) == 31 * P
        assert len(sizes) == -(-P // group)

    @pytest.mark.parametrize("m", [0, 1, 30, 37, 38, 60, 85])
    def test_dense_initial_step_in_one_call(self, splits, monkeypatch, m):
        # Fubini-Study settles on its initial panels, all in one call:
        # max(floor(sqrt(m) / 1.5), 2) uniform in theta, x = sin^2(theta), on
        # the 2^-24 grid, which up to m = 20 are the two halves of [0, 1]
        sizes, banded, edges = self.section_pass(monkeypatch, m, 1e-12)
        assert not any(banded) and len(splits) == 0
        assert sizes == [31 * (len(edges) - 1)]
        P = max(math.isqrt(4 * m) // 3, 2)
        assert len(edges) == P + 1 and edges[0] == 0.0 and edges[-1] == 1.0
        theta = np.linspace(0.0, 0.5 * np.pi, P + 1)
        assert np.abs(edges - np.sin(theta) ** 2).max() <= 2.0**-25
        assert np.array_equal(np.round(edges * 2.0**24), edges * 2.0**24)
        if m <= 20:
            assert edges.tolist() == [0.0, 0.5, 1.0]

    def test_scalar_first_panel_alone(self, splits):
        # with no rows stated, each initial panel goes in a call of its own,
        # the first as the other 6, for a 1-D f as for a vector one (above)
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(x)

        integrate_interval(f, 0.0, 1.0, rtol=1e-12, edges=np.linspace(0.0, 1.0, 8))
        assert sizes == [31] * 7 + [62] * len(splits)

    def test_stated_rows_take_the_first_call(self, splits):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return self.two_rows(x)

        got = integrate_interval(f, 0.0, 1.0, rtol=1e-12, edges=np.linspace(0.0, 1.0, 8), rows=2)
        assert sizes == [217] + [62] * len(splits)
        assert got == pytest.approx(integrate_interval(self.two_rows, 0.0, 1.0, rtol=1e-12),
                                    rel=2e-12)

    def test_first_call_adds_its_panels_in_order(self, splits):
        # the first call's panels enter the totals one by one, in panel order,
        # as every other panel does: 20 panels of one row are past the 8 terms
        # from which a numpy sum pairs them
        def f(x):  # on these panels, a numpy sum of its panel sums rounds otherwise
            return np.cos(7.0 * x)[None]

        edges = tuple(np.linspace(0.0, 1.0, 21))
        _, _, _, sums = quadrature._rules(f, edges)
        want = 0.0
        for panel in sums:
            want += panel[0, 0]
        assert sums.sum(axis=0)[0, 0] != want
        got = integrate_interval(f, 0.0, 1.0, rtol=1e-10, edges=edges, rows=1)
        assert len(splits) == 0 and got[0] == want

    def test_nodes_are_shared_and_read_only(self):
        # f receives one read-only node array per edges tuple, on every call: a
        # write into it raises ValueError and leaves the nodes of later calls intact
        seen = []

        def f(x):
            seen.append(x)
            return np.exp(x)

        want = integrate_interval(f, 0.0, 1.0)
        integrate_interval(f, 0.0, 1.0)
        assert seen[0] is seen[1] and not seen[0].flags.writeable
        nodes = seen[0].copy()

        def writer(x):
            x *= 2.0
            return np.exp(x)

        with pytest.raises(ValueError, match="read-only"):
            integrate_interval(writer, 0.0, 1.0)
        assert seen[0].tobytes() == nodes.tobytes()
        assert integrate_interval(f, 0.0, 1.0) == want

    def test_node_cache_is_bounded(self):
        # at most _NODE_CACHE_SIZE tuples of at most _NODE_CACHE_PANELS panels each
        # (32 floats a panel, its nodes and half-width): 512 KiB; a longer
        # tuple's nodes are built for the call and not kept
        cache, panels = quadrature._panel_nodes, quadrature._NODE_CACHE_PANELS
        assert cache.cache_info().maxsize * panels * 32 * 8 <= 2**19
        cache.cache_clear()
        for n in (panels, panels + 1):
            got = integrate_interval(lambda x: np.exp(x)[None], 0.0, 1.0,
                                     edges=tuple(np.linspace(0.0, 1.0, n + 1)), rows=1)
            assert got[0] == pytest.approx(math.e - 1.0, rel=1e-14)
        assert cache.cache_info().currsize == 1

    @pytest.mark.parametrize("f, rows, match", [
        (two_rows, 3, r"rows = 3 was stated, but f gives an integral of shape \(2,\)"),
        (two_rows, 1, r"shape \(2,\)"),
        (np.exp, 1, r"rows = 1 was stated, but f gives an integral of shape \(\)"),
        (lambda x: (4, 1, np.stack([x, x])), 4, "rows = 4 was stated, but f is banded"),
    ])
    def test_wrong_row_count_raises(self, f, rows, match):
        with pytest.raises(ValueError, match=match):
            integrate_interval(f, 0.0, 1.0, edges=(0.0, 0.5, 1.0), rows=rows)

    def test_breakpoint_at_a_kink(self, splits):
        # |x - 1/3| is linear on either side of its kink: with an edge there
        # the initial panels are exact, while bisection has to close in on it
        def kink(x):
            return np.abs(x - 1.0 / 3.0)

        exact = 5.0 / 18.0
        assert integrate_interval(kink, 0.0, 1.0, rtol=1e-12) == pytest.approx(exact, rel=1e-12)
        bisected = 1 + len(splits)
        splits.clear()
        got = integrate_interval(kink, 0.0, 1.0, rtol=1e-12, edges=(0.0, 1.0 / 3.0, 1.0))
        assert got == pytest.approx(exact, rel=1e-12)
        assert 2 + len(splits) < bisected

    @pytest.mark.parametrize("edges", [(0.5, 1.0), (0.0, 0.5), (0.0, 0.5, 0.5, 1.0),
                                       (0.0, 0.7, 0.5, 1.0), (0.0, math.nan, 1.0)])
    def test_rejects_bad_partition(self, edges):
        # a nan edge once passed and ran to QuadratureError after RuntimeWarnings
        with pytest.raises(ValueError, match="edges"):
            integrate_interval(np.exp, 0.0, 1.0, edges=edges)

    @staticmethod
    def section_pass(monkeypatch, m, tol, metric=None):
        """Node counts and whether banded per call, and the edges, of a section_norms
        pass, on Fubini-Study unless metric is given."""
        sizes, banded, starts = [], [], []

        def counted(f, *args, edges, **kwargs):
            starts.append(edges)

            def g(x):
                sizes.append(x.size)
                out = f(x)
                banded.append(isinstance(out, tuple))
                return out

            return integrate_interval(g, *args, edges=edges, **kwargs)

        monkeypatch.setattr(density, "integrate_interval", counted)
        section_norms(metric or RadialMetric.fubini_study(), m, tol)
        return sizes, banded, np.array(starts[0])

    @pytest.mark.parametrize("m", [0, 1, 5, 20, 25, 28, *range(29, 38),
                                   38, 40, 50, 60, 100, 200, 375, 1060, 5000])
    @pytest.mark.parametrize("profile", [RadialProfile.eigenfunction_bump(0.1),
                                         RadialProfile.rational_bump(0.2),
                                         RadialProfile((0.0, 0.05, -0.02))],
                             ids=["eigenfunction-bump-0.1", "rational-bump-0.2", "phi1-poly"])
    def test_perturbed_passes_settle_on_their_initial_panels(self, splits, monkeypatch,
                                                             profile, m):
        # at tol 1e-12 no perturbed pass splits.  From the halves of [0, 1],
        # where passes below m = 38 once started, the rational bump 0.2 split
        # once at m = 29-37, the bump 0.1 at m = 31-37 and the phi1-poly at
        # m = 36-37
        self.section_pass(monkeypatch, m, 1e-12, RadialMetric(profile))
        assert len(splits) == 0

    @pytest.mark.parametrize("m, P, kept", [(1060, 21, 13), (5000, 47, 26)])
    def test_banded_section_norms(self, splits, monkeypatch, m, P, kept):
        # a banded pass states no rows, so each initial panel goes in a call
        # of its own, and each split's halves in one call.  The partition
        # has P panels; Fubini-Study's pass keeps rows 0 .. m//2 and
        # the first kept panels, up to the first edge past row m//2's upper
        # support, the support the pass itself found at its cut.  At m = 1060
        # and 5000 and tol 1e-12 they need no split at all
        supports, found = density._Rows.supports, []
        monkeypatch.setattr(density._Rows, "supports",
                            lambda self, cut: found.append(supports(self, cut)) or found[-1])
        sizes, banded, edges = self.section_pass(monkeypatch, m, 1e-12)
        assert all(banded)
        full = np.array(density._graded_edges(m))
        assert P == int(math.sqrt(m) / 1.5) and len(full) == P + 1
        assert len(edges) == kept + 1 and np.array_equal(edges, full[:kept + 1])
        [(_, upper)] = found
        assert edges[-2] < upper[-1] <= edges[-1]
        # uniform in theta, x = sin^2(theta), on the 2^-24 grid
        theta = np.arcsin(np.sqrt(full))
        assert np.allclose(np.diff(theta), np.pi / (2 * P), atol=1e-6)
        assert np.array_equal(np.round(full * 2.0**24), full * 2.0**24)
        assert len(splits) == 0
        assert sizes == [31] * kept + [62] * len(splits)

    def test_banded_refinement_after_the_partition(self, splits, monkeypatch):
        # at m = 2000 and tol 1e-14 the eigenfunction bump 0.1's 29 panels
        # need 16 splits (Fubini-Study's half pass needs none there), each one
        # 62-node call on both its halves
        metric = RadialMetric(RadialProfile.eigenfunction_bump(0.1))
        sizes, banded, edges = self.section_pass(monkeypatch, 2000, 1e-14, metric)
        assert all(banded)
        assert len(edges) == 30 and len(splits) > 0
        assert sizes == [31] * 29 + [62] * len(splits)


class TestCP1Integral:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_nonfinite_raises(self, value):
        # an infinite value once raised numpy's "invalid value encountered in
        # subtract" from the settle test, RuntimeWarnings being errors here
        with pytest.raises(QuadratureError, match="integrand is not finite on"):
            cp1_integral(lambda z: np.where(abs(z) > 2, value, 1.0))

    def test_unit_volume(self):
        # the Fubini-Study form is dx dtheta / 2 pi on [0, 1]: the constant 1
        # integrates to 1 within the rounding of its K31 weights
        got = cp1_integral(lambda z: np.ones(z.shape))
        assert abs(got - 1.0) <= 2 * math.ulp(1.0)

    def test_gamma_integral(self):
        # int_0^inf s e^{-s} ds, its weight folded into F with (1+s)^2
        def F(z):
            s = np.abs(z) ** 2
            return s * np.exp(-s) * (1.0 + s) ** 2

        assert cp1_integral(F, rtol=1e-12, atol=0.0) == pytest.approx(1.0, rel=1e-12)

    def test_beta_moments(self):
        # (1/pi) int s^j (1+s)^{-(m+2)} dA = j! (m-j)! / (m+1)!; in the
        # Fubini-Study form the weight (1+s)^{-(m+2)} is F's factor (1+s)^{-m}
        for m in (0, 1, 3, 8, 12):
            for j in range(0, m + 1, max(1, m // 3)):
                def F(z, j=j, m=m):
                    s = np.abs(z) ** 2
                    return s**j * (1.0 + s) ** (-m)

                exact = Fraction(
                    math.factorial(j) * math.factorial(m - j), math.factorial(m + 1)
                )
                got = cp1_integral(F)
                assert got == pytest.approx(float(exact), rel=1e-10), (m, j)

    def test_angular_dependence(self):
        # Re(z^2)^2 averages to s^2/2 on each circle; (1/pi) int of that
        # times (1+s)^{-5} dA is 1/24
        def F(z):
            return np.real(z**2) ** 2 * (1.0 + np.abs(z) ** 2) ** (-3)

        assert cp1_integral(F) == pytest.approx(1.0 / 24.0, rel=1e-10)

    def test_zero_integrand(self):
        assert cp1_integral(lambda z: np.zeros_like(z, dtype=float)) == 0.0

    def test_angular_refinement_failure(self):
        # an angular profile that is discontinuous for |z|^2 > 1.5 never
        # settles under doubling there: the first radial integrand call
        # raises, its F calls shrinking to the unsettled nodes, instead of
        # spending a radial pass's whole panel budget
        calls = []

        def F(z):
            calls.append(z.shape)
            step = (np.cos(np.angle(z)) ** 2 > 0.5).astype(float)
            return np.where(np.abs(z) ** 2 > 1.5, step, 1.0)

        with pytest.raises(QuadratureError, match="n_theta = 1024, the cap"):
            cp1_integral(F, rtol=1e-12, atol=0.0)
        # the 31 nodes of one K31 rule on 128 points, then on 256, 512 and
        # 1024 the 12 of the outer 14 (x > 0.6) whose 128-point gap is not 0
        assert calls == [(31, 128), (12, 256), (12, 512), (12, 1024)]

    def test_complex_integrand_rejected(self):
        # its real part used to be integrated with only a ComplexWarning
        with pytest.raises(ValueError, match="real-valued"):
            cp1_integral(lambda z: z)
        with pytest.raises(ValueError, match="real-valued"):
            cp1_integral(lambda z: np.stack([np.abs(z), z * 0]))

    def test_vector_matches_scalar_calls(self):
        # each against (1+s)^{-6} dA / pi, that is F's factor (1+s)^{-4}
        parts = [
            lambda z: np.abs(z) ** 2,
            lambda z: np.real(z**2) ** 2,
            lambda z: np.imag(z) / (1.0 + np.abs(z) ** 2),
            lambda z: np.exp(-np.abs(z - 0.5) ** 2),
        ]
        parts = [lambda z, f=f: f(z) * (1.0 + np.abs(z) ** 2) ** (-4) for f in parts]

        vec = cp1_integral(lambda z: np.stack([f(z) for f in parts]))
        assert vec.shape == (len(parts),)
        for f, got in zip(parts, vec):
            want = cp1_integral(f)
            assert isinstance(want, float)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)

    @pytest.fixture
    def radial_passes(self, monkeypatch):
        # cp1_integral's integrate_interval calls, one per radial pass
        passes = []
        original = quadrature.integrate_interval

        def counted(*args, **kwargs):
            passes.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_interval", counted)
        return passes

    def test_vector_oracles_in_one_radial_pass(self, radial_passes):
        # Beta moments and Re(z^2)^2 together; smooth rows settle on the
        # first (64, 128) pair, so a single radial pass does all the work
        m = 8

        def F(z):
            # against (1+s)^{-(m+2)} dA / pi, that is F's factor (1+s)^{-m}
            s = np.abs(z) ** 2
            rows = [s**j for j in range(m + 1)] + [np.real(z**2) ** 2 * (1.0 + s) ** (m - 3)]
            return np.stack(rows) * (1.0 + s) ** (-m)

        got = cp1_integral(F)
        exact = [math.factorial(j) * math.factorial(m - j) / math.factorial(m + 1)
                 for j in range(m + 1)]
        assert got[:-1] == pytest.approx(exact, rel=1e-10)
        assert got[-1] == pytest.approx(1.0 / 24.0, rel=1e-10)
        assert len(radial_passes) == 1

    def test_aliased_first_pair_moves_on(self, radial_passes):
        # cos(64 theta) aliases to 1 on the 64-point circle and averages to 0
        # on finer ones, at every radius: each node's (64, 128) pair is
        # unsettled and its value comes from the (128, 256) pair, all in
        # one radial pass
        calls = []

        def F(z):
            calls.append(z.shape)
            return 1.0 + np.cos(64.0 * np.angle(z)) + np.abs(z) ** 2 / (1.0 + np.abs(z) ** 4)

        got = cp1_integral(F)
        # int_0^inf s/(1+s^2) (1+s)^-2 ds = (pi/2 - 1)/2
        assert got == pytest.approx(1.0 + (math.pi / 2.0 - 1.0) / 2.0, rel=1e-10)
        assert len(radial_passes) == 1
        # the aliased nodes, here all of them, go on to the 256-point circle
        assert calls == [(n, size) for n, _ in calls[::2] for size in (128, 256)]

    def test_frequency_growing_with_radius(self, radial_passes):
        # Re e^{w (z - |z|)} has modes up to about w |z| on the circle |z|,
        # and its circle mean is e^{-w |z|} (the mean value property); the
        # Gaussian keeps the integral finite
        w = 8.0
        calls = []

        def F(z):
            calls.append((z.shape[1], np.abs(z[:, 0])))
            return np.real(np.exp(w * (z - np.abs(z)))) * np.exp(-np.abs(z) ** 2)

        got = cp1_integral(F, rtol=1e-12, atol=0.0)
        assert len(radial_passes) == 1
        want = integrate_interval(lambda x: np.exp(-w * np.sqrt(x / (1 - x)) - x / (1 - x)),
                                  0.0, 1.0, rtol=1e-13)
        assert got == pytest.approx(want, rel=1e-12)
        radii = {n: np.concatenate([r for size, r in calls if size == n] or [[]])
                 for n in (128, 256, 512, 1024)}
        # each node is evaluated once per circle it reaches
        assert all(len(np.unique(r)) == len(r) for r in radii.values())
        # nodes at small radius once, on 128 points; outer ones go on to 512
        assert radii[256].min() > 2.0 and len(radii[512]) > 0 and len(radii[1024]) == 0
        assert np.all(np.isin(radii[256], radii[128]))
        assert np.count_nonzero(radii[128] <= 2.0) > 100

    def test_screen_removed(self):
        # cp1_integral no longer abandons passes from outside the integrand
        assert "screen" not in inspect.signature(integrate_interval).parameters
        with pytest.raises(TypeError):
            integrate_interval(lambda x: x, 0.0, 1.0, screen=lambda total, err: None)


class TestMonomialKernel:
    @pytest.mark.parametrize("n,m_max", [(1, 4), (2, 3)])
    def test_matches_exact_rational(self, n, m_max):
        import itertools

        for m in range(m_max + 1):
            for P in itertools.product(range(m + 1), repeat=n):
                if sum(P) > m:
                    continue
                exact = float(fs_monomial_integral(n, m, P))
                got = monomial_kernel_quadrature(n, m, P)
                assert got == pytest.approx(exact, rel=1e-9), (n, m, P)

    def test_n2_matches_exact_over_bench_range(self):
        # two scalar passes per index, one per coordinate
        for m in range(4, 32):
            degree = m % 7
            for p1 in range(degree + 1):
                P = (p1, degree - p1)
                exact = float(fs_monomial_integral(2, m, P))
                assert monomial_kernel_quadrature(2, m, P) == pytest.approx(exact, rel=1e-9), (m, P)

    @pytest.mark.parametrize("n,m,P", [
        (1, 1000, (0,)), (1, 1000, (1,)), (1, 1000, (250,)), (1, 1000, (400,)),
        (1, 1000, (999,)), (1, 1000, (1000,)),
        (1, 5000, (0,)), (1, 5000, (1,)), (1, 5000, (60,)), (1, 5000, (4900,)),
        (1, 5000, (5000,)),
        (2, 1000, (0, 0)), (2, 1000, (3, 7)), (2, 1000, (1000, 0)), (2, 1000, (0, 1000)),
        (2, 1000, (998, 1)), (2, 1000, (120, 40)), (2, 1000, (100, 800)),
        (2, 5000, (0, 0)), (2, 5000, (3, 7)), (2, 5000, (5000, 0)), (2, 5000, (1, 4999)),
        (2, 5000, (4998, 1)), (2, 5000, (40, 30)), (2, 5000, (4900, 50)),
        (1, 1000, (496,)), (2, 1000, (0, 510)), (2, 1000, (490, 510)), (2, 1000, (510, 0)),
        (2, 1000, (560, 440)),
    ])
    def test_large_m_within_1e_14(self, n, m, P):
        # kernels in logs of t and 1 + t were up to 4.4e-13 off here, and
        # the nested pass raised QuadratureError on an overflowing s1^p1
        # for the larger p1.  Compared with the exact Fraction; every value
        # is a normal float.  The last five lie below tiny / rtol, where
        # integrate_interval holds a total only to tiny absolute: they were
        # 5.8e-14 to 3.3e-13 off before each kernel's peak was scaled to [1/4, 1)
        exact = fs_monomial_integral(n, m, P)
        assert float(exact) > np.finfo(float).tiny
        got = monomial_kernel_quadrature(n, m, P)
        assert abs(float(Fraction(got) / exact) - 1.0) <= 1e-14

    def test_every_index_at_m_1000_within_1e_14(self):
        # n = 1, all 1,001 indices, whose exact values reach down to 3.7e-303;
        # the worst was 1.0e-11 with the floor at tiny binding
        worst = max(abs(float(Fraction(monomial_kernel_quadrature(1, 1000, (p,)))
                              / fs_monomial_integral(1, 1000, (p,))) - 1.0)
                    for p in range(1001))
        assert worst <= 1e-14

    def test_one_scalar_pass_per_coordinate(self, monkeypatch):
        # each coordinate is one scalar pass at rtol / n; on the
        # bench workload's indices (m = 4, 7, ..., 31, every split of
        # |P| = m mod 7) each pass is one K31 rule, 2,356 kernel values in
        # all, where the nested vector passes took 687,332
        original = quadrature.integrate_interval
        calls = []  # per pass: its rtol, then the size of each integrand call

        def counted(f, *args, rtol, **kwargs):
            calls.append([rtol])

            def g(x):
                out = f(x)
                assert np.shape(out) == np.shape(x)  # a scalar integrand
                calls[-1].append(out.size)
                return out

            return original(g, *args, rtol=rtol, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_interval", counted)
        ops = [(m, (p1, m % 7 - p1)) for m in range(4, 32, 3) for p1 in range(m % 7 + 1)]
        for m, P in ops:
            monomial_kernel_quadrature(2, m, P, rtol=1e-10)
        assert calls == [[0.5e-10, 31]] * (2 * len(ops))
        assert sum(call[1] for call in calls) == 2356
        calls.clear()
        monomial_kernel_quadrature(1, 9, (4,), rtol=1e-10)
        assert [call[0] for call in calls] == [1e-10]

    @pytest.mark.parametrize("m,P", [(m, (p1, m % 7 - p1)) for m in range(4, 32)
                                     for p1 in range(m % 7 + 1)]
                             + [(m, P) for m in (100, 1000)
                                for P in [(0, 0), (3, 7), (19, 0), (0, m), (1, m - 1), (19, m - 19)]])
    def test_matches_the_nested_pass(self, m, P):
        # the two-dimensional iterated integral, integrated as it stands,
        # on indices where its s1^p1 stays finite
        reference = nested_monomial_quadrature(m, P)
        assert monomial_kernel_quadrature(2, m, P) == pytest.approx(reference, rel=1e-12)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            monomial_kernel_quadrature(3, 2, (0, 0, 0))

    def test_rejects_negative_component(self):
        # (-1, 3) once overflowed in s1^-1 instead of being rejected
        with pytest.raises(ValueError, match="nonnegative"):
            monomial_kernel_quadrature(2, 2, (-1, 3))

    def test_rejects_overweight_index(self):
        with pytest.raises(ValueError):
            monomial_kernel_quadrature(1, 1, (2,))

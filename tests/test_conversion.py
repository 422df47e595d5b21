"""Exact Laplacian-power combinatorics and the eigenvalue variation series.

The independent oracle here is symbolic Wirtinger calculus (sympy): the
Fubini-Study Laplacian on the standard chart is
Delta f = (1 + |z|^2) * sum_ij (delta_ij + z_i zbar_j) d^2 f / dz_i dzbar_j,
with zbar treated as an independent variable.
"""

import itertools
import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rewrite_reference import tuple_rewrite_at_zero
from series_reference import add, from_roots, normalized, poly, series_from_polynomial, x
from variation_reference import (TriangularVariationEngine, triangular_delta_polynomials,
                                 variation_order1_polynomial)

from cpnbergman import (
    ConversionTable,
    InverseMSeries,
    admissible_eigenvalue_scan,
    conversion_polynomials,
    delta_c_power_at_zero,
    eigen_delta_c_values,
    fs_monomial_integral,
    laplacian_power_at_zero,
    polynomiality_criterion,
    sigma_prime_closed_form,
    variation_series_eigen,
)
from cpnbergman.conversion import _variation_numerators

GOLDEN = Path(__file__).with_name("golden")


def _sympy_laplacian_power(n, P, Q, k):
    """[Delta^k z^P zbar^Q](0) by symbolic differentiation."""
    zs = sp.symbols("z0:%d" % n)
    ws = sp.symbols("w0:%d" % n)
    s = sum(z * w for z, w in zip(zs, ws))
    expr = sp.Integer(1)
    for z, p in zip(zs, P):
        expr *= z**p
    for w, q in zip(ws, Q):
        expr *= w**q
    for _ in range(k):
        acc = sp.Integer(0)
        for i in range(n):
            for j in range(n):
                coef = (1 if i == j else 0) + zs[i] * ws[j]
                acc += coef * sp.diff(expr, zs[i], ws[j])
        expr = sp.expand((1 + s) * acc)
    value = expr.subs({v: 0 for v in (*zs, *ws)})
    return Fraction(int(sp.Integer(value)))


def _all_indices(n, max_degree):
    ranges = [range(max_degree + 1)] * n
    return [P for P in itertools.product(*ranges) if sum(P) <= max_degree]


@pytest.mark.parametrize("call", [
    lambda: laplacian_power_at_zero(2, (1, -1), 1),
    lambda: laplacian_power_at_zero(2, (1,), 1),
    lambda: fs_monomial_integral(2, 5, (-1, 2)),
    lambda: fs_monomial_integral(2, 5, (0, 0, 1)),
    lambda: delta_c_power_at_zero(0, (1, -1)),
], ids=["laplacian-negative", "laplacian-short", "fs-negative", "fs-long", "flat-negative"])
def test_malformed_multi_index_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: conversion_polynomials(0, 3), "need n >= 1 and K >= 1"),
    (lambda: conversion_polynomials(1, 0), "need n >= 1 and K >= 1"),
    (lambda: eigen_delta_c_values(0, 3), "need n >= 1"),
    (lambda: eigen_delta_c_values(1, -1), "need n >= 1 and K >= 0"),
    (lambda: variation_series_eigen(0, 2, 4), "need n >= 1 and J >= 1"),
    (lambda: variation_series_eigen(1, 2, 0), "need n >= 1 and J >= 1"),
    (lambda: admissible_eigenvalue_scan(0, 3, 4), "need n >= 1 and J >= 1"),
    (lambda: admissible_eigenvalue_scan(1, 3, 0), "need n >= 1 and J >= 1"),
    (lambda: admissible_eigenvalue_scan(1, -1, 6), "k_max = -1 is negative"),
    (lambda: delta_c_power_at_zero(-1, (1,)), "l must be >= 0"),
], ids=["table-n", "table-K", "deltas-n", "deltas-K", "series-n", "series-J", "scan-n", "scan-J",
        "scan-negative-k_max", "flat-negative-order"])
def test_outside_the_exact_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestLaplacianPowers:
    def test_stated_values(self):
        assert laplacian_power_at_zero(1, (0,), 1) == 0
        assert laplacian_power_at_zero(1, (1,), 1) == 1
        assert laplacian_power_at_zero(1, (2,), 2) == 4

    @pytest.mark.parametrize("n", [1, 2])
    def test_against_symbolic_differentiation(self, n):
        for P in _all_indices(n, 2):
            for k in range(4):
                assert laplacian_power_at_zero(n, P, k) == _sympy_laplacian_power(
                    n, P, P, k
                ), (n, P, k)

    @pytest.mark.parametrize("n", [1, 2])
    def test_mixed_against_symbolic_differentiation(self, n):
        # Delta^k (z^P zbar^Q)(0) = 0 for P != Q: the premise of rewriting |z^P|^2 alone
        pairs = [
            (P, Q)
            for P in _all_indices(n, 2)
            for Q in _all_indices(n, 2)
            if P != Q
        ]
        for P, Q in pairs:
            for k in range(3):
                assert _sympy_laplacian_power(n, P, Q, k) == 0, (n, P, Q, k)

    def test_matches_pinned_values(self):
        # n = 1..4, |P| <= 3, k <= 6 (k <= 4 for n >= 3), pinned from the
        # Fraction rewrite this integer engine replaced
        rows = json.loads((GOLDEN / "laplacian_power_at_zero.json").read_text())
        assert len(rows) == 69
        for row in rows:
            n, P = row["n"], tuple(row["P"])
            for k, want in enumerate(row["k_values"]):
                assert laplacian_power_at_zero(n, P, k) == want, (n, P, k)

    @pytest.mark.parametrize("bad", [(1,), (1, 2, 3), (1, -1)])
    def test_rejects_malformed_index(self, bad):
        with pytest.raises(ValueError):
            laplacian_power_at_zero(2, bad, 1)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            laplacian_power_at_zero(2, (1, 0), -1)


class TestRewriteAgainstReference:
    """The integer-keyed rewrite against the tuple-keyed one in rewrite_reference."""

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 30, 60])
    def test_one_variable(self, k):
        for p in range(4):
            got = laplacian_power_at_zero(1, (p,), k)
            assert type(got) is Fraction and got == tuple_rewrite_at_zero((p,), k), (p, k)

    @pytest.mark.parametrize("n", [2, 3])
    def test_several_variables(self, n):
        for P in _all_indices(n, 3):
            for k in range(8):
                assert laplacian_power_at_zero(n, P, k) == tuple_rewrite_at_zero(P, k), (P, k)

    def test_conversion_identity_at_the_top_row(self):
        # the row the benchmark's n = 1, K = 60 check reaches
        t = conversion_polynomials(1, 60)
        for p in range(4):
            lhs = sum(t.coefficient(60, l) * delta_c_power_at_zero(l, (p,)) for l in range(61))
            assert lhs == laplacian_power_at_zero(1, (p,), 60) == tuple_rewrite_at_zero((p,), 60)


class TestDeltaCAndIntegrals:
    def test_delta_c_values(self):
        assert delta_c_power_at_zero(2, (1, 1)) == 2
        assert delta_c_power_at_zero(1, (2,)) == 0
        assert delta_c_power_at_zero(3, (3,)) == 36

    def test_monomial_integral_values(self):
        assert fs_monomial_integral(1, 2, (1,)) == Fraction(1, 6)
        assert fs_monomial_integral(1, 0, (0,)) == 1
        assert fs_monomial_integral(2, 3, (2, 1)) == Fraction(1, 60)

    def test_monomial_integral_rejects_large_index(self):
        with pytest.raises(ValueError):
            fs_monomial_integral(1, 1, (2,))


class TestConversionTable:
    def test_low_order_polynomials(self):
        t = conversion_polynomials(1, 3)
        assert t.rows == ((0, 1), (0, 2, 1), (0, 8, 10, 1))

    def test_row_constraints(self):
        for n in (1, 2, 3):
            t = conversion_polynomials(n, 5)
            for k in range(1, 6):
                assert t.coefficient(k, 0) == 0
                assert t.coefficient(k, k) == 1

    def test_second_row_depends_on_dimension(self):
        # a_{2,1} = n + 1 comes straight out of the recursion
        for n in (1, 2, 3, 4):
            t = conversion_polynomials(n, 2)
            assert t.coefficient(2, 1) == n + 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_converts_laplacian_powers(self, n):
        K = 4
        t = conversion_polynomials(n, K)
        for P in _all_indices(n, K):
            for k in range(1, K + 1):
                lhs = sum(
                    t.coefficient(k, l) * delta_c_power_at_zero(l, P)
                    for l in range(k + 1)
                )
                assert lhs == laplacian_power_at_zero(n, P, k), (n, P, k)

    def test_out_of_range_row(self):
        t = conversion_polynomials(1, 2)
        with pytest.raises(ValueError, match="row 3 not computed"):
            t.coefficient(3, 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_entries_are_ints(self, n):
        t = conversion_polynomials(n, 60)
        assert all(type(a) is int for row in t.rows for a in row)
        for k in (1, 30, 60):
            for l in (-1, k + 1, k + 5):
                c = t.coefficient(k, l)
                assert type(c) is int and c == 0, (k, l)
            assert all(type(t.coefficient(k, l)) is int for l in range(k + 1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_polynomials_match_a_fraction_recursion(self, n):
        # a_{k+1,l} = a_{k,l-1} + l(2l+n-1) a_{k,l} + l^2 (l+1)(l+n) a_{k,l+1}, in Fractions
        t = conversion_polynomials(n, 60)
        row = [Fraction(0), Fraction(1)]
        for k in range(1, 61):
            assert t.rows[k - 1] == tuple(row), k
            row = row + [Fraction(0), Fraction(0)]
            row = [Fraction(0)] + [row[l - 1] + l * (2 * l + n - 1) * row[l]
                                   + l * l * (l + 1) * (l + n) * row[l + 1]
                                   for l in range(1, k + 2)]

    @pytest.mark.parametrize("n,k,P", [(1, 60, (2,)), (1, 57, (3,)), (2, 5, (1, 1)),
                                       (3, 4, (0, 2, 1))])
    def test_corrupted_row_breaks_identity(self, n, k, P):
        # the benchmark's self-test: a_{k,|P|} + 1 must no longer convert
        t = conversion_polynomials(n, 60)

        def lhs(table):
            return sum(table.coefficient(k, l) * delta_c_power_at_zero(l, P)
                       for l in range(k + 1))

        rows = [list(r) for r in t.rows]
        rows[k - 1][sum(P)] += 1
        bad = ConversionTable(n=n, rows=tuple(tuple(r) for r in rows))
        want = laplacian_power_at_zero(n, P, k)
        assert lhs(t) == want
        assert lhs(bad) != want

    @given(
        n=st.integers(min_value=1, max_value=2),
        exps=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=2),
        k=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_conversion_identity_random(self, n, exps, k):
        P = tuple(exps[:n]) + (0,) * (n - len(exps))
        t = conversion_polynomials(n, max(k, 1))
        rhs = laplacian_power_at_zero(n, P, k)
        if k == 0:
            lhs = delta_c_power_at_zero(0, P)
        else:
            lhs = sum(
                t.coefficient(k, l) * delta_c_power_at_zero(l, P)
                for l in range(k + 1)
            )
        assert lhs == rhs


class TestEigenDeltaC:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tuples_of_ints(self, n):
        # delta_k: k + 1 ints in lambda, low degree first, with lead (-1)^k
        d = eigen_delta_c_values(n, 60)
        assert len(d) == 61
        for k, p in enumerate(d):
            assert type(p) is tuple and all(type(c) is int for c in p), k
            assert len(p) == k + 1 and p[-1] == (-1) ** k, k
        assert eigen_delta_c_values(n, 0) == [(1,)]

    def test_low_order(self):
        d = [poly(p) for p in eigen_delta_c_values(1, 2)]
        lam = poly([0, 1])
        assert d[0] == poly([1])
        assert d[1] == -lam
        assert d[2] == lam * lam + 2 * lam

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_solves_triangular_system(self, n):
        K = 5
        t = conversion_polynomials(n, K)
        d = [poly(p) for p in eigen_delta_c_values(n, K)]
        lam = poly([0, 1])
        for k in range(1, K + 1):
            total = sum((d[l] * t.coefficient(k, l) for l in range(k + 1)), poly([]))
            assert total == (-lam) ** k, (n, k)


class TestVariationSeries:
    def test_first_eigenvalue_truncates(self):
        s = variation_series_eigen(1, 2, 4, normalized=True)
        assert s.lead == 2
        assert s.leading_coefficients(5) == [1, 1, 0, 0, 0]

    def test_constant_direction_vanishes(self):
        assert variation_series_eigen(1, 0, 2, centered=True).is_zero()

    def test_higher_eigenvalue_has_tail(self):
        s = variation_series_eigen(1, 8, 5, normalized=True)
        tail = s.leading_coefficients(6)[2:]
        assert any(c != 0 for c in tail)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_eigenvalue_tail_vanishes_all_n(self, n):
        J = n + 5
        s = variation_series_eigen(n, n + 1, J, normalized=True)
        coeffs = s.leading_coefficients(J + 1)
        for j in range(n + 1, J + 1):
            assert coeffs[j] == 0, (n, j)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order_one_polynomial_roots(self, n):
        p = variation_order1_polynomial(n)
        assert p.degree() == 2
        assert p.eval(0) == 0
        assert p.eval(n + 1) == 0
        # proportional to lambda * (lambda - (n+1)) with nonzero constant
        c = p.LC()
        assert c != 0
        assert p == from_roots([0, n + 1]) * c


def _reference_variation(n, J, lams):
    """variation_series_eigen built straight from its definition.

    -((m+n)!/m!)^2/n! (m + lambda) sum_k delta_k/k! (m-k)!/(m+n)!, plus
    (m+n)!/m! m/n! when centered, in sympy polynomial and InverseMSeries
    arithmetic; delta_k solves (-lambda)^k = sum_l a_{k,l} delta_l.
    Yields (lambda, centered, series, normalized series).
    """
    table = conversion_polynomials(n, J)

    def rising(first, last):
        return from_roots([-i for i in range(first, last + 1)])

    recips = [series_from_polynomial(rising(1 - k, n), J).reciprocal()
              for k in range(J + 1)]
    Q = rising(1, n)
    prefactor = series_from_polynomial(Q * Q * sp.Rational(-1, factorial(n)), J)
    back = series_from_polynomial(Q * x * sp.Rational(1, factorial(n)), J)
    for lam in lams:
        lam = Fraction(lam)
        deltas = [Fraction(1)]
        for k in range(1, J + 1):
            deltas.append((-lam) ** k - sum(table.coefficient(k, l) * deltas[l]
                                            for l in range(1, k)))
        S = InverseMSeries.zero(-n - J)
        for k, d in enumerate(deltas):
            S = add(S, recips[k] * (d / factorial(k)))
        raw = prefactor * series_from_polynomial(poly([lam, 1]), J) * S
        for centered in (False, True):
            series = add(raw, back) if centered else raw
            yield lam, centered, series, normalized(series)


class TestVariationEngine:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_definition(self, n):
        lams = [0, 1, Fraction(7, 3), -2] + [k * (k + n) for k in (1, 2, 3)]
        for J in (1, 2, 3, 7, 20):
            for lam, centered, raw, norm in _reference_variation(n, J, lams):
                got = variation_series_eigen(n, lam, J, centered=centered, normalized=False)
                assert got == raw, (n, J, lam, centered)
                assert variation_series_eigen(n, lam, J, centered=centered) == norm, \
                    (n, J, lam, centered)

    @pytest.mark.parametrize("J", [40, 60])
    def test_resonant_levels_match_closed_form(self, J):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                got = variation_series_eigen(n, k * (k + n), J)
                assert got == sigma_prime_closed_form(n, k, J), (n, k, J)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scan_at_order_40(self, n):
        assert admissible_eigenvalue_scan(n, 3, 40) == {1}

    @given(
        n=st.integers(min_value=1, max_value=4),
        lam=st.fractions(min_value=-40, max_value=40, max_denominator=9),
        J=st.integers(min_value=1, max_value=12),
        centered=st.booleans(),
    )
    @example(n=1, lam=Fraction(0), J=3, centered=True)  # the zero series
    @example(n=2, lam=Fraction(3), J=6, centered=True)  # three leading orders cancel
    @settings(max_examples=60, deadline=None)
    def test_normalized_is_raw_series_normalized(self, n, lam, J, centered):
        raw = variation_series_eigen(n, lam, J, centered=centered, normalized=False)
        assert variation_series_eigen(n, lam, J, centered=centered) == normalized(raw)

    def test_rejects_float_eigenvalue(self):
        with pytest.raises(TypeError):
            variation_series_eigen(1, 0.1, 4)
        assert variation_series_eigen(1, "1/10", 4) == variation_series_eigen(1, Fraction(1, 10), 4)


class TestAgainstTriangularReference:
    """The moment recurrence and the Horner sum against the triangular-solve engine."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_numerators_series_and_scan(self, n):
        lams = [0, 1, -5, Fraction(7, 3), Fraction(1, 7)] + [k * (k + n) for k in range(1, 5)]
        for J in (1, 2, 5, 12, 30, 60):
            ref = TriangularVariationEngine(n, J)
            for lam in lams:
                for centered in (False, True):
                    assert _variation_numerators(n, lam, J, centered) == \
                        ref.numerators(lam, centered), (n, J, lam, centered)
                    for normalized in (False, True):
                        assert variation_series_eigen(n, lam, J, centered, normalized) == \
                            ref.series(lam, centered, normalized), (n, J, lam, centered)
            assert admissible_eigenvalue_scan(n, 6, J) == ref.scan(6), (n, J)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_delta_polynomials_solve_the_triangular_system(self, n):
        want = [tuple(d) for d in triangular_delta_polynomials(n, 60)]
        for K in (0, 1, 2, 3, 60):
            assert eigen_delta_c_values(n, K) == want[:K + 1], (n, K)


class TestPolynomialityScan:
    def test_criterion_values(self):
        assert polynomiality_criterion(1, 1) == (True, ())
        assert polynomiality_criterion(1, 2) == (False, (72, 48))  # as in the n = 1 golden
        ok, _ = polynomiality_criterion(2, 1)
        assert ok

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_polynomial_iff_first_level(self, n):
        for k0 in range(1, 7):
            ok, rem = polynomiality_criterion(n, k0)
            assert ok == (k0 == 1), (n, k0)
            # a tuple of ints, low degree first, trimmed: () iff the division is exact
            assert (rem == ()) == ok and type(rem) is tuple, (n, k0)
            assert all(type(c) is int for c in rem) and rem[-1:] != (0,), (n, k0)

    def test_criterion_rejects_bad_level(self):
        with pytest.raises(ValueError):
            polynomiality_criterion(1, 0)

    def test_scan_examples(self):
        assert admissible_eigenvalue_scan(1, 5, 6) == {1}
        assert admissible_eigenvalue_scan(2, 5, 7) == {1}
        assert admissible_eigenvalue_scan(1, 0, 6) == set()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scan_at_J_at_most_n_tests_no_order(self, n):
        # the orders n < j <= J are empty, so every level is kept; one order more
        # already leaves the first level only
        for J in range(1, n + 1):
            assert admissible_eigenvalue_scan(n, 6, J) == set(range(1, 7)), J
        assert admissible_eigenvalue_scan(n, 6, n + 1) == {1}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scan_matches_series_zero_test(self, n):
        for J in range(1, 41):
            want = {k for k in range(1, 7)
                    if all(c == 0 for c in variation_series_eigen(n, k * (k + n), J)
                           .leading_coefficients(J + 1)[n + 1:])}
            assert admissible_eigenvalue_scan(n, 6, J) == want, (n, J)

    def test_scan_matches_division_criterion(self):
        for n in (1, 2):
            scan = admissible_eigenvalue_scan(n, 4, n + 4)
            division = {
                k0 for k0 in range(1, 5) if polynomiality_criterion(n, k0)[0]
            }
            assert scan == division

"""Fubini-Study eigenfunction family, pairing closed form, first eigenspace."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from cpnbergman import (
    RadialProfile,
    chart_lift,
    cp1_integral,
    eigenfunction_pairing_closed_form,
    first_eigenbasis,
    polynomiality_criterion,
    sigma_prime_closed_form,
    variation_series_eigen,
)
from eigenbasis_reference import exact_member, exact_pairing, rounded, theta
from fd_laplacian import numeric_fs_laplacian
from series_reference import from_roots, normalized, poly, series_from_polynomial


def _radial_laplacian(f, s, n):
    """Fubini-Study Laplacian of a radial f(s), s = |z|^2, on the standard chart of CP^n."""
    return (1 + s) * (s * (1 + s) * sp.diff(f, s, 2) + (n + s) * sp.diff(f, s))


class TestPhiK:
    """The radial family phi_k = (1+s)^-k, s = |z|^2."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_laplacian_closed_form_symbolic(self, n):
        s = sp.symbols("s", positive=True)
        for k in range(1, 5):
            radial = _radial_laplacian((1 + s) ** (-k), s, n)
            assert sp.simplify(radial - k * (k * s - n) * (1 + s) ** (-k)) == 0

    def test_recursion_residual_small(self):
        # Delta phi_k = -k(k+n) phi_k + k^2 phi_{k-1}, exactly; for n = 1 the
        # library's p-coefficients of Delta p^k are the same two terms
        s = sp.symbols("s", positive=True)
        for n in (1, 2, 3):
            for k in range(1, 6):
                phi = [(1 + s) ** (-j) for j in (k - 1, k)]
                residual = _radial_laplacian(phi[1], s, n) + k * (k + n) * phi[1] - k * k * phi[0]
                assert sp.simplify(residual) == 0, (n, k)
        for k in range(1, 6):
            want = (0.0,) * (k - 1) + (k * k, -k * (k + 1))
            assert RadialProfile([0.0] * k + [1.0]).fs_laplacian_coeffs() == want


def _pairing_product(n, k0, m):
    """int phi phi_m / int phi phi_k0 for Delta phi = -lambda phi, lambda = k0(k0+n),
    as the product of the level steps k^2 / (k(k+n) - lambda)."""
    lam = k0 * (k0 + n)
    return math.prod((Fraction(k * k, k * (k + n) - lam) for k in range(k0 + 1, m + 1)),
                     start=Fraction(1))


class TestPairing:
    def test_telescoping_matches_closed_form(self):
        for n in (1, 2):
            for k0 in (1, 2, 3):
                for m in range(k0, k0 + 7):
                    assert _pairing_product(
                        n, k0, m
                    ) == eigenfunction_pairing_closed_form(n, k0, m), (n, k0, m)

    @pytest.mark.parametrize("n,k0,m,message", [
        pytest.param(0, 1, 2, "need n >= 1 and k0 >= 0", id="0-1-2"),
        pytest.param(1, -1, 2, "need n >= 1 and k0 >= 0", id="1--1-2"),
        pytest.param(1, 3, 2, "need m >= k0", id="1-3-2"),
    ])
    def test_outside_the_domain(self, n, k0, m, message):
        # n = 0 once returned 4/3, and k0 < 0 raised factorial's own message
        with pytest.raises(ValueError, match=message):
            eigenfunction_pairing_closed_form(n, k0, m)


class TestSigmaPrimeClosedForm:
    def test_first_level_is_polynomial(self):
        s = sigma_prime_closed_form(1, 1, 4)
        assert s.lead == 2
        assert s.leading_coefficients(5) == [1, 1, 0, 0, 0]

    def test_second_level_has_tail(self):
        s = sigma_prime_closed_form(1, 2, 4)
        assert any(c != 0 for c in s.leading_coefficients(5)[2:])

    def test_two_dimensional_first_level(self):
        s = sigma_prime_closed_form(2, 1, 5)
        assert s.lead == 3
        assert s.leading_coefficients(6) == [1, 3, 2, 0, 0, 0]

    def test_agrees_with_assembled_series(self):
        for n in (1, 2):
            for k0 in (1, 2, 3):
                J = n + 4
                closed = sigma_prime_closed_form(n, k0, J)
                assembled = variation_series_eigen(n, k0 * (k0 + n), J, normalized=True)
                assert assembled.lead == closed.lead
                assert assembled.leading_coefficients(
                    J + 1
                ) == closed.leading_coefficients(J + 1), (n, k0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sigma_prime_closed_form(1, 0, 4)

    def test_rejects_n_below_1(self):
        # n = 0 once returned a series, and polynomiality --n 0 a table
        for n in (0, -1):
            with pytest.raises(ValueError, match="need n >= 1"):
                sigma_prime_closed_form(n, 1, 4)
            with pytest.raises(ValueError, match="need n >= 1"):
                polynomiality_criterion(n, 1)
            with pytest.raises(ValueError, match="n must be >= 1"):
                first_eigenbasis(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_polynomial_exactly_when_division_is_exact(self, n):
        # the series has lead n + 1, so index n + 1 holds m^0; a nonzero
        # remainder shows by index n + k0 + 4
        for k0 in range(1, 6):
            J = n + k0 + 4
            coeffs = sigma_prime_closed_form(n, k0, J).leading_coefficients(J + 1)
            exact, _ = polynomiality_criterion(n, k0)
            assert exact == all(c == 0 for c in coeffs[n + 2:]), (n, k0)


def _resonant_polynomials(n, k0):
    """Numerator and denominator of the resonant variation, built from roots by sympy."""
    numer = from_roots([-i for i in range(-k0 + 1, n + 1)] + [-k0 * (k0 + n)])
    denom = from_roots([-i for i in range(n + 1, n + k0 + 1)])
    return numer, denom


class TestResonantFractionOracles:
    """The integer closed form and division test against sympy polynomial arithmetic."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_matches_series_division(self, n):
        for k0 in range(1, 7):
            numer, denom = _resonant_polynomials(n, k0)
            for J in range(1, 41):
                want = normalized(series_from_polynomial(numer, J)
                                  * series_from_polynomial(denom, J).reciprocal())
                got = sigma_prime_closed_form(n, k0, J)
                assert got == want and got.lead == n + 1, (n, k0, J)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_remainder_matches_polynomial_divmod(self, n):
        for k0 in range(1, 7):
            _, want = sp.div(*_resonant_polynomials(n, k0))
            exact, rem = polynomiality_criterion(n, k0)
            # ints, low degree first, trimmed: () iff the division is exact
            assert poly(rem) == want and exact == want.is_zero == (rem == ()), (n, k0)
            assert all(type(c) is int for c in rem) and rem[-1:] != (0,), (n, k0)


class TestFirstEigenbasis:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 8), (3, 15)])
    def test_count(self, n, count):
        assert len(first_eigenbasis(n)) == count

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_orthonormality(self, n):
        basis = first_eigenbasis(n)
        exact = [exact_member(n, th.kind, th.indices) for th in basis]
        for i, (a, A) in enumerate(zip(basis, exact)):
            for j, B in enumerate(exact):
                pair = exact_pairing(A, B, n)
                if i == j:
                    assert pair == a.norm_sq
                    assert a.norm_sq > 0
                else:
                    assert pair == 0
            # the library's T_i is that exact matrix rounded once, bit for bit
            assert a.matrix.tobytes() == rounded(A, a.norm_sq).tobytes(), (n, a.kind, a.indices)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_diagonal_members_closed_form(self, n):
        # member l is E_ll - (1/l) sum_{i<l} E_ii
        diag = [th for th in first_eigenbasis(n) if th.kind == "diag"]
        assert [th.indices for th in diag] == [(l,) for l in range(1, n + 1)]
        zero = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        for th in diag:
            l = th.indices[0]
            want = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
            want[l][l] = Fraction(1)
            for i in range(l):
                want[i][i] = Fraction(-1, l)
            assert th.norm_sq == (1 + Fraction(1, l)) / ((n + 1) * (n + 2))
            assert exact_pairing((want, zero), (want, zero), n) == th.norm_sq
            assert th.matrix.tobytes() == rounded((want, zero), th.norm_sq).tobytes()

    def test_traceless(self):
        for th in first_eigenbasis(2):
            re, _ = exact_member(2, th.kind, th.indices)
            assert sum(re[i][i] for i in range(3)) == 0
            assert th.matrix.trace() == 0

    def test_quadrature_gram_identity(self):
        basis = first_eigenbasis(1)

        def product(i, j):
            def F(z):
                Z = chart_lift(1, z)
                return theta(basis[i], Z) * theta(basis[j], Z)

            return cp1_integral(F, rtol=1e-10, atol=1e-13)

        for i in range(3):
            for j in range(i, 3):
                expected = 1.0 if i == j else 0.0
                assert abs(product(i, j) - expected) < 1e-8, (i, j)

    @pytest.mark.parametrize("n", [1, 2])
    def test_eigenfunction_property(self, n):
        rng = np.random.default_rng(7)
        basis = first_eigenbasis(n)
        for th in basis:
            def f(z, th=th):
                return float(theta(th, chart_lift(n, z)))

            for _ in range(50 if n == 1 else 10):
                pt = rng.uniform(-1.4, 1.4, 2 * n)
                z = pt[0] + 1j * pt[1] if n == 1 else pt[::2] + 1j * pt[1::2]
                lap = numeric_fs_laplacian(f, z, n)
                assert abs(lap + (n + 1) * f(z)) < 1e-8

    def test_scale_invariance_on_lifts(self):
        rng = np.random.default_rng(3)
        for th in first_eigenbasis(2):
            Z = rng.normal(size=3) + 1j * rng.normal(size=3)
            c = 0.7 - 2.1j
            assert theta(th, Z) == pytest.approx(theta(th, c * Z), rel=1e-12)

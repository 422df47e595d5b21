"""Acceptance suite: eleven headline checks, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import sympy as sp
from centred_difference_reference import centred_difference
from variation_reference import variation_order1_polynomial

from cpnbergman import (
    RadialMetric,
    RadialProfile,
    TracelessHermitian,
    admissible_eigenvalue_scan,
    bergman_density,
    center,
    conversion_polynomials,
    delta_c_power_at_zero,
    eigenbasis_potential,
    first_eigenbasis,
    first_variation,
    fit_expansion,
    fs_monomial_integral,
    gauge_potential,
    laplacian_power_at_zero,
    monomial_kernel_quadrature,
    polynomiality_criterion,
    scalar_curvature,
    section_norms,
    sigma_prime_closed_form,
    variation_series_eigen,
    zero_potential,
)


def _report(num, name, ok, detail):
    print("[%s] criterion %d: %s (%s)" % ("PASS" if ok else "FAIL", num, name, detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def _indices_up_to(n, deg):
    return [
        P
        for P in itertools.product(*[range(deg + 1)] * n)
        if sum(P) <= deg
    ]


def test_criterion_1_conversion_oracle():
    start = time.time()
    checked = 0
    for n in (1, 2, 3):
        table = conversion_polynomials(n, 5)
        for k in range(1, 6):
            for P in _indices_up_to(n, k):
                lhs = sum(
                    table.coefficient(k, l) * delta_c_power_at_zero(l, P)
                    for l in range(k + 1)
                )
                rhs = laplacian_power_at_zero(n, P, k)
                assert lhs == rhs, (n, k, P)
                checked += 1
    elapsed = time.time() - start
    _report(
        1,
        "conversion-oracle equivalence",
        elapsed < 5.0,
        "%d exact identities, %.2fs" % (checked, elapsed),
    )


def test_criterion_2_integral_identity():
    start = time.time()
    worst = 0.0
    for n in (1, 2):
        for m in range(7):
            for P in _indices_up_to(n, m):
                exact = float(fs_monomial_integral(n, m, P)) * math.pi**n
                got = monomial_kernel_quadrature(n, m, P) * math.pi**n
                worst = max(worst, abs(got - exact) / exact)
    elapsed = time.time() - start
    _report(
        2,
        "monomial kernel integral identity",
        worst < 1e-8 and elapsed < 30.0,
        "worst rel %.2e, %.2fs" % (worst, elapsed),
    )


def test_criterion_3_fs_balanced_density():
    start = time.time()
    grid = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e4]
    fs = RadialMetric.fubini_study()
    worst_density = 0.0
    worst_norm = 0.0
    for m in range(31):
        res = bergman_density(fs, m, grid)
        worst_density = max(worst_density, np.max(np.abs(res.values - (m + 1))))
        for j in range(m + 1):
            exact = math.factorial(j) * math.factorial(m - j) / math.factorial(m + 1)
            worst_norm = max(worst_norm, abs(res.norms[j] - exact) / exact)
    elapsed = time.time() - start
    ok = worst_density < 1e-9 and worst_norm < 1e-10 and elapsed < 60.0
    _report(
        3,
        "Fubini-Study balanced density",
        ok,
        "density dev %.2e, norm rel %.2e, %.2fs" % (worst_density, worst_norm, elapsed),
    )


def test_criterion_4_exact_tyz_coefficients():
    ok = True
    details = []
    for n in (1, 2, 3):
        K = n + 2
        samples = []
        for i in range(K + 1):
            m = n + 3 + 2 * i
            samples.append(
                (m, Fraction(math.factorial(m + n), math.factorial(m)))
            )
        fit = fit_expansion(samples, n, K)
        expected = []
        for k in range(K + 1):
            e_k = sum(
                math.prod(c)
                for c in itertools.combinations(range(1, n + 1), k)
            )
            expected.append(Fraction(e_k))
        ok = ok and list(fit.coeffs) == expected
        ok = ok and all(fit.coeffs[k] == 0 for k in range(n + 1, K + 1))
        details.append("n=%d:%s" % (n, list(map(str, fit.coeffs))))
    _report(4, "exact TYZ coefficients on FS", ok, "; ".join(details))


def test_criterion_5_eigenvalue_selection():
    start = time.time()
    ok = True
    for n in (1, 2, 3):
        ok = ok and admissible_eigenvalue_scan(n, 6, n + 4) == {1}
        for k0 in range(1, 7):
            flag, _ = polynomiality_criterion(n, k0)
            ok = ok and flag == (k0 == 1)
    elapsed = time.time() - start
    _report(
        5,
        "first-eigenvalue selection",
        ok and elapsed < 10.0,
        "scan == {1} for n in 1..3, %.2fs" % elapsed,
    )


def test_criterion_6_variation_cross_check():
    ok = True
    for n in (1, 2):
        for k0 in (1, 2, 3):
            J = n + 4
            a = variation_series_eigen(n, k0 * (k0 + n), J, normalized=True)
            b = sigma_prime_closed_form(n, k0, J)
            ok = ok and a.lead == b.lead
            ok = ok and a.leading_coefficients(J + 1) == b.leading_coefficients(J + 1)
    roots_ok = True
    for n in (1, 2, 3):
        p = variation_order1_polynomial(n)
        roots_ok = roots_ok and p(Fraction(0)) == 0 and p(Fraction(n + 1)) == 0
        roots_ok = roots_ok and p.degree == 2 and p.coefficient(2) != 0
    _report(
        6,
        "variation series vs closed form",
        ok and roots_ok,
        "exact equality k0<=3, n<=2; order-1 roots {0, n+1}",
    )


def test_criterion_7_perturbed_a1_extraction():
    start = time.time()
    ms = [20, 30, 40, 50, 60]
    grid = [0.0, 0.25, 0.5, 1.0, 2.0]
    worst = 0.0
    for eps in (0.05, 0.1):
        met = RadialMetric(RadialProfile.eigenfunction_bump(eps))
        densities = {m: bergman_density(met, m, grid) for m in ms}
        for i, s in enumerate(grid):
            samples = [(float(m), float(densities[m].values[i])) for m in ms]
            fit = fit_expansion(samples, 1, 2)
            a1 = scalar_curvature(met, s).a1
            worst = max(worst, abs(float(fit.coeffs[1]) - a1))
    elapsed = time.time() - start
    _report(
        7,
        "perturbed a1 extraction",
        worst < 5e-3 and elapsed < 300.0,
        "worst |fit - rho/2| %.2e, %.2fs" % (worst, elapsed),
    )


def test_criterion_8_first_variation():
    fs = RadialMetric.fubini_study()
    m = 20
    eigen = RadialProfile([1.0, -6.0, 6.0])  # zonal, eigenvalue 6
    mix = RadialProfile([-1.0 / 3.0, 0.0, 1.0])  # phi_2 minus a constant
    r1 = first_variation(fs, eigen, m)
    r2 = first_variation(fs, mix, m)
    fd = [abs(centred_difference(fs, phi, m, 0.0) / r.formula_value - 1.0)
          for phi, r in ((eigen, r1), (mix, r2))]
    ok = r1.rel_diff < 1e-10 and r2.rel_diff < 1e-10 and max(fd) < 1e-6
    _report(
        8,
        "first variation formula vs linearised density and finite differences",
        ok,
        "eigen rel %.2e, mix rel %.2e; differences %.2e, %.2e"
        % (r1.rel_diff, r2.rel_diff, *fd),
    )


def test_criterion_9_eigen_identity():
    # Delta phi_k = -k(k+n) phi_k + k^2 phi_{k-1}, phi_k = (1+s)^-k, in sympy; for
    # n = 1 it is the library's Delta p^k = k^2 p^(k-1) - k(k+1) p^k
    s = sp.symbols("s", positive=True)
    nonzero = []
    for n in (1, 2, 3):
        for k in range(1, 6):
            f, g = (1 + s) ** (-k), (1 + s) ** (1 - k)
            lap = (1 + s) * (s * (1 + s) * sp.diff(f, s, 2) + (n + s) * sp.diff(f, s))
            if sp.simplify(lap + k * (k + n) * f - k * k * g) != 0:
                nonzero.append((n, k))
    coeffs_ok = all(
        RadialProfile([0.0] * k + [1.0]).fs_laplacian_coeffs()
        == (0.0,) * (k - 1) + (k * k, -k * (k + 1))
        for k in range(1, 6))
    _report(
        9,
        "eigenfunction recursion identity",
        not nonzero and coeffs_ok,
        "n <= 3, k <= 5, nonzero residuals at %s; n = 1 p-coefficients equal: %s"
        % (nonzero, coeffs_ok),
    )


def test_criterion_10_centering():
    basis = first_eigenbasis(1)
    b = 0.05 / math.sqrt(2)
    potentials = [
        ("zero", zero_potential),
        ("eigenbasis", eigenbasis_potential(basis[2], 0.05)),
        ("gauge", gauge_potential(TracelessHermitian(np.diag([b, -b])))),
    ]
    ok = True
    details = []
    for name, phi in potentials:
        state = center(phi, tol=1e-8, max_iter=50)
        ok = ok and state.converged and state.iteration <= 50
        ok = ok and state.residual_norm < 1e-8
        steps = [row[1] for row in state.trace_csv_rows()[2:]]
        for prev, cur in zip(steps, steps[1:]):
            if prev > 1e-13:
                ok = ok and cur <= 0.5 * prev
        if name == "zero":
            ok = ok and state.A.norm == 0.0 and state.iteration == 0
        details.append("%s: %d iters, res %.1e" % (name, state.iteration, state.residual_norm))
    _report(10, "centering contraction solver", ok, "; ".join(details))


def test_criterion_11_perturbed_a2_extraction():
    # a2 = Delta rho / 3 (Lu 2000) needs m far past the linear-norm range:
    # a fit over m <= 60 misses it by about 4e-2
    start = time.time()
    ms = list(range(200, 1001, 100))
    grid = [0.0, 0.25, 0.5, 1.0, 2.0]
    worst = 0.0
    for eps in (0.05, 0.1):
        met = RadialMetric(RadialProfile.eigenfunction_bump(eps))
        densities = {m: bergman_density(met, m, grid) for m in ms}
        for i, s in enumerate(grid):
            samples = [(float(m), float(densities[m].values[i])) for m in ms]
            fit = fit_expansion(samples, 1, 4)
            a2 = scalar_curvature(met, s).a2
            worst = max(worst, abs(float(fit.coeffs[2]) - a2))
    elapsed = time.time() - start
    _report(
        11,
        "perturbed a2 extraction",
        worst < 1e-4 and elapsed < 300.0,
        "worst |fit - Delta rho/3| %.2e, %.2fs" % (worst, elapsed),
    )

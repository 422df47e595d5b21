"""Nested n = 2 monomial quadrature, a reference for the factored passes.

This is the pass `quadrature.monomial_kernel_quadrature` ran for n = 2
before the substitution t = (1 + s1) tau split the integral into two
scalar half-line passes: the inner integrals at all nodes of an outer
refinement step form one vector half-line pass, each row held to
0.1 rtol.  It integrates the two-dimensional iterated integral as it
stands, so it checks the factorization independently.  Its s1^p1
overflows near the end of the half-line for large p1 (from p1 = 81 at
m = 100 and about 100 at m = 1000, P = (p1, 0)), raising
QuadratureError there.
"""

import numpy as np

from cpnbergman import integrate_interval


def half_line(f, rtol):
    """int_0^inf f(s) ds as one integrate_interval pass in x = s/(1+s)."""
    return integrate_interval(lambda x: f(x / (1 - x)) / (1 - x) ** 2, 0.0, 1.0, rtol=rtol)


def shifted_power_kernel(p, a, e):
    """t -> t^p (a + t)^(-e), through logs; t > 0, as at every quadrature node."""

    def kernel(t):
        expo = -e * np.log(a + t)
        if p > 0:
            expo = expo + p * np.log(t)
        return np.exp(expo)

    return kernel


def nested_monomial_quadrature(m, P, rtol=1e-10):
    """(1/pi^2) int |z^P|^2 (1+|z|^2)^{-(m+3)} dV on C^2 by nested quadrature."""
    p1, p2 = (int(p) for p in P)

    def outer(s1):
        # one vector pass: row i is int_0^inf t^p2 (1 + s1_i + t)^{-(m+3)} dt
        inner = shifted_power_kernel(p2, 1.0 + s1[:, None], m + 3)
        return (s1 ** p1 if p1 else 1.0) * half_line(inner, rtol=0.1 * rtol)

    return half_line(outer, rtol=rtol)

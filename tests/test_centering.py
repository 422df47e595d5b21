"""Contraction-mapping solver for the centrally positioned condition."""

import math

import mpmath
import numpy as np
import pytest

import centering_reference
from eigenbasis_reference import exact_member, exact_pairing, rounded, theta

from cpnbergman import centering, quadrature
from cpnbergman import (
    NonConvergenceError,
    TracelessHermitian,
    UnsupportedDimensionError,
    build_L,
    center,
    chart_lift,
    cp1_integral,
    centering_residual,
    eigenbasis_potential,
    estimate_contraction,
    first_eigenbasis,
    gauge_potential,
    rho_potential,
    t_step,
    zero_potential,
)

DIAG = TracelessHermitian(np.diag([1.0, -1.0]))


class TestTracelessHermitian:
    def test_projection_is_exact(self):
        M = np.array([[1.0 + 0j, 2.0 + 1.0j], [0.5 - 0.2j, 3.0 + 0j]])
        A = TracelessHermitian(M)
        assert np.array_equal(A.matrix, A.matrix.conj().T)
        assert A.matrix.trace() == 0
        assert A.n == 1

    def test_zero(self):
        Z = TracelessHermitian.zero(2)
        assert Z.norm == 0.0
        assert Z.matrix.shape == (3, 3)

    def test_expm_consistency(self):
        A = TracelessHermitian(np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, -0.3]]))
        E = A.expm()
        Eneg = TracelessHermitian(-A.matrix).expm()
        assert np.allclose(E @ Eneg, np.eye(2), atol=1e-14)
        # det exp(A) = exp(tr A) = 1 for traceless A
        assert np.linalg.det(E) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("matrix", [np.diag([math.inf, -math.inf]), np.diag([math.nan, 0.0]),
                                        [[0.0, complex(0.0, math.inf)], [0.0, 0.0]]])
    def test_non_finite_matrix_rejected(self, matrix):
        # an infinite entry once gave numpy's "invalid value" warnings, and
        # a NaN entry a matrix of NaNs
        with pytest.raises(ValueError, match="matrix must be square and finite"):
            TracelessHermitian(matrix)


class TestRhoPotential:
    def test_zero_matrix(self):
        Z = TracelessHermitian.zero(1)
        for z in (0.0, 0.3 + 0.4j, 100.0):
            assert rho_potential(Z, z) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_at_origin(self):
        a = 0.37
        A = TracelessHermitian(np.diag([a, -a]))
        assert rho_potential(A, 0.0) == pytest.approx(2 * a, rel=1e-13)

    def test_diagonal_on_equator(self):
        a = 0.37
        A = TracelessHermitian(np.diag([a, -a]))
        expected = math.log((math.exp(2 * a) + math.exp(-2 * a)) / 2.0)
        assert rho_potential(A, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_potential_object_broadcasts(self):
        pot = gauge_potential(TracelessHermitian(0.1 * DIAG.matrix))
        z = np.array([0.0 + 0j, 1.0 + 0j, 2.0 + 1j])
        vals = pot(z)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(rho_potential(TracelessHermitian(0.1 * DIAG.matrix), 0.0))


class TestDescent:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip(self, n):
        # D's pairing coordinates v_i = <theta_D, theta_i> descend to -D:
        # the basis is orthonormal, so L^{-1} v = sum_i v_i T_i is D
        rng = np.random.default_rng(n)
        size = n + 1
        D = TracelessHermitian(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        T = build_L(n)
        v = np.einsum("jk,ikj->i", D.matrix, T).real / ((n + 1) * (n + 2))
        got = TracelessHermitian(-np.einsum("i,ijk->jk", v, T))
        assert np.max(np.abs(got.matrix + D.matrix)) <= 1e-15
        if n == 1:
            # the solver's coordinates are these pairings, read off the entries
            assert np.max(np.abs(centering._coords(D.matrix) - v)) <= 1e-15
            assert np.max(np.abs(centering._matrix(v).matrix - D.matrix)) <= 1e-15

    def test_coordinates_need_n_1(self):
        with pytest.raises(UnsupportedDimensionError):
            centering._coords(TracelessHermitian.zero(2).matrix)


class TestCachedMaps:
    def test_built_once_per_n(self):
        assert build_L(1) is build_L(1)
        assert first_eigenbasis(1) is first_eigenbasis(1)

    def test_shared_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            build_L(1)[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            first_eigenbasis(1)[0].matrix[0, 0] = 1.0
        with pytest.raises(AttributeError):  # frozen
            first_eigenbasis(1)[0].matrix = np.zeros((2, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_build_L_is_the_exact_basis_rounded_once(self, n):
        members = [exact_member(n, th.kind, th.indices) for th in first_eigenbasis(n)]
        want = np.array([rounded(A, exact_pairing(A, A, n)) for A in members])
        assert build_L(n).tobytes() == want.tobytes() and build_L(n).shape == want.shape


def _residual_per_component(A, phi, rtol=1e-10):
    """The centering integrals as one scalar cp1_integral call per basis function."""
    rho = gauge_potential(TracelessHermitian(-A.matrix))
    basis = first_eigenbasis(1)
    out = np.empty(len(basis))
    for i, th in enumerate(basis):
        def F(z, th=th):
            return (phi(z) - rho(z)) * theta(th, chart_lift(1, z))

        out[i] = cp1_integral(F, rtol=rtol, atol=1e-13)
    return out


class TestResidual:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_component_calls(self, seed):
        rng = np.random.default_rng(seed)
        basis = first_eigenbasis(1)
        w = rng.normal(size=3)
        w *= 0.05 / np.linalg.norm(w)
        pots = [eigenbasis_potential(fn, float(wi)) for fn, wi in zip(basis, w)]
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = TracelessHermitian(M)
        A = TracelessHermitian((0.04 / A.norm) * A.matrix)
        half = gauge_potential(TracelessHermitian(0.5 * A.matrix))
        for phi in (lambda z: sum(p(z) for p in pots), half):
            got = centering_residual(A, phi)
            want = _residual_per_component(A, phi)
            assert np.max(np.abs(got - want)) < 1e-12
            assert np.max(np.abs(want)) > 1e-3


def _coordinate_R(A):
    """The solver's R(A), through the coordinates of A."""
    return centering._rho_moments(centering._coords(A.matrix))


def _uncached_residual(A, phi, L, rtol=1e-10):
    """The centering integrals with rho_{-A} integrated by quadrature alongside phi.

    The reference that the closed form R(A) and the once-integrated Phi
    are checked against.
    """
    E = TracelessHermitian(-A.matrix).expm()

    def F(z):
        T = L.reshape((len(L), 4) + (1,) * np.ndim(z))
        s = np.abs(z) ** 2
        quad = T[:, 0].real + T[:, 3].real * s + 2.0 * (T[:, 1] * z).real
        Z = chart_lift(1, z)
        W = np.tensordot(E, Z, 1)
        num = np.sum(np.abs(W) ** 2, axis=0)
        den = np.sum(np.abs(Z) ** 2, axis=0)
        return (phi(z) - np.log(num / den)) * quad / (1.0 + s)

    return cp1_integral(F, rtol=rtol, atol=1e-13)


def _mix_potential():
    pots = [eigenbasis_potential(fn, w)
            for fn, w in zip(first_eigenbasis(1), (0.03, -0.025, 0.02))]
    return lambda z: sum(p(z) for p in pots)


def _callable(pot):
    """pot as a plain callable, which takes the quadrature path."""
    return lambda z: pot(z)


_GAUGE = TracelessHermitian(np.array([[0.03, 0.02 - 0.01j], [0.02 + 0.01j, -0.03]]))

_POTENTIALS = {
    "gauge": lambda: gauge_potential(_GAUGE),
    "gauge-callable": lambda: _callable(gauge_potential(_GAUGE)),
    "eigenbasis": lambda: eigenbasis_potential(first_eigenbasis(1)[0], -0.04),
    "eigenbasis-mix": _mix_potential,
    "zero": lambda: zero_potential,
    "scalar-lambda": lambda: (lambda z: 0.02),
}


def _random_traceless(rng, norm):
    A = TracelessHermitian(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return TracelessHermitian((norm / A.norm) * A.matrix)


class TestNodeCache:
    """A solve meets one quadrature node set: phi is integrated once, in Phi."""

    def test_phi_once_per_node_set(self):
        nodes = []
        gauge = gauge_potential(TracelessHermitian((0.05 / math.sqrt(2)) * DIAG.matrix))

        def phi(z):
            nodes.append(z.tobytes())
            return gauge(z)

        state = center(phi)
        assert state.converged and state.iteration == 4
        # the one Phi pass, which meets its tolerance on its initial panel;
        # integrating phi - rho_{-A} per iterate would take 5 such passes
        assert len(nodes) == 1

    @pytest.mark.parametrize("name", sorted(_POTENTIALS))
    def test_center_residuals_match_quadrature(self, name):
        phi = _POTENTIALS[name]()
        L = build_L(1)
        state = center(phi)
        want = _uncached_residual(state.A, phi, L, rtol=1e-12)
        assert np.max(np.abs(state.residual - want)) <= 1e-12
        A = TracelessHermitian(np.array([[0.02, -0.01 + 0.015j], [-0.01 - 0.015j, -0.02]]))
        got = centering_residual(A, phi)
        assert np.max(np.abs(got - _uncached_residual(A, phi, L, rtol=1e-12))) <= 1e-12


class TestClosedForm:
    """R(A) = int rho_{-A} theta_i dV_0 = (u* T_i u) K(d) on CP^1."""

    # both sides of the switch at d = 2, and the far range
    KERNEL_POINTS = (1e-12, 1e-6, 0.1, 0.5, 1.0, 1.9999999999999998, 2.0,
                     2.0000000000000004, 10.0, 1e3)

    @pytest.mark.parametrize("d", KERNEL_POINTS)
    def test_kernel_matches_mpmath(self, d):
        self._assert_kernel_ulps([d])

    def test_kernel_within_4_ulps_on_a_grid(self):
        # the direct form in e^{-d} is up to 7 ulps off just below d = 2
        self._assert_kernel_ulps(np.geomspace(1e-3, 40.0, 400))

    @staticmethod
    def _assert_kernel_ulps(ds):
        with mpmath.workdps(80):
            for d in ds:
                x = mpmath.mpf(float(d))
                want = (mpmath.sinh(x) - x) / (2 * (mpmath.cosh(x) - 1))
                got = centering._hat_box_kernel(float(d))
                assert abs(mpmath.mpf(got) - want) <= 4 * math.ulp(float(want)), d

    def test_kernel_matches_its_series(self):
        # K(d) = (x coth x)'/2 at x = d/2; the d^11 term is 6e-9 d^11
        coeffs = (1 / 6, -1 / 180, 1 / 5040, -1 / 151200, 1 / 4790016)
        for d in np.geomspace(1e-8, 0.1, 50):
            series = math.fsum(c * d ** (2 * k + 1) for k, c in enumerate(coeffs))
            assert abs(centering._hat_box_kernel(d) - series) <= 4 * math.ulp(series)

    @pytest.mark.parametrize("d", [0.0, 5e-324, 1e-300, 745.0, 1e308, math.inf])
    def test_kernel_finite_at_the_extremes(self, d):
        got = centering._hat_box_kernel(d)
        assert math.isfinite(got) and 0.0 <= got <= 0.5
        assert got == (0.5 if d > 100 else pytest.approx(d / 6.0, rel=1e-15))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        L = build_L(1)
        # at |A| = 3 an A far from diagonal makes rho_{-A} too sharp for the
        # 1024 angular nodes of cp1_integral, so that norm is checked on a
        # diagonal A, where rho_{-A} is radial
        cases = [_random_traceless(rng, norm) for norm in np.geomspace(1e-8, 2.5, 12)]
        cases.append(TracelessHermitian((rng.choice((-3.0, 3.0)) / DIAG.norm) * DIAG.matrix))
        for A in cases:
            want = _uncached_residual(A, zero_potential, L, rtol=1e-12)
            got = -centering._rho_moments(centering._coords(A.matrix))
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_finite_for_any_finite_A(self):
        assert not np.any(_coordinate_R(TracelessHermitian.zero(1)))
        for scale in (1e-300, 1e-8, 1e10, 1e200, 8e307):
            A = TracelessHermitian(np.array([[scale, scale / 3], [scale / 3, -scale]]))
            assert np.all(np.isfinite(_coordinate_R(A)))

    # d = 4 sqrt(3) |a| = 2 sqrt(2) |A|, so the kernel switches at |A| = 1/sqrt(2)
    REFERENCE_NORMS = (list(np.geomspace(1e-300, 8e307, 60)) + [0.5, 1.0, 3.0]
                       + [math.sqrt(0.5) * (1.0 + t) for t in (-1e-6, -1e-15, 0.0, 1e-15, 1e-6)])

    def test_matches_the_eigh_reference(self):
        # R(A) through one eigh of A, u* T_i u and d = 2 (lam_max - lam_min),
        # as the solver computed it before it moved to coordinates.  These 340
        # A read at most 9 ulps of max |R| apart (10 over 4,900 more random
        # A); against mpmath the coordinate form is within 4 ulps, eigh 14
        L = build_L(1)
        assert not np.any(_coordinate_R(TracelessHermitian.zero(1)))
        assert not np.any(centering_reference.rho_moments(TracelessHermitian.zero(1), L))
        rng = np.random.default_rng(7)
        worst = 0.0
        for norm in self.REFERENCE_NORMS:
            for _ in range(5):
                A = TracelessHermitian(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                A = TracelessHermitian(A.matrix * (norm / A.norm))
                want = centering_reference.rho_moments(A, L)
                got = _coordinate_R(A)
                scale = float(np.max(np.abs(want)))
                assert 0.0 < scale <= 0.5 * math.sqrt(3.0)
                worst = max(worst, float(np.max(np.abs(got - want))) / math.ulp(scale))
        assert worst <= 12.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gauge_potential_centers_at_minus_B(self, seed):
        B = _random_traceless(np.random.default_rng(seed), 0.05)
        state = center(gauge_potential(B))
        assert state.converged
        assert np.max(np.abs(state.A.matrix + B.matrix)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gauge_callable_centers_at_minus_B(self, seed):
        # the same potential through the Phi quadrature
        B = _random_traceless(np.random.default_rng(seed), 0.05)
        state = center(_callable(gauge_potential(B)))
        assert state.converged
        assert np.max(np.abs(state.A.matrix + B.matrix)) <= 1e-12


class TestFixedPoint:
    """center against the closed-form centre A* = (d/4)(I - 2 u u*) of
    centering_reference.fixed_point, which is found without iterating."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_centres_gauge_potentials_at_minus_B(self, seed):
        # Phi = R(-B) through the eigh reference; measured within 2.8e-17
        L = build_L(1)
        B = _random_traceless(np.random.default_rng(seed), 0.05)
        moments = centering_reference.rho_moments(TracelessHermitian(-B.matrix), L)
        A = centering_reference.fixed_point(moments)
        assert np.max(np.abs(A + B.matrix)) <= 1e-16
        assert not np.any(centering_reference.fixed_point(np.zeros(3)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_center_reaches_the_oracle(self, seed):
        # measured over six seeds: gauge within 1.9e-13, form 7.3e-14, and the
        # mix, whose Phi comes from the quadrature at rtol 1e-10, 1.2e-12
        rng = np.random.default_rng(seed)
        L = build_L(1)
        B = _random_traceless(rng, 0.05)
        T = _random_traceless(rng, 0.09)
        w = rng.normal(size=3)
        w *= 0.05 / np.linalg.norm(w)
        pots = [eigenbasis_potential(fn, float(wi)) for fn, wi in zip(first_eigenbasis(1), w)]
        cases = [
            (gauge_potential(B),
             centering_reference.rho_moments(TracelessHermitian(-B.matrix), L), 5e-13),
            (centering.FormPotential(T.matrix),
             np.einsum("jk,ikj->i", T.matrix, L).real / 6.0, 5e-13),
            # the basis is orthonormal, so the mix's exact Phi is w
            (lambda z: sum(p(z) for p in pots), w, 5e-12),
        ]
        for phi, Phi, bound in cases:
            state = center(phi)
            assert state.converged and state.iteration == 4
            want = centering_reference.fixed_point(Phi)
            assert np.max(np.abs(state.A.matrix - want)) <= bound

    WIDE_CASES = {
        # name: (potential and its exact Phi, iterations, bound on |A - A*|);
        # C0 norms 0.87 to 1.41, all once rejected by a C0 threshold of 0.1.
        # tol 1e-8 bounds the residual and the step, not |A - A*|, which
        # grows as the contraction slows: measured 9.8e-10, 7.8e-9, 6.2e-9
        # and, over six seeds of the mix, at most 9.7e-10
        "eigenbasis-0.5": (lambda: _eigenbasis_case(0.5), 16, 2e-9),
        "eigenbasis-0.7": (lambda: _eigenbasis_case(0.7), 36, 1.5e-8),
        "gauge-1.0": (lambda: _gauge_diag_case(1.0), 27, 1.5e-8),
        "mix-0.5": (lambda: _mix_case(0, 0.5), 16, 2e-9),
    }

    @pytest.mark.parametrize("name", sorted(WIDE_CASES))
    def test_wide_domain_reaches_the_oracle(self, name):
        make, iterations, bound = self.WIDE_CASES[name]
        phi, Phi = make()
        state = center(phi)
        assert state.converged and state.iteration == iterations
        assert np.max(np.abs(state.A.matrix - centering_reference.fixed_point(Phi))) <= bound


def _eigenbasis_case(scale):
    phi = eigenbasis_potential(first_eigenbasis(1)[2], scale)
    return phi, phi.moments()


def _gauge_diag_case(scale):
    b = scale / math.sqrt(2.0)
    phi = gauge_potential(TracelessHermitian(np.diag([b, -b])))
    return phi, phi.moments()


def _mix_case(seed, norm):
    # a plain callable, whose Phi comes from the quadrature; its exact Phi is w
    w = np.random.default_rng(seed).normal(size=3)
    w *= norm / np.linalg.norm(w)
    pots = [eigenbasis_potential(fn, float(wi)) for fn, wi in zip(first_eigenbasis(1), w)]
    return (lambda z: sum(p(z) for p in pots)), w


class TestHermitianPotentials:
    """Gauge and eigenbasis potentials carry exact moments."""

    @staticmethod
    def _cases(kind):
        rng = np.random.default_rng({"form": 10, "gauge": 11}[kind])
        for norm in np.geomspace(0.01, 1.0, 20):
            T = _random_traceless(rng, norm)
            yield (centering.FormPotential(T.matrix) if kind == "form"
                   else gauge_potential(T))

    @pytest.mark.parametrize("kind", ["form", "gauge"])
    def test_moments_match_quadrature(self, kind):
        # the integrand of _phi_moments' quadrature branch, at rtol 1e-12
        T = build_L(1).transpose(1, 2, 0)
        for pot in self._cases(kind):
            got = pot.moments()
            want = cp1_integral(lambda z: pot(z) * centering._form_ratio(
                T.reshape(T.shape + (1,) * np.ndim(z)), z), rtol=1e-12, atol=1e-13)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_quadrature_branch_on_eigenbasis_sums(self, seed):
        # _phi_moments of a plain callable runs one cp1_integral pass in
        # x = s/(1+s); on sums of eigenbasis potentials (the bench's
        # center_mix inputs) it reads at most 7e-18 from the exact moments
        for norm in (0.04, 0.045, 0.05):
            phi, w = _mix_case(seed, norm)
            assert np.max(np.abs(centering._phi_moments(phi) - w)) <= 2e-16

    def test_eigenbasis_potential_matches_the_basis_function(self):
        z = np.concatenate([[0.0, 1e8], np.geomspace(1e-3, 1e3, 9) * np.exp(2.3j)])
        for fn in first_eigenbasis(1):
            want = 0.07 * theta(fn, chart_lift(1, z))
            np.testing.assert_allclose(eigenbasis_potential(fn, 0.07)(z), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan])
    def test_eigenbasis_potential_rejects_non_finite_scale(self, scale):
        # inf once gave numpy's "invalid value" warning, nan a NaN form
        with pytest.raises(ValueError, match="scale must be finite"):
            eigenbasis_potential(first_eigenbasis(1)[2], scale)

    def test_eigenbasis_potential_needs_n_1(self):
        with pytest.raises(UnsupportedDimensionError):
            eigenbasis_potential(first_eigenbasis(2)[0], 0.05)

    def test_no_cp1_pass(self, monkeypatch):
        # cp1_integral's radial passes are its integrate_interval calls
        passes = []
        original = quadrature.integrate_interval

        def counted(*args, **kwargs):
            passes.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_interval", counted)
        for make in ("gauge", "eigenbasis", "zero"):
            phi = _POTENTIALS[make]()
            assert center(phi).converged
            centering_residual(TracelessHermitian(0.01 * DIAG.matrix), phi)
        estimate_contraction()
        assert not passes
        center(_POTENTIALS["gauge-callable"]())
        assert passes

    def test_no_eigendecomposition(self, monkeypatch):
        # every iterate is three coordinates, and the exact moments read B's
        # or T's coordinates; only evaluating rho_B decomposes B
        calls = []
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            def counted(*args, _f=getattr(np.linalg, name), **kwargs):
                calls.append(1)
                return _f(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        for make in ("gauge", "eigenbasis", "zero"):
            phi = _POTENTIALS[make]()
            assert center(phi).converged
            t_step(TracelessHermitian(0.01 * DIAG.matrix), phi)
            centering_residual(TracelessHermitian(0.01 * DIAG.matrix), phi)
        for radius in (0.0, 1e-9, 0.05, 2.0, 1e3, math.inf):
            estimate_contraction(radius, 0.5)
        assert not calls
        # a fresh B, whose expm is not cached
        center(_callable(gauge_potential(TracelessHermitian(0.01 * DIAG.matrix))))
        assert calls


class TestStepMap:
    def test_fixed_point_at_origin(self):
        A = t_step(TracelessHermitian.zero(1), zero_potential)
        assert A.norm == 0.0

    def test_step_bounded_by_potential_size(self):
        # ||T(0)|| <= C ||phi||_C0 on a shrinking sequence
        th = first_eigenbasis(1)[2]
        norms = []
        for scale in (0.08, 0.04, 0.02, 0.01):
            phi = eigenbasis_potential(th, scale)
            norms.append(t_step(TracelessHermitian.zero(1), phi).norm)
        ratios = [v / s for v, s in zip(norms, (0.08, 0.04, 0.02, 0.01))]
        assert norms[0] > norms[1] > norms[2] > norms[3]
        assert max(ratios) < 2.0

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_contraction_constant(self, index):
        # Phi cancels from T(B) - T(A), so one constant bounds every
        # potential's pairs; 0.0020 at radius 0.05 and damping 0.5
        phi = eigenbasis_potential(first_eigenbasis(1)[index], 0.05)
        bound = estimate_contraction()
        assert bound == pytest.approx(0.0020, abs=5e-5) and bound <= 0.5
        pairs = _ball_pairs(np.random.default_rng(index), 0.05, 100)
        assert _sampled_rate(pairs, phi.moments(), 0.5) <= bound * (1.0 + 1e-9)

    RATE_GRID = [(radius, damping) for radius in (0.05, 0.5, 2.0, 10.0)
                 for damping in (0.1, 0.5, 0.9)]

    @pytest.mark.parametrize("radius,damping", RATE_GRID)
    def test_exact_constant_bounds_and_reaches_sampled_pairs(self, radius, damping):
        # random pairs, far apart and close together, read 0.65 to 1.0 of it;
        # a short radial pair at the rim and a short pair at the origin
        # reach its two candidates 1 - 12 damping K'(d) and 1 - 2 damping
        bound = estimate_contraction(radius, damping)
        rng = np.random.default_rng(int(100 * radius) + int(10 * damping))
        Phi = np.array([0.01, -0.02, 0.03])
        assert _sampled_rate(_ball_pairs(rng, radius, 200), Phi, damping) <= bound * (1.0 + 1e-9)
        e = np.array([0.6, 0.0, 0.8]) / math.sqrt(6.0)
        h = 1e-6 * radius
        reached = _sampled_rate([((radius - h) * e, radius * e), (-h * e, h * e)], Phi, damping)
        assert reached == pytest.approx(bound, rel=1e-5)

    @pytest.mark.parametrize("damping", [1e-3, 0.1, 0.5, 0.9, 0.999])
    def test_exact_constant_matches_mpmath(self, damping):
        # max(|1 - 2 damping|, |1 - 12 damping K'(2 sqrt(2) radius)|), K' by
        # mpmath.diff of K at 40 digits.  K' = 1/2 - K coth(d/2) is a
        # difference of numbers near 1/2, so it carries about 1e-16, and
        # 12 damping times that (measured 1.17e-15 over 1,500 pairs of
        # radius in [1e-9, 1e3] and these dampings)
        with mpmath.workdps(40):
            def K(d):
                return (mpmath.sinh(d) - d) / (2 * (mpmath.cosh(d) - 1))

            for radius in (0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.5, 2.0, 10.0, 60.0, 1e3):
                d = 2 * mpmath.sqrt(2) * mpmath.mpf(radius)
                slope = mpmath.diff(K, d) if d else mpmath.mpf(1) / 6
                want = max(abs(1 - 2 * mpmath.mpf(damping)),
                           abs(1 - 12 * mpmath.mpf(damping) * slope))
                got = estimate_contraction(radius, damping)
                assert abs(mpmath.mpf(got) - want) <= 2e-15, (radius, got)

    def test_kernel_slope_ordering(self):
        # 0 < K' <= K / d <= 1/6, both falling: every eigenvalue of the
        # step's Jacobian, 1 - 12 damping K' or 1 - 12 damping K / d, lies in
        # [1 - 2 damping, 1); K' = csch^2(x) (x coth x - 1) / 2 at x = d/2
        # is K's derivative, K = (coth x - x csch^2 x) / 2, written out
        with mpmath.workdps(60):
            prev = (mpmath.mpf(1) / 6, mpmath.mpf(1) / 6)
            for d in np.geomspace(1e-6, 178.0, 80):
                x = mpmath.mpf(float(d)) / 2
                slope = (x * mpmath.coth(x) - 1) / (2 * mpmath.sinh(x) ** 2)
                ratio = (mpmath.coth(x) - x / mpmath.sinh(x) ** 2) / (4 * x)
                assert 0 < slope <= ratio <= mpmath.mpf(1) / 6
                assert slope < prev[0] and ratio < prev[1]
                prev = (slope, ratio)

    @pytest.mark.parametrize("kwargs", [{"damping": 0.0}, {"damping": 1.0}, {"damping": 1.5},
                                        {"damping": math.nan}, {"radius": -1e-3},
                                        {"radius": math.nan}])
    def test_exact_constant_domain(self, kwargs):
        with pytest.raises(ValueError):
            estimate_contraction(**kwargs)

    def test_exact_constant_at_the_extremes(self):
        assert estimate_contraction(0.0, 0.5) == 0.0
        assert estimate_contraction(0.0, 0.25) == 0.5
        assert estimate_contraction(math.inf, 0.5) == 1.0
        assert estimate_contraction(1e-300, 0.9) == pytest.approx(0.8, rel=1e-15)

    def test_no_step_grows(self):
        # damping in (0, 1) puts every eigenvalue of the step's Jacobian in
        # [1 - 2 damping, 1): over 400 seeded (Phi, damping) pairs no step is
        # longer than the one before it (measured: none grows at all)
        rng = np.random.default_rng(24)
        for _ in range(400):
            Phi = rng.normal(size=3)
            Phi *= rng.uniform(0.0, 0.85) / np.linalg.norm(Phi)
            damping = rng.uniform(0.01, 0.99)
            pot = centering.FormPotential(centering._matrix(Phi).matrix)
            try:
                state = center(pot, damping=damping)
            except NonConvergenceError as exc:  # damping near 0 is slow
                state = exc.state
            steps = [row[1] for row in state.trace[1:]]
            assert all(cur - prev <= 1e-14 for prev, cur in zip(steps, steps[1:])), damping

    def test_rtol_is_gone_and_damping_keyword_only(self):
        # an old positional rtol must not become a damping
        with pytest.raises(TypeError):
            t_step(TracelessHermitian(0.01 * DIAG.matrix), zero_potential, 1e-10)
        with pytest.raises(TypeError):
            centering_residual(TracelessHermitian(0.01 * DIAG.matrix), zero_potential, 1e-10)
        with pytest.raises(TypeError):
            center(zero_potential, eta=0.1)

    def test_damping_outside_0_1_rejected(self):
        for damping in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"damping must lie in \(0, 1\)"):
                t_step(TracelessHermitian(0.01 * DIAG.matrix), zero_potential, damping=damping)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            t_step(TracelessHermitian.zero(2), zero_potential)


class TestCenter:
    def test_zero_potential_is_exact(self):
        state = center(zero_potential)
        assert state.converged
        assert state.iteration == 0
        assert state.A.norm == 0.0

    def test_eigenbasis_diagonal_potential(self):
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 0.05)
        state = center(phi)
        assert state.converged
        assert state.iteration <= 50
        assert state.residual_norm < 1e-8
        assert state.A.norm <= 0.1

    def test_offdiagonal_potentials(self):
        for index in (0, 1):
            phi = eigenbasis_potential(first_eigenbasis(1)[index], 0.05)
            state = center(phi)
            assert state.converged
            assert state.residual_norm < 1e-8

    def test_gauge_potential_recovers_inverse(self):
        b = 0.05 / math.sqrt(2)
        B = TracelessHermitian(np.diag([b, -b]))
        for phi in (gauge_potential(B), _callable(gauge_potential(B))):
            state = center(phi)
            assert state.converged
            assert state.residual_norm < 1e-8
            assert TracelessHermitian(state.A.matrix + B.matrix).norm < 1e-6

    def test_mixed_potential(self):
        basis = first_eigenbasis(1)

        def phi(z):
            Z = chart_lift(1, z)
            return 0.03 * theta(basis[0], Z) + 0.02 * theta(basis[2], Z)

        state = center(phi)
        assert state.converged
        assert state.residual_norm < 1e-8

    def test_geometric_step_decay(self):
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 0.05)
        state = center(phi)
        steps = [row[1] for row in state.trace_csv_rows()[1:]]
        for prev, cur in zip(steps, steps[1:]):
            if prev > 1e-13:
                assert cur <= 0.5 * prev

    def test_residual_at_fixed_point(self):
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 0.05)
        state = center(phi)
        r = centering_residual(state.A, phi)
        assert np.max(np.abs(r)) < 1e-8

    def test_non_finite_phi_rejected(self):
        # nan once raised "no centre exists: |Phi| = nan"
        for phi in (centering.FormPotential(np.full((2, 2), math.nan)),
                    centering.FormPotential(np.diag([math.inf, -math.inf]))):
            with pytest.raises(ValueError, match="are not finite"):
                center(phi)

    def test_nonconvergence_carries_state(self):
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 0.05)
        with pytest.raises(NonConvergenceError) as info:
            center(phi, tol=1e-14, max_iter=2)
        state = info.value.state
        assert state is not None
        assert not state.converged
        assert state.iteration == 2

    @pytest.mark.parametrize("kwargs", [{"damping": 0.0}, {"damping": -0.6}, {"tol": 0.0},
                                        {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
                                        {"damping": 1.0}, {"damping": 1.5}])
    def test_nonpositive_tol_or_damping_rejected(self, kwargs):
        # damping 0 and tol -1 once ran all 50 iterations before raising;
        # tol inf reported converged at iteration 0, with A = 0;
        # near the centre a step multiplies the error by 1 - 2 damping, so
        # damping 1 ran all 50 and damping 1.5 doubled the error each step
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 0.05)
        with pytest.raises(ValueError, match=r"tol must be positive|damping must lie in \(0, 1\)"):
            center(phi, **kwargs)

    def test_negative_max_iter_rejected(self):
        # max_iter -1 was once clamped to 0: the zero potential converged
        # and the others reported "no convergence within -1 iterations"
        for phi in (zero_potential, eigenbasis_potential(first_eigenbasis(1)[2], 0.05)):
            with pytest.raises(ValueError, match="max_iter = -1 is negative"):
                center(phi, max_iter=-1)
        assert center(zero_potential, max_iter=0).iteration == 0

    def test_no_centre_raises_before_the_first_step(self):
        # |R| < sqrt(3)/2, so at |Phi| = 1 no centre exists: this once ran
        # all 50 steps to the residual 1 - sqrt(3)/2
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 1.0)
        with pytest.raises(NonConvergenceError, match=r"\|Phi\| = 1 is not below sqrt\(3\)/2") as info:
            center(phi)
        state = info.value.state
        assert state.iteration == 0 and not state.converged and state.A.norm == 0.0
        assert state.residual_norm == pytest.approx(1.0, rel=1e-15)
        assert state.trace == ((0, 0.0, state.residual_norm),)
        # just inside the domain a centre exists, and is reached
        inside = eigenbasis_potential(first_eigenbasis(1)[2], 0.8)
        assert center(inside, max_iter=200).converged

    def test_trace_rows_shape(self):
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 0.05)
        state = center(phi)
        rows = state.trace_csv_rows()
        assert rows[0] == ("iteration", "step_norm", "residual_norm")
        assert len(rows) == state.iteration + 2
        assert all(len(row) == 3 for row in rows)


def _ball_pairs(rng, radius, count):
    """count random pairs of coordinate vectors in the ball ||A||_F <= radius,
    half of them far apart and half a short step apart."""
    def point(scale):
        a = rng.normal(size=3)
        return a * (scale * rng.uniform() ** (1 / 3) / (math.sqrt(6.0) * np.linalg.norm(a)))

    pairs = [(point(radius), point(radius)) for _ in range(count // 2)]
    for _ in range(count - count // 2):
        a, u = point(0.999 * radius), point(1e-4 * radius)
        pairs.append((a, a + u))
    return pairs


def _sampled_rate(pairs, Phi, damping):
    """max ||T(b) - T(a)|| / ||b - a|| over the pairs, through the solver's step."""
    return max(math.hypot(*(centering._t_map(b, Phi, damping)[0]
                            - centering._t_map(a, Phi, damping)[0])) / math.hypot(*(b - a))
               for a, b in pairs)

"""Contraction-mapping solver for the centrally positioned condition."""

import math

import numpy as np
import pytest

from cpnbergman import centering
from cpnbergman import (
    AutomorphismPotential,
    DivergenceError,
    NonConvergenceError,
    SingularMatrixError,
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
    fs_weight,
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
        Eneg = A.scaled(-1.0).expm()
        assert np.allclose(E @ Eneg, np.eye(2), atol=1e-14)
        # det exp(A) = exp(tr A) = 1 for traceless A
        assert np.linalg.det(E) == pytest.approx(1.0, abs=1e-14)

    def test_arithmetic(self):
        S = DIAG + DIAG.scaled(-1.0)
        assert S.norm == 0.0
        assert (DIAG - DIAG.scaled(0.5)).norm == pytest.approx(DIAG.norm / 2)


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
        pot = AutomorphismPotential(DIAG.scaled(0.1))
        z = np.array([0.0 + 0j, 1.0 + 0j, 2.0 + 1j])
        vals = pot(z)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(rho_potential(DIAG.scaled(0.1), 0.0))


class TestLMap:
    def test_dimension_one_is_diagonal(self):
        L = build_L(1)
        assert L.matrix.shape == (3, 3)
        assert np.allclose(L.matrix, np.eye(3) / math.sqrt(3), atol=1e-14)
        assert np.allclose(L.inverse @ L.matrix, np.eye(3), atol=1e-12)

    def test_diagonal_direction_maps_purely(self):
        L = build_L(1)
        # diag(1,-1)/sqrt(2) excites only the diagonal basis member
        coords = L.matrix @ np.array([0.0, 0.0, 1.0])
        assert np.count_nonzero(np.abs(coords) > 1e-13) == 1

    def test_dimension_two_invertible(self):
        L = build_L(2)
        assert L.matrix.shape == (8, 8)
        cond = np.linalg.cond(L.matrix)
        assert np.isfinite(cond)
        assert np.allclose(L.inverse @ L.matrix, np.eye(8), atol=1e-10)


class TestCachedMaps:
    def test_built_once_per_n(self):
        assert build_L(1) is build_L(1)
        assert first_eigenbasis(1) is first_eigenbasis(1)
        assert build_L(1).theta_basis is first_eigenbasis(1)

    def test_shared_arrays_are_read_only(self):
        L = build_L(1)
        for array in (L.matrix, L.inverse, L.p_matrices, L.theta_matrices):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        with pytest.raises(ValueError):
            first_eigenbasis(1)[0]._np[0, 0] = 1.0
        assert np.allclose(L.inverse @ L.matrix, np.eye(3), atol=1e-12)


def _residual_per_component(A, phi, L, rtol=1e-10):
    """The centering integrals as one scalar cp1_integral call per basis function."""
    rho = AutomorphismPotential(A.scaled(-1.0))
    out = np.empty(L.size)
    for i, th in enumerate(L.theta_basis):
        def F(z, th=th):
            return (phi(z) - rho(z)) * th.evaluate_lifts(chart_lift(1, z))

        out[i] = cp1_integral(F, fs_weight, rtol=rtol, atol=1e-13)
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
        A = A.scaled(0.04 / A.norm)
        for phi in (lambda z: sum(p(z) for p in pots), gauge_potential(A.scaled(0.5))):
            L = build_L(1)
            got = centering_residual(A, phi, L)
            want = _residual_per_component(A, phi, L)
            assert np.max(np.abs(got - want)) < 1e-12
            assert np.max(np.abs(want)) > 1e-3


def _uncached_residual(A, phi, L, rtol=1e-10):
    """The centering integrals with every factor recomputed from z on every call.

    The integrand as it stood before the node cache; center and
    estimate_contraction pass their cache in place of phi, so unwrap it.
    """
    phi = getattr(phi, "phi", phi)
    E = A.scaled(-1.0).expm()

    def F(z):
        T = L.theta_matrices.reshape((L.size, 4) + (1,) * np.ndim(z))
        s = np.abs(z) ** 2
        quad = T[:, 0].real + T[:, 3].real * s + 2.0 * (T[:, 1] * z).real
        Z = chart_lift(1, z)
        W = np.tensordot(E, Z, 1)
        num = np.sum(np.abs(W) ** 2, axis=0)
        den = np.sum(np.abs(Z) ** 2, axis=0)
        return (phi(z) - np.log(num / den)) * quad / (1.0 + s)

    return cp1_integral(F, fs_weight, rtol=rtol, atol=1e-13)


def _mix_potential():
    pots = [eigenbasis_potential(fn, w)
            for fn, w in zip(first_eigenbasis(1), (0.03, -0.025, 0.02))]
    return lambda z: sum(p(z) for p in pots)


_BITWISE_POTENTIALS = {
    "gauge": lambda: gauge_potential(TracelessHermitian(
        np.array([[0.03, 0.02 - 0.01j], [0.02 + 0.01j, -0.03]]))),
    "eigenbasis-mix": _mix_potential,
    "zero": lambda: zero_potential,
    "scalar-lambda": lambda: (lambda z: 0.02),
}


class TestNodeCache:
    def test_phi_once_per_node_set(self):
        nodes = []
        gauge = gauge_potential(DIAG.scaled(0.05 / math.sqrt(2)))

        def phi(z):
            nodes.append(z.tobytes())
            return gauge(z)

        state = center(phi)
        assert state.converged and state.iteration == 4
        # the C0 grid, then one call per distinct node array: without the
        # cache each of the 5 residuals would evaluate phi on all 3 rules
        assert len(nodes) == 1 + 3
        assert len(set(nodes)) == len(nodes)

    def test_cached_arrays_are_read_only(self):
        own = np.zeros((15, 128))

        def phi(z):
            return own

        nodes = centering._NodeCache(phi, build_L(1))
        z = np.linspace(0.1, 2.0, 15)[:, None] * np.exp(1j * np.linspace(0.0, 6.0, 128))
        factors = nodes.factors(z)
        assert nodes.factors(z.copy()) is factors
        for array in factors:
            with pytest.raises(ValueError):
                array.flat[0] = 1.0
        own[0, 0] = 1.0  # phi's own array stays writable
        assert factors[0][0, 0] == 1.0

    def test_nodes_match_exactly(self):
        nodes = centering._NodeCache(zero_potential, build_L(1))
        z = np.linspace(0.1, 2.0, 15)[:, None] * np.exp(1j * np.linspace(0.0, 6.0, 128))
        moved = z.copy()
        moved[-1, -1] *= 1.0 + 1e-16 * 4  # past the leading key bytes, one ulp off
        assert moved.tobytes() != z.tobytes()
        assert nodes.factors(moved) is not nodes.factors(z)
        assert nodes.factors(z.astype(np.complex64)) is not nodes.factors(z)

    def test_full_cache_computes_without_storing(self, monkeypatch):
        monkeypatch.setattr(centering, "_CACHE_BYTES", 0)
        nodes = centering._NodeCache(zero_potential, build_L(1))
        z = np.linspace(0.1, 2.0, 15)[:, None] * np.exp(1j * np.linspace(0.0, 6.0, 128))
        first, again = nodes.factors(z), nodes.factors(z)
        assert first is not again
        for a, b in zip(first, again):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", sorted(_BITWISE_POTENTIALS))
    def test_center_bitwise_equal_to_uncached(self, name, monkeypatch):
        phi = _BITWISE_POTENTIALS[name]()
        A = TracelessHermitian(np.array([[0.02, -0.01 + 0.015j], [-0.01 - 0.015j, -0.02]]))
        L = build_L(1)
        got = center(phi)
        residual = centering_residual(A, phi, L)
        contraction = estimate_contraction(phi, n_pairs=2)
        monkeypatch.setattr(centering, "centering_residual", _uncached_residual)
        want = center(phi)
        assert got.iteration == want.iteration
        assert got.A.matrix.tobytes() == want.A.matrix.tobytes()
        assert got.residual.tobytes() == want.residual.tobytes()
        assert got.trace == want.trace
        assert residual.tobytes() == _uncached_residual(A, phi, L).tobytes()
        assert contraction == estimate_contraction(phi, n_pairs=2)


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
        phi = eigenbasis_potential(first_eigenbasis(1)[index], 0.05)
        assert estimate_contraction(phi, n_pairs=4) <= 0.5

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
        state = center(gauge_potential(B))
        assert state.converged
        assert state.residual_norm < 1e-8
        assert (state.A + B).norm < 1e-6

    def test_mixed_potential(self):
        basis = first_eigenbasis(1)

        def phi(z):
            return 0.03 * basis[0].evaluate_lifts(_lift(z)) + 0.02 * basis[
                2
            ].evaluate_lifts(_lift(z))

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
        L = build_L(1)
        r = centering_residual(state.A, phi, L)
        assert np.max(np.abs(r)) < 1e-8

    def test_large_potential_rejected(self):
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 0.5)
        with pytest.raises(ValueError):
            center(phi)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            center(zero_potential, n=2)

    def test_nonconvergence_carries_state(self):
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 0.05)
        with pytest.raises(NonConvergenceError) as info:
            center(phi, tol=1e-14, max_iter=2)
        state = info.value.state
        assert state is not None
        assert not state.converged
        assert state.iteration == 2

    def test_divergence_detected(self):
        # negative damping turns the contraction into an expansion
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 0.05)
        with pytest.raises(DivergenceError):
            center(phi, damping=-0.6, max_iter=50)

    def test_trace_rows_shape(self):
        phi = eigenbasis_potential(first_eigenbasis(1)[2], 0.05)
        state = center(phi)
        rows = state.trace_csv_rows()
        assert rows[0] == ("iteration", "step_norm", "residual_norm")
        assert len(rows) == state.iteration + 2
        assert all(len(row) == 3 for row in rows)


def _lift(z):
    z = np.asarray(z, dtype=complex)
    return np.stack([np.ones_like(z), z])

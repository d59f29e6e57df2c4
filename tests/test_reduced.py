"""Reduction to the four-class basis: operator, projection, spectral evolution."""

import numpy as np
import pytest

from scatterwalk import core, reduced
from scatterwalk.core import WalkConfig
from scatterwalk.reduced import (
    ReducedOperator,
    asymptotic_amplitudes,
    asymptotic_params,
    embed,
    evolve_reduced,
    localization_rate,
    optimal_steps,
    project,
    reduced_initial_state,
    reduced_operator,
    spectral_decompose,
)

from helpers import naive_class_basis, naive_dense_operator, random_state

# frozen pre-build values from the 4x4 power-iteration oracle (K=2, phase pi/2)
P_MARKED_N1000_AT_555 = 0.9980032557010865
SCAN_N101 = {"formula": 56, "argmax": 56, "p_at_optimum": 0.9811676539733716}
# max_n | |c4(n)|^2 - sin^2(2xn) | over n <= 2 n_opt, per N
ASYMPTOTIC_ERRORS = {
    100: 0.029141196152769666,
    300: 0.009805794476561158,
    1000: 0.0029522513459347977,
    3000: 0.0009850844351559918,
}


def config(n, k, phase=np.pi / 2):
    return WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phase)


class TestReducedOperator:
    def test_entries_n4_k2_phase0(self):
        m = reduced_operator(4, 2, 0.0).matrix
        s = (2 / 3) * np.sqrt(2)
        expected = np.array([
            [0, 1 / 3, s, 0],
            [1 / 3, 0, 0, s],
            [0, s, -1 / 3, 0],
            [s, 0, 0, -1 / 3],
        ])
        np.testing.assert_allclose(m, expected, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-15)

    def test_marked_diagonal_n4_k2_halfpi(self):
        # [t(K-2) - r] e^{2 i phi} = (-1/3)(-1) = +1/3 at phase pi/2
        m = reduced_operator(4, 2, np.pi / 2).matrix
        assert m[3, 3] == pytest.approx(1 / 3, abs=1e-15)

    def test_unitary_across_grid(self):
        # the full advertised grid: every K at every N up to 60
        for n in range(4, 61):
            for k in range(2, n - 1):
                for phase in (0.0, np.pi / 4, np.pi / 2, np.pi):
                    m = reduced_operator(n, k, phase).matrix
                    assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("n, k", [(4, 1), (4, 3), (6, 5), (6, 6), (3, 2)])
    def test_rejects_degenerate_class_sizes(self, n, k):
        with pytest.raises(ValueError):
            reduced_operator(n, k, 0.0)

    def test_matches_projected_dense_operator(self):
        # decisive cross-check against the independently assembled full step
        for n, k in ((4, 2), (6, 2), (6, 3), (8, 4), (9, 5)):
            for phase in (0.0, np.pi / 2, np.pi):
                basis = naive_class_basis(n, range(k))
                dense = naive_dense_operator(n, range(k), phase)
                projected = basis.conj().T @ dense @ basis
                got = reduced_operator(n, k, phase).matrix
                assert np.abs(projected - got).max() < 1e-12


class TestReducedInitialState:
    @pytest.mark.parametrize("n, k", [(4, 2), (10, 3), (25, 6), (40, 38)])
    def test_exactly_normalized(self, n, k):
        comps = reduced_initial_state(n, k)
        # 2K(N-K) + K(K-1) + (N-K)(N-K-1) = N(N-1) makes this exact
        assert np.sum(np.abs(comps) ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_values_n4_k2(self):
        comps = reduced_initial_state(4, 2)
        np.testing.assert_allclose(
            comps, [1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(6), 1 / np.sqrt(6)],
            atol=1e-15,
        )

    @pytest.mark.parametrize("n, k", [(5, 2), (12, 4), (30, 3)])
    def test_embeds_to_uniform_state(self, n, k):
        state = embed(reduced_initial_state(n, k), config(n, k))
        assert np.abs(state - core.initial_state(n)).max() < 1e-13


class TestProjectEmbed:
    def test_initial_state_lies_in_subspace(self):
        comps, residual = project(core.initial_state(10), config(10, 3))
        assert residual < 1e-13
        np.testing.assert_allclose(comps, reduced_initial_state(10, 3), atol=1e-13)

    def test_evolved_states_stay_in_subspace(self):
        cfg = config(12, 3)
        state = core.initial_state(12)
        for _ in range(60):
            state = core.apply_step(state, cfg)
            _, residual = project(state, cfg)
            assert residual < 1e-10

    def test_single_edge_state_leaves_residual(self):
        state = np.zeros(30, complex)
        state[core.edge_index(6, 2, 3)] = 1.0  # both endpoints unmarked
        _, residual = project(state, config(6, 2))
        assert residual > 0.5

    def test_embed_unit_vectors(self):
        cfg = config(7, 3)
        marked_edges = core.marked_edge_indices(cfg)
        state = embed(np.array([0, 0, 0, 1.0]), cfg)
        assert np.abs(state[marked_edges] - 1 / np.sqrt(6)).max() < 1e-15
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-14)

        state = embed(np.array([1.0, 0, 0, 0]), cfg)
        sources, targets = core.edge_endpoint_arrays(7)
        inward = (sources >= 3) & (targets < 3)  # unmarked source, marked target
        np.testing.assert_allclose(state[inward], 1 / np.sqrt(12), atol=1e-15)
        assert np.abs(state[~inward]).max() == 0.0

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(11)
        cfg = config(9, 4)
        for _ in range(5):
            comps = random_state(rng, 4)
            back, residual = project(embed(comps, cfg), cfg)
            np.testing.assert_allclose(back, comps, atol=1e-13)
            assert residual < 1e-13

    def test_marked_probability_equals_w4_weight(self):
        rng = np.random.default_rng(12)
        cfg = config(11, 3)
        comps = random_state(rng, 4)
        state = embed(comps, cfg)
        assert core.marked_probability(state, cfg) == pytest.approx(
            abs(comps[3]) ** 2, abs=1e-12
        )


class TestSpectral:
    def test_identity_operator(self):
        op = ReducedOperator(matrix=np.eye(4, dtype=complex), n_vertices=10, k_marked=2, phase=0.0)
        spec = spectral_decompose(op)
        np.testing.assert_allclose(spec.eigenvalues, 1.0, atol=1e-12)
        np.testing.assert_allclose(
            spec.eigenvectors.conj().T @ spec.eigenvectors, np.eye(4), atol=1e-12
        )

    def test_trace_identity(self):
        op = reduced_operator(4, 2, np.pi / 2)
        spec = spectral_decompose(op)
        assert spec.eigenvalues.sum() == pytest.approx(np.trace(op.matrix), abs=1e-10)

    def test_unit_modulus_and_orthonormality(self):
        for n, k, phase in ((5, 2, 0.3), (20, 4, np.pi / 2), (40, 2, np.pi)):
            spec = spectral_decompose(reduced_operator(n, k, phase))
            np.testing.assert_allclose(np.abs(spec.eigenvalues), 1.0, atol=1e-10)
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_overlaps_reconstruct_initial_state(self):
        spec = spectral_decompose(reduced_operator(15, 3, np.pi / 2))
        recon = spec.eigenvectors @ spec.overlaps
        np.testing.assert_allclose(recon, reduced_initial_state(15, 3), atol=1e-12)

    def test_rejects_non_unitary(self):
        op = ReducedOperator(
            matrix=np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex),
            n_vertices=10, k_marked=2, phase=0.0,
        )
        with pytest.raises(ValueError, match="not unitary"):
            spectral_decompose(op)

    def test_spectral_evolution_matches_power_iteration(self):
        op = reduced_operator(4, 2, np.pi / 2)
        comps = reduced_initial_state(4, 2)
        by_power = comps.copy()
        for _ in range(50):
            by_power = op.matrix @ by_power
        np.testing.assert_allclose(evolve_reduced(comps, op, 50), by_power, atol=1e-10)


class TestEvolveReduced:
    def test_zero_and_one_step(self):
        op = reduced_operator(9, 3, np.pi / 2)
        comps = reduced_initial_state(9, 3)
        np.testing.assert_allclose(evolve_reduced(comps, op, 0), comps, atol=1e-13)
        np.testing.assert_allclose(evolve_reduced(comps, op, 1), op.matrix @ comps, atol=1e-13)

    def test_matches_full_engine_for_200_steps(self):
        cfg = config(30, 3)
        op = reduced_operator(30, 3, np.pi / 2)
        comps0 = reduced_initial_state(30, 3)
        state = core.initial_state(30)
        for n in range(1, 201):
            state = core.apply_step(state, cfg)
            if n % 20 == 0 or n == 200:
                full_comps, _ = project(state, cfg)
                np.testing.assert_allclose(
                    evolve_reduced(comps0, op, n), full_comps, atol=1e-10
                )

    def test_rejects_negative_steps(self):
        op = reduced_operator(6, 2, 0.0)
        with pytest.raises(ValueError):
            evolve_reduced(reduced_initial_state(6, 2), op, -3)

    @pytest.mark.parametrize("steps", [True, float("nan"), float("inf")])
    def test_rejects_bool_nan_and_infinite_steps(self, steps):
        op = reduced_operator(6, 2, np.pi / 2)
        with pytest.raises(ValueError, match=f"got {steps!r}"):
            evolve_reduced(reduced_initial_state(6, 2), op, steps)


class TestAsymptotics:
    def test_zero_steps(self):
        np.testing.assert_allclose(
            asymptotic_amplitudes(1000, 2, 0), [0, 0, 1, 0], atol=1e-15
        )

    def test_peak_at_optimal_steps(self):
        n_opt = optimal_steps(1000, 2)
        comps = asymptotic_amplitudes(1000, 2, n_opt)
        assert abs(comps[3]) ** 2 > 0.999

    def test_warns_when_x_is_large(self):
        with pytest.warns(UserWarning, match="sqrt"):
            asymptotic_amplitudes(10, 3, 5)

    def test_error_to_exact_decreases_with_n(self):
        for n, frozen in ASYMPTOTIC_ERRORS.items():
            op = reduced_operator(n, 2, np.pi / 2)
            x = localization_rate(n, 2)
            horizon = 2 * optimal_steps(n, 2)
            series = reduced.component_series(op, reduced_initial_state(n, 2), horizon)
            exact = np.abs(series[:, 3]) ** 2
            approx = np.sin(2 * x * np.arange(horizon + 1)) ** 2
            assert np.abs(exact - approx).max() == pytest.approx(frozen, abs=1e-9)
        errors = list(ASYMPTOTIC_ERRORS.values())
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestOptimalSteps:
    @pytest.mark.parametrize("n, k, expected", [(101, 2, 56), (1000, 2, 555), (50, 2, 27)])
    def test_formula_values(self, n, k, expected):
        assert optimal_steps(n, k) == expected

    def test_params(self):
        params = asymptotic_params(101, 2)
        assert params.x == pytest.approx(np.sqrt(2) / 100, abs=1e-15)
        assert params.n_opt == round(np.pi / (4 * params.x))

    def test_scan_agrees_with_formula(self):
        formula = optimal_steps(101, 2, mode="formula")
        scanned = optimal_steps(101, 2, mode="scan")
        assert formula == SCAN_N101["formula"]
        assert scanned == SCAN_N101["argmax"]
        assert abs(scanned - formula) <= 2
        op = reduced_operator(101, 2, np.pi / 2)
        comps0 = reduced_initial_state(101, 2)
        p_scan = abs(evolve_reduced(comps0, op, scanned)[3]) ** 2
        p_formula = abs(evolve_reduced(comps0, op, formula)[3]) ** 2
        assert p_scan >= p_formula - 1e-15
        assert p_scan == pytest.approx(SCAN_N101["p_at_optimum"], abs=1e-9)

    def test_scan_horizon_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            optimal_steps(101, 2, mode="scan", scan_horizon=10)
        with pytest.raises(ValueError, match="mode"):
            optimal_steps(101, 2, mode="bogus")

    def test_localization_regression_n1000(self):
        op = reduced_operator(1000, 2, np.pi / 2)
        comps = evolve_reduced(reduced_initial_state(1000, 2), op, 555)
        assert abs(comps[3]) ** 2 >= P_MARKED_N1000_AT_555 - 1e-9

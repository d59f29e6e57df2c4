"""Full-state engine: indexing, scattering step, unitarity, phases."""

import numpy as np
import pytest

from scatterwalk import core
from scatterwalk.core import WalkConfig

from helpers import naive_dense_operator, operator_of, random_state, relabel_state

# exact marked-edge probability at the optimal step count for N=100, K=2,
# phase pi/2, frozen from the pre-build 4x4 spectral evolution
P_MARKED_N100_K2_NOPT = 0.980108582511343


def config(n, k=0, phase=0.0):
    return WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phase)


class TestCoefficients:
    @pytest.mark.parametrize("n, t, r", [(3, 1.0, 0.0), (5, 0.5, 0.5), (7, 1 / 3, 2 / 3)])
    def test_known_values(self, n, t, r):
        got = core.coefficients(n)
        assert got.t == pytest.approx(t, abs=1e-15)
        assert got.r == pytest.approx(r, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_rejects_small_graphs(self, n):
        with pytest.raises(ValueError):
            core.coefficients(n)


class TestIndexing:
    @pytest.mark.parametrize("n", [3, 4, 7, 11])
    def test_canonical_formula_and_bijection(self, n):
        seen = set()
        for m in range(n):
            for l in range(n):
                if m == l:
                    continue
                idx = core.edge_index(n, m, l)
                assert idx == m * (n - 1) + (l if l < m else l - 1)
                assert core.edge_endpoints(n, idx) == (m, l)
                seen.add(idx)
        assert seen == set(range(core.n_edge_states(n)))

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            core.edge_index(5, 2, 2)
        with pytest.raises(ValueError):
            core.edge_index(5, 0, 5)
        with pytest.raises(ValueError):
            core.edge_endpoints(5, 20)

    def test_endpoint_arrays_match_scalar_decode(self):
        sources, targets = core.edge_endpoint_arrays(6)
        for idx in range(30):
            assert (sources[idx], targets[idx]) == core.edge_endpoints(6, idx)


class TestInitialState:
    @pytest.mark.parametrize("n, dim", [(3, 6), (10, 90)])
    def test_uniform_amplitudes(self, n, dim):
        state = core.initial_state(n)
        assert state.shape == (dim,)
        np.testing.assert_allclose(state, 1 / np.sqrt(dim), atol=1e-15)

    @pytest.mark.parametrize("n", [3, 6, 17])
    def test_normalized(self, n):
        assert np.sum(np.abs(core.initial_state(n)) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_graphs(self):
        with pytest.raises(ValueError):
            core.initial_state(2)


class TestApplyStep:
    def test_pure_transmission_at_n3(self):
        # r = 0 at N=3, so the only move from edge (0 -> 1) is on to vertex 2
        state = np.zeros(6, complex)
        state[core.edge_index(3, 0, 1)] = 1.0
        out = core.apply_step(state, config(3))
        expected = np.zeros(6, complex)
        expected[core.edge_index(3, 1, 2)] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 5, 12, 40])
    def test_uniform_state_is_fixed_point(self, n):
        state = core.initial_state(n)
        out = core.apply_step(state, config(n))
        assert np.abs(out - state).max() < 1e-13

    def test_marked_edge_amplitudes_n4(self):
        # from the marked in-edge (0 -> 1): reflection carries -r e^{2 i phi},
        # transmission to unmarked targets carries t e^{i phi}
        cfg = config(4, k=2, phase=np.pi / 2)
        state = np.zeros(12, complex)
        state[core.edge_index(4, 0, 1)] = 1.0
        out = core.apply_step(state, cfg)
        assert out[core.edge_index(4, 1, 0)] == pytest.approx(1 / 3, abs=1e-15)
        assert out[core.edge_index(4, 1, 2)] == pytest.approx(2j / 3, abs=1e-15)
        assert out[core.edge_index(4, 1, 3)] == pytest.approx(2j / 3, abs=1e-15)

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 10, 30):
            for k in (0, 2, 3):
                if k > n:
                    continue
                for phase in (0.0, np.pi / 4, np.pi / 2, np.pi):
                    cfg = config(n, k, phase)
                    for _ in range(5):
                        out = core.apply_step(random_state(rng, n * (n - 1)), cfg)
                        assert abs(np.linalg.norm(out) - 1) < 1e-12

    def test_input_not_mutated(self):
        state = core.initial_state(8)
        before = state.copy()
        core.apply_step(state, config(8, k=3, phase=np.pi / 2))
        np.testing.assert_array_equal(state, before)

    def test_single_marked_vertex_walks_unmarked(self):
        # K = 1 leaves no marked edge, so the phase never fires
        rng = np.random.default_rng(21)
        state = random_state(rng, 42)
        lone = WalkConfig(n_vertices=7, marked_set=frozenset({4}), phase=np.pi / 2)
        np.testing.assert_array_equal(
            core.apply_step(state, lone), core.apply_step(state, config(7))
        )

    def test_fully_marked_graph_stays_unitary(self):
        # K = N phases every edge; still one unitary step
        cfg = WalkConfig(n_vertices=6, marked_set=frozenset(range(6)), phase=np.pi / 2)
        rng = np.random.default_rng(22)
        out = core.apply_step(random_state(rng, 30), cfg)
        assert abs(np.linalg.norm(out) - 1) < 1e-12
        dense = core.dense_step_operator(cfg)
        assert np.abs(dense.conj().T @ dense - np.eye(30)).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            core.apply_step(np.zeros(10, complex), config(5))

    def test_nonfinite_rejected(self):
        state = core.initial_state(5).copy()
        state[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            core.apply_step(state, config(5))


class TestDenseCrossCheck:
    @pytest.mark.parametrize("n, k", [(4, 2), (7, 3), (10, 2), (12, 4)])
    @pytest.mark.parametrize("phase", [0.0, np.pi / 2, np.pi])
    def test_dense_vs_independent_and_matrix_free(self, n, k, phase):
        cfg = config(n, k, phase)
        dense = core.dense_step_operator(cfg)
        dim = dense.shape[0]
        assert np.abs(dense.conj().T @ dense - np.eye(dim)).max() < 1e-12
        naive = naive_dense_operator(n, range(k), phase)
        assert np.abs(dense - naive).max() < 1e-13
        free = operator_of(lambda col: core.apply_step(col, cfg), dim)
        assert np.abs(free - dense).max() < 1e-13

    def test_marked_columns_match_scattering_rules(self):
        # single marked edge: spell out both local rules and compare columns
        n, phase = 6, 0.7
        j, k = 1, 4
        cfg = WalkConfig(n_vertices=n, marked_set=frozenset({j, k}), phase=phase)
        dense = core.dense_step_operator(cfg)
        t, r = core.coefficients(n)

        col = np.zeros(n * (n - 1), complex)  # image of the marked in-edge (j -> k)
        col[core.edge_index(n, k, j)] = -r * np.exp(2j * phase)
        for l in range(n):
            if l not in (j, k):
                col[core.edge_index(n, k, l)] = t * np.exp(1j * phase)
        np.testing.assert_allclose(dense[:, core.edge_index(n, j, k)], col, atol=1e-15)

        m = 0  # image of an unmarked in-edge (m -> j) heading into the marked vertex
        col = np.zeros(n * (n - 1), complex)
        col[core.edge_index(n, j, m)] = -r
        col[core.edge_index(n, j, k)] = t * np.exp(1j * phase)
        for l in range(n):
            if l not in (j, m, k):
                col[core.edge_index(n, j, l)] = t
        np.testing.assert_allclose(dense[:, core.edge_index(n, m, j)], col, atol=1e-15)


class TestPermutationCovariance:
    @pytest.mark.parametrize("n, k", [(6, 2), (8, 3), (10, 4)])
    def test_relabeling_commutes_with_step(self, n, k):
        rng = np.random.default_rng(n * 100 + k)
        cfg = config(n, k, np.pi / 2)
        for _ in range(4):
            # permute marked among marked and unmarked among unmarked
            perm = np.concatenate([
                rng.permutation(k),
                k + rng.permutation(n - k),
            ])
            state = random_state(rng, n * (n - 1))
            lhs = core.apply_step(relabel_state(state, n, perm), cfg)
            rhs = relabel_state(core.apply_step(state, cfg), n, perm)
            assert np.abs(lhs - rhs).max() < 1e-13


class TestEvolve:
    def test_zero_steps_is_identity(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 30)
        out = core.evolve(state, config(6, 2, np.pi / 2), 0)
        np.testing.assert_array_equal(out, state)

    def test_one_step_matches_apply_step(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 42)
        cfg = config(7, 3, np.pi / 2)
        np.testing.assert_allclose(
            core.evolve(state, cfg, 1), core.apply_step(state, cfg), atol=1e-15
        )

    def test_norm_drift_stays_small(self):
        cfg = config(30, 3, np.pi / 2)
        out = core.evolve(core.initial_state(30), cfg, 200)
        assert abs(np.linalg.norm(out) - 1) < 1e-9

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            core.evolve(core.initial_state(5), config(5), -1)

    @pytest.mark.parametrize("steps", [True, float("nan"), float("inf")])
    def test_rejects_bool_nan_and_infinite_steps(self, steps):
        with pytest.raises(ValueError, match=f"got {steps!r}"):
            core.evolve(core.initial_state(5), config(5), steps)

    def test_grid_in_grid_out(self):
        rng = np.random.default_rng(5)
        cfg = config(9, 3, np.pi / 2)
        state = random_state(rng, 72)
        for steps in (0, 1, 4):
            grid = core.evolve(core.to_grid(state, 9), cfg, steps)
            assert grid.shape == (9, 9)
            np.testing.assert_allclose(
                core.to_packed(grid), core.evolve(state, cfg, steps), atol=1e-15
            )


class TestGridLayout:
    def test_round_trip_is_exact(self):
        state = random_state(np.random.default_rng(8), 42)
        grid = core.to_grid(state, 7)
        assert grid[2, 5] == state[core.edge_index(7, 2, 5)]
        assert not grid.diagonal().any()
        np.testing.assert_array_equal(core.to_packed(grid), state)
        np.testing.assert_array_equal(core.to_packed(grid.T.copy().T), state)

    def test_step_returns_a_transposed_view(self):
        cfg = config(6, 2, np.pi / 2)
        grid = core.to_grid(core.initial_state(6), 6)
        once = core.apply_step(grid, cfg)
        assert once.flags.f_contiguous and not once.flags.c_contiguous
        assert core.apply_step(once, cfg).flags.c_contiguous

    @pytest.mark.parametrize("shape", [(6, 5), (5, 5, 1), (31,)])
    def test_rejects_wrong_shapes(self, shape):
        with pytest.raises(ValueError, match="shape"):
            core.apply_step(np.zeros(shape, complex), config(6))

    def test_rejects_nonzero_diagonal(self):
        grid = core.to_grid(core.initial_state(5), 5)
        grid[3, 3] = 0.1
        with pytest.raises(ValueError, match="diagonal"):
            core.apply_step(grid, config(5))

    def test_rejects_nonfinite_grid(self):
        grid = core.to_grid(core.initial_state(5), 5)
        grid[0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            core.marked_probability(grid, config(5, 2))


class TestMarkedProbability:
    @pytest.mark.parametrize("n, k", [(5, 2), (10, 3), (20, 4)])
    def test_uniform_state_value(self, n, k):
        cfg = config(n, k)
        expected = k * (k - 1) / (n * (n - 1))
        assert core.marked_probability(core.initial_state(n), cfg) == pytest.approx(
            expected, abs=1e-14
        )

    def test_all_weight_on_marked_edges(self):
        cfg = config(8, 3)
        state = np.zeros(56, complex)
        idx = core.marked_edge_indices(cfg)
        state[idx] = 1 / np.sqrt(len(idx))
        assert core.marked_probability(state, cfg) == pytest.approx(1.0, abs=1e-14)

    def test_localization_regression_n100(self):
        # evolved through the full engine; target frozen pre-build
        cfg = config(100, 2, np.pi / 2)
        out = core.evolve(core.initial_state(100), cfg, 55)
        p = core.marked_probability(out, cfg)
        assert p > 0.7
        assert p == pytest.approx(P_MARKED_N100_K2_NOPT, abs=1e-9)


class TestWalkConfig:
    def test_rejects_out_of_range_marked(self):
        with pytest.raises(ValueError):
            WalkConfig(n_vertices=5, marked_set=frozenset({0, 5}))

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError):
            WalkConfig(n_vertices=2)

    def test_k_marked(self):
        assert WalkConfig(6, frozenset({1, 3, 5})).k_marked == 3
        assert WalkConfig(6).k_marked == 0

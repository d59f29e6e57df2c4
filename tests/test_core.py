"""Full-state engine: scattering step, unitarity, phases, the dense operator."""

import numpy as np
import pytest

from scatterwalk import core, oracle, reduced
from scatterwalk.core import WalkConfig
from scatterwalk.oracle import OracleFunction, QueryLedger

from helpers import (
    edge_block,
    edge_index,
    grid_of,
    marked_phase_vector,
    naive_dense_operator,
    naive_grid_step,
    operator_of,
    packed_of,
    random_state,
    relabel_state,
)

# exact marked-edge probability at the optimal step count for N=100, K=2,
# phase pi/2, frozen from the pre-build 4x4 spectral evolution
P_MARKED_N100_K2_NOPT = 0.980108582511343


def config(n, k=0, phase=0.0):
    return WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phase)


def packed_step(state, cfg):
    """apply_step of a packed state, unpacked and packed again by the helpers."""
    return packed_of(core.apply_step(grid_of(state, cfg.n_vertices), cfg))


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


class TestInitialState:
    @pytest.mark.parametrize("n, dim", [(3, 6), (10, 90)])
    def test_uniform_amplitudes(self, n, dim):
        state = packed_of(core.initial_grid(n))
        assert state.shape == (dim,)
        np.testing.assert_allclose(state, 1 / np.sqrt(dim), atol=1e-15)

    @pytest.mark.parametrize("n", [3, 6, 17])
    def test_normalized(self, n):
        assert np.sum(np.abs(core.initial_grid(n)) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_graphs(self):
        with pytest.raises(ValueError):
            core.initial_grid(2)

    @pytest.mark.parametrize("n", [3, 8, 300])
    def test_initial_grid_is_the_unpacked_initial_state(self, n):
        grid = core.initial_grid(n)
        assert grid.flags.c_contiguous
        dim = n * (n - 1)
        uniform = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
        assert grid.tobytes() == grid_of(uniform, n).tobytes()


class TestApplyStep:
    def test_pure_transmission_at_n3(self):
        # r = 0 at N=3, so the only move from edge (0 -> 1) is on to vertex 2
        state = np.zeros(6, complex)
        state[edge_index(3, 0, 1)] = 1.0
        out = packed_step(state, config(3))
        expected = np.zeros(6, complex)
        expected[edge_index(3, 1, 2)] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 5, 12, 40])
    def test_uniform_state_is_fixed_point(self, n):
        state = core.initial_grid(n)
        out = core.apply_step(state, config(n))
        assert np.abs(out - state).max() < 1e-13

    def test_marked_edge_amplitudes_n4(self):
        # from the marked in-edge (0 -> 1): reflection carries -r e^{2 i phi},
        # transmission to unmarked targets carries t e^{i phi}
        cfg = config(4, k=2, phase=np.pi / 2)
        state = np.zeros(12, complex)
        state[edge_index(4, 0, 1)] = 1.0
        out = packed_step(state, cfg)
        assert out[edge_index(4, 1, 0)] == pytest.approx(1 / 3, abs=1e-15)
        assert out[edge_index(4, 1, 2)] == pytest.approx(2j / 3, abs=1e-15)
        assert out[edge_index(4, 1, 3)] == pytest.approx(2j / 3, abs=1e-15)

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 10, 30):
            for k in (0, 2, 3):
                if k > n:
                    continue
                for phase in (0.0, np.pi / 4, np.pi / 2, np.pi):
                    cfg = config(n, k, phase)
                    for _ in range(5):
                        out = core.apply_step(grid_of(random_state(rng, n * (n - 1)), n), cfg)
                        assert abs(np.linalg.norm(out) - 1) < 1e-12

    def test_input_not_mutated(self):
        state = core.initial_grid(8)
        before = state.copy()
        core.apply_step(state, config(8, k=3, phase=np.pi / 2))
        np.testing.assert_array_equal(state, before)

    def test_single_marked_vertex_walks_unmarked(self):
        # K = 1 leaves no marked edge, so the phase never fires
        rng = np.random.default_rng(21)
        state = grid_of(random_state(rng, 42), 7)
        lone = WalkConfig(n_vertices=7, marked_set=frozenset({4}), phase=np.pi / 2)
        np.testing.assert_array_equal(
            core.apply_step(state, lone), core.apply_step(state, config(7))
        )

    def test_fully_marked_graph_stays_unitary(self):
        # K = N phases every edge; still one unitary step
        cfg = WalkConfig(n_vertices=6, marked_set=frozenset(range(6)), phase=np.pi / 2)
        rng = np.random.default_rng(22)
        out = core.apply_step(grid_of(random_state(rng, 30), 6), cfg)
        assert abs(np.linalg.norm(out) - 1) < 1e-12
        dense = edge_block(core.dense_step_operator(cfg), 6)
        assert np.abs(dense.conj().T @ dense - np.eye(30)).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            core.apply_step(np.zeros(10, complex), config(5))

    def test_nonfinite_rejected(self):
        state = core.initial_grid(5)
        state[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            core.apply_step(state, config(5))


#: the two validated steps, at N=7 with vertices 0, 1, 2 marked and phase pi/2
VALIDATED_STEPS = {
    "apply_step": lambda state, **kw: core.apply_step(state, config(7, 3, np.pi / 2), **kw),
    "oracle_step": lambda state, **kw: oracle.oracle_step(
        state, OracleFunction(7, frozenset(range(3))), QueryLedger(), **kw),
}


#: every function that steps or reads a state, on the same walk
GRID_ONLY = {
    **VALIDATED_STEPS,
    "evolve": lambda state: core.evolve(state, config(7, 3, np.pi / 2), 2),
    "marked_probability": lambda state: core.marked_probability(state, config(7, 3, np.pi / 2)),
    "project": lambda state: reduced.project(state, config(7, 3, np.pi / 2)),
}


#: what the steps raise for a packed state: the grid is the only layout they take
PACKED_REFUSAL = r"shape \(42,\), expected \(7, 7\)"


def laid_out(state, layout):
    """A packed state as itself, as a row-major grid or as a transposed view."""
    if layout == "packed":
        return state
    grid = grid_of(state, 7)
    return grid if layout == "grid" else grid.T.copy().T


class TestValidatedSteps:
    """The steps and readers take a grid only; the steps refuse bad input
    before writing anything."""

    @pytest.mark.parametrize("function, observed", [
        *((function, False) for function in GRID_ONLY),
        *((step, True) for step in VALIDATED_STEPS),
    ])
    def test_a_packed_state_is_refused_and_nothing_is_written(self, function, observed):
        state = random_state(np.random.default_rng(6), 42)
        before = state.copy()
        out = np.full((7, 7), 0.25 - 0.5j)
        out_before = out.copy()
        kwargs = {"out": out} if function in VALIDATED_STEPS else {}
        if observed:
            kwargs["reader"] = reduced.read_strips
        with pytest.raises(ValueError, match=PACKED_REFUSAL):
            GRID_ONLY[function](state, **kwargs)
        assert state.tobytes() == before.tobytes()
        assert out.tobytes() == out_before.tobytes()

    @pytest.mark.parametrize("step", VALIDATED_STEPS)
    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("out", [
        np.zeros((7, 7)), np.zeros((7, 7), np.complex64), np.zeros((6, 6), complex),
        np.zeros((7, 8), complex), np.zeros(49, complex), [[0j] * 7] * 7,
    ], ids=["float64", "complex64", "6x6", "7x8", "flat", "list"])
    def test_an_out_that_is_not_a_complex_grid_is_refused_and_nothing_is_written(
        self, step, observed, out
    ):
        grid = grid_of(random_state(np.random.default_rng(7), 42), 7)
        before, out_before = grid.copy(), np.array(out)
        kwargs = {"reader": reduced.read_strips} if observed else {}
        with pytest.raises(ValueError, match=r"out must be a complex128 array of shape \(7, 7\)"):
            VALIDATED_STEPS[step](grid, out=out, **kwargs)
        assert grid.tobytes() == before.tobytes()
        np.testing.assert_array_equal(np.array(out), out_before)
        assert np.array(out).dtype == out_before.dtype

    @pytest.mark.parametrize("step", VALIDATED_STEPS)
    @pytest.mark.parametrize("layout", ["packed", "grid", "transposed"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0.5, np.inf)])
    @pytest.mark.parametrize("edge", [(1, 2), (5, 3)])  # inside the marked block, or off it
    @pytest.mark.parametrize("target", ["fresh", "in place", "observed"])
    def test_non_finite_amplitudes_are_refused_and_nothing_is_written(
        self, step, layout, bad, edge, target
    ):
        state = random_state(np.random.default_rng(3), 42)
        state[edge_index(7, *edge)] = bad
        state = laid_out(state, layout)
        before = state.copy()
        kwargs = {"out": np.full((7, 7), 0.25 - 0.5j)}
        if target == "in place" and layout != "packed":
            kwargs["out"] = state
        elif target == "observed":
            kwargs["reader"] = reduced.read_strips
        out_before = kwargs["out"].copy()
        # a packed state is refused for its shape, before its amplitudes are read
        with pytest.raises(ValueError, match=PACKED_REFUSAL if layout == "packed"
                           else "non-finite"):
            VALIDATED_STEPS[step](state, **kwargs)
        assert state.tobytes() == before.tobytes()
        assert kwargs["out"].tobytes() == out_before.tobytes()

    @pytest.mark.parametrize("step", VALIDATED_STEPS)
    @pytest.mark.parametrize("layout", ["grid", "transposed"])
    @pytest.mark.parametrize("observed", [False, True])
    def test_a_nonzero_diagonal_is_refused_and_nothing_is_written(self, step, layout, observed):
        grid = laid_out(random_state(np.random.default_rng(4), 42), layout)
        grid[3, 3] = 0.1
        before = grid.copy()
        kwargs = {"reader": reduced.read_strips} if observed else {}
        with pytest.raises(ValueError, match="diagonal"):
            VALIDATED_STEPS[step](grid, out=grid, **kwargs)
        assert grid.tobytes() == before.tobytes()

    @pytest.mark.parametrize("step, factor", [("apply_step", np.exp(0.5j * np.pi)),
                                              ("oracle_step", 1j)])
    @pytest.mark.parametrize("layout", ["packed", "grid", "transposed"])
    def test_finite_amplitudes_whose_column_sum_overflows_are_stepped(
        self, step, factor, layout
    ):
        # two amplitudes near the float64 limit in one column: every amplitude
        # is finite, so the step runs unchecked arithmetic, inf and nan included
        state = random_state(np.random.default_rng(5), 42)
        state[edge_index(7, 0, 4)] = state[edge_index(7, 5, 4)] = 1e308
        state = laid_out(state, layout)
        if layout == "packed":
            state = grid_of(state, 7)  # converted at the caller's boundary
        with np.errstate(all="ignore"):
            expected = core.step_grid(state, np.arange(3), factor)
            got = VALIDATED_STEPS[step](state)
        assert not np.isfinite(expected).all()
        np.testing.assert_array_equal(got, expected)


class TestDenseCrossCheck:
    @pytest.mark.parametrize("n, k", [(4, 2), (7, 3), (10, 2), (12, 4)])
    @pytest.mark.parametrize("phase", [0.0, np.pi / 2, np.pi])
    def test_dense_vs_independent_and_matrix_free(self, n, k, phase):
        cfg = config(n, k, phase)
        dense = edge_block(core.dense_step_operator(cfg), n)
        dim = dense.shape[0]
        assert np.abs(dense.conj().T @ dense - np.eye(dim)).max() < 1e-12
        naive = naive_dense_operator(n, range(k), phase)
        assert np.abs(dense - naive).max() < 1e-13
        free = operator_of(lambda col: packed_step(col, cfg), dim)
        assert np.abs(free - dense).max() < 1e-13

    def test_marked_columns_match_scattering_rules(self):
        # single marked edge: spell out both local rules and compare columns
        n, phase = 6, 0.7
        j, k = 1, 4
        cfg = WalkConfig(n_vertices=n, marked_set=frozenset({j, k}), phase=phase)
        dense = edge_block(core.dense_step_operator(cfg), n)
        t, r = core.coefficients(n)

        col = np.zeros(n * (n - 1), complex)  # image of the marked in-edge (j -> k)
        col[edge_index(n, k, j)] = -r * np.exp(2j * phase)
        for l in range(n):
            if l not in (j, k):
                col[edge_index(n, k, l)] = t * np.exp(1j * phase)
        np.testing.assert_allclose(dense[:, edge_index(n, j, k)], col, atol=1e-15)

        m = 0  # image of an unmarked in-edge (m -> j) heading into the marked vertex
        col = np.zeros(n * (n - 1), complex)
        col[edge_index(n, j, m)] = -r
        col[edge_index(n, j, k)] = t * np.exp(1j * phase)
        for l in range(n):
            if l not in (j, m, k):
                col[edge_index(n, j, l)] = t
        np.testing.assert_allclose(dense[:, edge_index(n, m, j)], col, atol=1e-15)


#: N = 300 is read in strips of 109 rows: 0-108, 109-217 and 218-299, each
#: holding marked vertices at its edges
STRIPPED_N, STRIPPED_MARKED = 300, (0, 108, 109, 217, 218, 299)


class TestLocalRulesAcrossStrips:
    """A step read in several strips, checked against the local rules."""

    @pytest.mark.parametrize("step, phase", [("apply_step", 0.7), ("apply_step", np.pi / 2),
                                             ("apply_step", np.pi), ("oracle_step", np.pi / 2)])
    @pytest.mark.parametrize("layout", ["rows", "transposed", "strided"])
    @pytest.mark.parametrize("in_place", [False, True], ids=["fresh", "in place"])
    @pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
    def test_matches_the_naive_grid_step(self, step, phase, layout, in_place, observed):
        n, marked = STRIPPED_N, STRIPPED_MARKED
        assert core.strip_rows(n) == 109
        cfg = WalkConfig(n, frozenset(marked), phase)
        f = OracleFunction(n, cfg.marked_set)
        steps = {"apply_step": lambda grid, **kw: core.apply_step(grid, cfg, **kw),
                 "oracle_step": lambda grid, **kw: oracle.oracle_step(grid, f, QueryLedger(),
                                                                      **kw)}
        grid = grid_of(random_state(np.random.default_rng(11), n * (n - 1)), n)
        expected = naive_grid_step(grid, marked, phase)
        if layout == "transposed":
            grid = grid.T.copy().T
        elif layout == "strided":
            wide = np.zeros((n, 2 * n), dtype=complex)
            wide[:, ::2] = grid
            grid = wide[:, ::2]
        kwargs = {"out": grid} if in_place else {}
        if observed:
            kwargs["reader"] = reduced.read_strips
        stepped = steps[step](grid, **kwargs)
        if observed:
            stepped = stepped[0]
        assert not stepped.diagonal().any()
        assert np.abs(stepped - expected).max() < 1e-16

    @pytest.mark.parametrize("n, marked", [(4, (0, 3)), (7, (1, 2, 5)), (12, (0, 5, 6, 11))])
    @pytest.mark.parametrize("phase", [0.0, 0.7, np.pi / 2, np.pi])
    def test_the_naive_grid_step_is_the_naive_dense_operator(self, n, marked, phase):
        state = random_state(np.random.default_rng(n), n * (n - 1))
        stepped = packed_of(naive_grid_step(grid_of(state, n), marked, phase))
        assert np.abs(stepped - naive_dense_operator(n, marked, phase) @ state).max() < 1e-15


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
            lhs = packed_step(relabel_state(state, n, perm), cfg)
            rhs = relabel_state(packed_step(state, cfg), n, perm)
            assert np.abs(lhs - rhs).max() < 1e-13


class TestEvolve:
    def test_zero_steps_is_identity(self):
        rng = np.random.default_rng(3)
        state = grid_of(random_state(rng, 30), 6)
        out = core.evolve(state, config(6, 2, np.pi / 2), 0)
        np.testing.assert_array_equal(out, state)

    def test_one_step_matches_apply_step(self):
        rng = np.random.default_rng(4)
        state = grid_of(random_state(rng, 42), 7)
        cfg = config(7, 3, np.pi / 2)
        np.testing.assert_allclose(
            core.evolve(state, cfg, 1), core.apply_step(state, cfg), atol=1e-15
        )

    def test_norm_drift_stays_small(self):
        cfg = config(30, 3, np.pi / 2)
        out = core.evolve(core.initial_grid(30), cfg, 200)
        assert abs(np.linalg.norm(out) - 1) < 1e-9

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            core.evolve(core.initial_grid(5), config(5), -1)

    @pytest.mark.parametrize("steps", [True, float("nan"), float("inf")])
    def test_rejects_bool_nan_and_infinite_steps(self, steps):
        with pytest.raises(ValueError, match=f"got {steps!r}"):
            core.evolve(core.initial_grid(5), config(5), steps)

    def test_a_step_that_overflows_stops_the_evolution_at_the_next(self):
        # finite amplitudes whose column sum overflows step into inf and nan,
        # which the next step reads from its own column sums
        state = grid_of(random_state(np.random.default_rng(5), 42), 7)
        state[0, 4] = state[5, 4] = 1e308
        cfg = config(7, 3, np.pi / 2)
        with np.errstate(all="ignore"):
            assert not np.isfinite(core.evolve(state, cfg, 1)).all()
            with pytest.raises(ValueError, match="non-finite"):
                core.evolve(state, cfg, 2)

    def test_grid_in_grid_out(self):
        rng = np.random.default_rng(5)
        cfg = config(9, 3, np.pi / 2)
        state = grid_of(random_state(rng, 72), 9)
        stepped = state
        for steps in range(5):
            grid = core.evolve(state, cfg, steps)
            assert grid.shape == (9, 9)
            np.testing.assert_allclose(grid, stepped, atol=1e-15)
            stepped = core.apply_step(stepped, cfg)


class TestGridLayout:
    def test_step_returns_a_transposed_view(self):
        cfg = config(6, 2, np.pi / 2)
        grid = core.initial_grid(6)
        once = core.apply_step(grid, cfg)
        assert once.flags.f_contiguous and not once.flags.c_contiguous
        assert core.apply_step(once, cfg).flags.c_contiguous

    @pytest.mark.parametrize("shape", [(6, 5), (5, 5, 1), (31,)])
    def test_rejects_wrong_shapes(self, shape):
        with pytest.raises(ValueError, match="shape"):
            core.apply_step(np.zeros(shape, complex), config(6))

    def test_rejects_nonzero_diagonal(self):
        grid = core.initial_grid(5)
        grid[3, 3] = 0.1
        with pytest.raises(ValueError, match="diagonal"):
            core.apply_step(grid, config(5))

    def test_rejects_nonfinite_grid(self):
        grid = core.initial_grid(5)
        grid[0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            core.marked_probability(grid, config(5, 2))


class TestMarkedProbability:
    @pytest.mark.parametrize("n, k", [(5, 2), (10, 3), (20, 4)])
    def test_uniform_state_value(self, n, k):
        cfg = config(n, k)
        expected = k * (k - 1) / (n * (n - 1))
        assert core.marked_probability(core.initial_grid(n), cfg) == pytest.approx(
            expected, abs=1e-14
        )

    def test_all_weight_on_marked_edges(self):
        cfg = config(8, 3)
        state = np.zeros(56, complex)
        idx = np.flatnonzero(marked_phase_vector(8, range(3)) == 1j)
        state[idx] = 1 / np.sqrt(len(idx))
        assert core.marked_probability(grid_of(state, 8), cfg) == pytest.approx(1.0, abs=1e-14)

    def test_localization_regression_n100(self):
        # evolved through the full engine; target frozen pre-build
        cfg = config(100, 2, np.pi / 2)
        out = core.evolve(core.initial_grid(100), cfg, 55)
        p = core.marked_probability(out, cfg)
        assert p > 0.7
        assert p == pytest.approx(P_MARKED_N100_K2_NOPT, abs=1e-9)


class TestWalkConfig:
    def test_rejects_out_of_range_marked(self):
        with pytest.raises(ValueError):
            WalkConfig(n_vertices=5, marked_set=frozenset({0, 5}))

    @pytest.mark.parametrize("marked", [{1.5, 2.7}, {True, 3}, {np.bool_(True), 3}, {2.0, 3}])
    def test_refuses_a_float_or_bool_in_the_marked_set(self, marked):
        # each was truncated by int(v) before: {1.5, 2.7} became {1, 2}
        with pytest.raises(ValueError, match="^marked vertex must be an integer >= 0, got"):
            WalkConfig(10, marked, 0.5)

    def test_marked_array_is_sorted_read_only_and_left_out_of_equality(self):
        cfg = WalkConfig(10, {7, np.int64(2), 5}, 0.5)
        assert cfg.marked.tolist() == [2, 5, 7] and cfg.marked.dtype == np.intp
        assert not cfg.marked.flags.writeable
        assert all(type(v) is int for v in cfg.marked_set)
        assert cfg == WalkConfig(10, {2, 5, 7}, 0.5)
        assert hash(cfg) == hash(WalkConfig(10, {2, 5, 7}, 0.5))
        assert "marked=" not in repr(cfg)

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError):
            WalkConfig(n_vertices=2)

    @pytest.mark.parametrize("phase", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_phase(self, phase):
        with pytest.raises(ValueError, match="phase must be finite"):
            WalkConfig(10, frozenset({0, 1}), phase)

    def test_k_marked(self):
        assert WalkConfig(6, frozenset({1, 3, 5})).k_marked == 3
        assert WalkConfig(6).k_marked == 0

"""Reduction to the four-class basis: operator, projection, spectral evolution."""

import math
import re
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest

from scatterwalk import core, oracle, reduced
from scatterwalk.core import WalkConfig
from scatterwalk.oracle import OracleFunction, QueryLedger
from scatterwalk.reduced import (
    asymptotic_amplitudes,
    evolve_reduced,
    localization_rate,
    optimal_steps,
    project,
    reduced_initial_state,
    reduced_operator,
    spectral_decompose,
)

from helpers import (
    edge_endpoint_arrays,
    edge_index,
    grid_of,
    mp_search_components,
    naive_class_basis,
    naive_dense_operator,
    naive_grid_step,
    packed_of,
    random_state,
    scan_optimal_steps,
)

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
        m = reduced_operator(4, 2, 0.0)
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
        m = reduced_operator(4, 2, np.pi / 2)
        assert m[3, 3] == pytest.approx(1 / 3, abs=1e-15)

    def test_unitary_across_grid(self):
        # the full advertised grid: every K at every N up to 60
        for n in range(4, 61):
            for k in range(2, n - 1):
                for phase in (0.0, np.pi / 4, np.pi / 2, np.pi):
                    m = reduced_operator(n, k, phase)
                    assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("n, k", [(4, 1), (4, 3), (6, 5), (6, 6), (3, 2),
                                      (10, 2.5), (10.0, 3), (10, np.float64(3))])
    def test_rejects_degenerate_class_sizes(self, n, k):
        with pytest.raises(ValueError):
            reduced_operator(n, k, 0.0)

    @pytest.mark.parametrize("n, k, name, value", [
        (10, 2.5, "k_marked", 2.5), (10.0, 3, "n_vertices", 10.0),
        (10, np.float64(3), "k_marked", np.float64(3)), (True, 2, "n_vertices", True),
        (10, True, "k_marked", True), ("10", 2, "n_vertices", "10"),
    ])
    def test_non_integer_sizes_are_refused_by_name(self, n, k, name, value):
        low = {"n_vertices": 4, "k_marked": 2}[name]
        message = re.escape(f"{name} must be an integer >= {low}, got {value!r}")
        for function in (optimal_steps, localization_rate, reduced_initial_state):
            with pytest.raises(ValueError, match=message):
                function(n, k)
        with pytest.raises(ValueError, match=message):
            reduced_operator(n, k, 0.0)

    def test_numpy_integer_sizes_are_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # N(N-1) must not overflow an int32 N
            np.testing.assert_array_equal(reduced_operator(np.int32(50000), np.uint16(3), 0.5),
                                          reduced_operator(50000, 3, 0.5))
            assert optimal_steps(np.int32(50000), np.int8(2)) == optimal_steps(50000, 2)

    @pytest.mark.parametrize("n", [9 * 10**18, 10**21, 10**150])
    def test_unitary_past_int64(self, n):
        # class-size products such as K(N-K-1) pass int64 here
        m = reduced_operator(n, 3, np.pi / 2)
        assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("phase", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_phase(self, phase):
        with pytest.raises(ValueError, match="phase must be finite"):
            reduced_operator(10, 2, phase)

    @pytest.mark.parametrize("n", [10**155, 10**400])
    def test_rejects_sizes_past_float64(self, n):
        with pytest.raises(ValueError, match="N\\(N-1\\) <= 1.8e\\+308"):
            reduced_operator(n, 3, np.pi / 2)

    def test_matches_projected_dense_operator(self):
        # decisive cross-check against the independently assembled full step
        for n, k in ((4, 2), (6, 2), (6, 3), (8, 4), (9, 5)):
            for phase in (0.0, np.pi / 2, np.pi):
                basis = naive_class_basis(n, range(k))
                dense = naive_dense_operator(n, range(k), phase)
                projected = basis.conj().T @ dense @ basis
                got = reduced_operator(n, k, phase)
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
        state = naive_class_basis(n, range(k)) @ reduced_initial_state(n, k)
        assert np.abs(state - packed_of(core.initial_grid(n))).max() < 1e-13


class TestProjectEmbed:
    def test_initial_state_lies_in_subspace(self):
        comps, residual = project(core.initial_grid(10), config(10, 3))
        assert residual < 1e-13
        np.testing.assert_allclose(comps, reduced_initial_state(10, 3), atol=1e-13)

    def test_evolved_states_stay_in_subspace(self):
        cfg = config(12, 3)
        state = core.initial_grid(12)
        for _ in range(60):
            state = core.apply_step(state, cfg)
            _, residual = project(state, cfg)
            assert residual < 1e-10

    def test_single_edge_state_leaves_residual(self):
        state = np.zeros(30, complex)
        state[edge_index(6, 2, 3)] = 1.0  # both endpoints unmarked
        _, residual = project(grid_of(state, 6), config(6, 2))
        assert residual > 0.5

    def test_embed_unit_vectors(self):
        # each class vector projects to its own unit component, residual-free
        cfg = config(7, 3)
        basis = naive_class_basis(7, range(3))
        for c in range(4):
            comps, residual = project(grid_of(basis[:, c], 7), cfg)
            np.testing.assert_allclose(comps, np.eye(4)[c], atol=1e-15)
            assert residual < 1e-15

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(11)
        cfg = config(9, 4)
        for _ in range(5):
            comps = random_state(rng, 4)
            back, residual = project(grid_of(naive_class_basis(9, range(4)) @ comps, 9), cfg)
            np.testing.assert_allclose(back, comps, atol=1e-13)
            assert residual < 1e-13

    def test_marked_probability_equals_w4_weight(self):
        rng = np.random.default_rng(12)
        cfg = config(11, 3)
        comps = random_state(rng, 4)
        state = naive_class_basis(11, range(3)) @ comps
        assert core.marked_probability(grid_of(state, 11), cfg) == pytest.approx(
            abs(comps[3]) ** 2, abs=1e-12
        )


class TestSpectral:
    def test_identity_operator(self):
        eigenvalues, vecs = spectral_decompose(np.eye(4))
        np.testing.assert_allclose(eigenvalues, 1.0, atol=1e-12)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-12)

    def test_trace_identity(self):
        op = reduced_operator(4, 2, np.pi / 2)
        eigenvalues, _ = spectral_decompose(op)
        assert eigenvalues.sum() == pytest.approx(np.trace(op), abs=1e-10)

    def test_unit_modulus_and_orthonormality(self):
        for n, k, phase in (
            (5, 2, 0.3), (20, 4, np.pi / 2), (40, 2, np.pi),
            (12, 5, 0.0), (12, 5, 2 * np.pi), (10**9, 2, np.pi / 2),
        ):
            eigenvalues, vecs = spectral_decompose(reduced_operator(n, k, phase))
            np.testing.assert_allclose(np.abs(eigenvalues), 1.0, atol=1e-10)
            gram = vecs.conj().T @ vecs
            np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            spectral_decompose(np.diag([1.0, 1.0, 1.0, 0.5]))

    def test_rejects_operator_of_wrong_shape(self):
        # no type stands in front of the eigensolver, so the shape is checked
        op = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match=r"shape \(4, 4\), got \(3, 3\)"):
            spectral_decompose(op)
        with pytest.raises(ValueError, match=r"shape \(4, 4\), got \(3, 3\)"):
            evolve_reduced(reduced_initial_state(6, 2), op, 5)

    def test_spectral_evolution_matches_power_iteration(self):
        op = reduced_operator(4, 2, np.pi / 2)
        comps = reduced_initial_state(4, 2)
        by_power = comps.copy()
        for _ in range(50):
            by_power = op @ by_power
        np.testing.assert_allclose(evolve_reduced(comps, op, 50), by_power, atol=1e-10)


# |p_marked - reference| at K=2 and n_opt, measured against the 50-digit
# power: 2.2e-16, 4.4e-16, 2.2e-16, 0 and 1.3e-11 for N = 1e3 .. 1e11.
# Every spectral power is taken as a phase exp(i n theta); a power lambda**n
# carries the eigenvalues' rounding-level modulus error as |lambda|**n, which
# drifted to 4.4e-9 at N=1e9.  What is left at N=1e11 comes from the
# eigenvectors.  The bound is not to be widened to pass.
REDUCED_P_MARKED_BOUND = 1e-10
# |c - reference| over the components after 10**4 steps (10**6 at N=1e9) at a
# general phase; the measured worst is 5.5e-15 (N=1e3, phi=pi)
REDUCED_PHASE_BOUND = 1e-13


class TestEvolveReduced:
    @pytest.mark.parametrize("n", [10**3, 10**5, 10**7, 10**9, 10**11])
    def test_p_marked_at_optimum_matches_50_digit_reference(self, n):
        steps = optimal_steps(n, 2)
        op = reduced_operator(n, 2, np.pi / 2)
        got = evolve_reduced(reduced_initial_state(n, 2), op, steps)
        expected = abs(mp_search_components(n, 2, steps)[3]) ** 2
        assert abs(abs(got[3]) ** 2 - expected) < REDUCED_P_MARKED_BOUND
        assert abs(got[3]) ** 2 <= 1.0

    @pytest.mark.parametrize("phase", [0.7, 2.1, np.pi])
    @pytest.mark.parametrize(
        "n, steps", [(10**3, 10**4), (10**5, 10**4), (10**7, 10**4), (10**9, 10**6)]
    )
    def test_components_at_any_phase_match_50_digit_reference(self, n, steps, phase):
        op = reduced_operator(n, 2, phase)
        got = evolve_reduced(reduced_initial_state(n, 2), op, steps)
        expected = np.array(mp_search_components(n, 2, steps, phase=phase))
        assert np.abs(got - expected).max() < REDUCED_PHASE_BOUND

    def test_zero_and_one_step(self):
        op = reduced_operator(9, 3, np.pi / 2)
        comps = reduced_initial_state(9, 3)
        np.testing.assert_allclose(evolve_reduced(comps, op, 0), comps, atol=1e-13)
        np.testing.assert_allclose(evolve_reduced(comps, op, 1), op @ comps, atol=1e-13)

    def test_matches_full_engine_for_200_steps(self):
        cfg = config(30, 3)
        op = reduced_operator(30, 3, np.pi / 2)
        comps0 = reduced_initial_state(30, 3)
        state = core.initial_grid(30)
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


class TestComponentSeries:
    def test_matches_50_digit_reference_and_keeps_the_norm_at_n_50000(self):
        n = 50_000
        horizon = optimal_steps(n, 2)
        op = reduced_operator(n, 2, np.pi / 2)
        series = reduced.component_series(op, reduced_initial_state(n, 2), horizon)
        assert series.shape == (horizon + 1, 4)
        weights = np.abs(series) ** 2
        for i in range(0, horizon + 1, 2000):
            expected = abs(mp_search_components(n, 2, i)[3]) ** 2
            assert abs(weights[i, 3] - expected) < 1e-14
        # the norm error as `walk run` prints it: the weights summed left to right
        total = ((weights[:, 0] + weights[:, 1]) + weights[:, 2]) + weights[:, 3]
        assert np.abs(total ** 0.5 - 1.0).max() <= 1e-14

    def test_evolve_reduced_is_a_row_of_the_series_to_rounding(self):
        # both evaluate the same phases times the same coefficients; numpy's
        # last 4-term product is a gemv for one state and a gemm for the
        # series, whose rows round differently (1.12 eps at worst over 12,000
        # random draws), so the two agree to rounding, not bit for bit.
        # evolve_reduced itself is bit for bit the one-state formula, which
        # the benchmark's probes read
        eps = np.finfo(float).eps
        rng = np.random.default_rng(27)
        for trial in range(300):
            n = int(10 ** rng.uniform(math.log10(6), 12))
            k = int(rng.integers(2, min(n - 2, 40) + 1))
            phase = (0.7, np.pi / 2, 2.1)[trial % 3]
            op, state = reduced_operator(n, k, phase), reduced_initial_state(n, k)
            eigenvalues, vecs = spectral_decompose(op)
            horizon = int(rng.integers(0, 300))
            series = reduced.component_series(op, state, horizon)
            for step in rng.integers(0, horizon + 1, size=3).tolist():
                evolved = evolve_reduced(state, op, step)
                assert np.abs(evolved - series[step]).max() <= 4 * eps
                phases = np.exp(1j * (step * np.angle(eigenvalues)))
                assert np.array_equal(evolved, vecs @ (phases * (vecs.conj().T @ state)))

    @pytest.mark.parametrize("horizon", [2.5, -1, True, float("nan"), float("inf")])
    def test_refuses_the_step_counts_evolve_reduced_refuses(self, horizon):
        op, state = reduced_operator(6, 2, np.pi / 2), reduced_initial_state(6, 2)
        for evolved in (lambda: reduced.component_series(op, state, horizon),
                        lambda: evolve_reduced(state, op, horizon)):
            with pytest.raises(ValueError, match=f"got {horizon!r}"):
                evolved()

    @pytest.mark.parametrize("shape", [(3,), (4, 1), (2, 4)])
    def test_refuses_a_state_not_of_shape_4(self, shape):
        op = reduced_operator(6, 2, np.pi / 2)
        with pytest.raises(ValueError, match=r"must have shape \(4,\)"):
            reduced.component_series(op, np.ones(shape), 3)


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

    @pytest.mark.parametrize("steps", [float("nan"), float("inf"), -float("inf"), True, 2.5, -3])
    def test_refuses_the_step_counts_evolve_reduced_refuses(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer >= 0"):
            asymptotic_amplitudes(1000, 2, steps)

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
        x = localization_rate(101, 2)
        assert x == pytest.approx(np.sqrt(2) / 100, abs=1e-15)
        assert optimal_steps(101, 2) == round(np.pi / (4 * x))

    def test_scan_agrees_with_formula(self):
        formula = optimal_steps(101, 2)
        scanned = scan_optimal_steps(
            reduced_operator(101, 2, np.pi / 2), reduced_initial_state(101, 2), 2 * formula
        )
        assert formula == SCAN_N101["formula"]
        assert scanned == SCAN_N101["argmax"]
        assert abs(scanned - formula) <= 2
        op = reduced_operator(101, 2, np.pi / 2)
        comps0 = reduced_initial_state(101, 2)
        p_scan = abs(evolve_reduced(comps0, op, scanned)[3]) ** 2
        p_formula = abs(evolve_reduced(comps0, op, formula)[3]) ** 2
        assert p_scan >= p_formula - 1e-15
        assert p_scan == pytest.approx(SCAN_N101["p_at_optimum"], abs=1e-9)

    def test_localization_regression_n1000(self):
        op = reduced_operator(1000, 2, np.pi / 2)
        comps = evolve_reduced(reduced_initial_state(1000, 2), op, 555)
        assert abs(comps[3]) ** 2 >= P_MARKED_N1000_AT_555 - 1e-9

    @pytest.mark.parametrize("n, k", [(3837116321772, 13), *(
        pytest.param(10**e, k, id=f"1e{e}-{k}")
        for e in (17, 20, 30, 100, 150) for k in (2, 3, 8))])
    def test_exact_where_the_float_formula_is_not(self, n, k):
        # 80 digits beyond the integer part: pi/(4x) has up to 150 digits before the point
        with mpmath.workdps(len(str(n)) + 80):
            exact = int(mpmath.nint(mpmath.pi * (n - 1) / (4 * mpmath.sqrt(k * (k - 1)))))
        assert optimal_steps(n, k) == exact
        if (n, k) == (3837116321772, 13):  # pi/(4x) = 241286235210.50004
            assert exact == 241286235211 == round(np.pi / (4 * localization_rate(n, k))) + 1

    def test_equals_the_float_formula_where_that_is_exact(self):
        # 100,000 N log-uniform below 1e12; wherever the float rounds the other
        # way (none at this seed), 50 digits must side with the integers
        rng = np.random.default_rng(26)
        sizes = np.exp(rng.uniform(math.log(4), math.log(1e12), 100_000)).astype(np.int64)
        for n in sizes.tolist():
            k = int(rng.integers(2, min(n - 2, 64) + 1))
            got = optimal_steps(n, k)
            if got != round(np.pi / (4 * localization_rate(n, k))):
                with mpmath.workdps(50):
                    v = mpmath.pi * (n - 1) / (4 * mpmath.sqrt(k * (k - 1)))
                    assert got == int(mpmath.nint(v)), (n, k)

    def test_a_pi_bracket_too_wide_to_round_is_refused(self, monkeypatch):
        # with pi in [3.14, 3.15], pi/(2x) at N = 1001, K = 2 lies in [1110.2, 1113.7]
        monkeypatch.setattr(reduced, "_PI", 314)
        monkeypatch.setattr(reduced, "_PI_DIGITS", 2)
        assert optimal_steps(101, 2) == 56
        with pytest.raises(ValueError, match="pi to 2 digits cannot round the optimal step "
                                             "count at n_vertices=1001, k_marked=2"):
            optimal_steps(1001, 2)

    def test_pi_constant_is_pi_to_its_digits(self):
        digits = reduced._PI_DIGITS
        with mpmath.workdps(digits + 20):
            assert reduced._PI == int(mpmath.floor(mpmath.pi * mpmath.mpf(10) ** digits))


class TestStepRecords:
    @pytest.mark.parametrize("engine", ["apply_step", "oracle_step"])
    def test_records_match_naive_steps_on_the_naive_class_basis(self, engine, monkeypatch):
        # N = 300 reads 109-row strips, so 0, 150 and 299 sit in all three, and a
        # grid stepped in place alternates its memory order: the reader's row
        # and transposed branches both run
        n, marked, steps = 300, (0, 150, 299), 6
        ledger = QueryLedger()
        if engine == "oracle_step":
            step = partial(oracle.oracle_step, ledger=ledger)
            walk = OracleFunction(n, frozenset(marked))
        else:
            step, walk = core.apply_step, WalkConfig(n, frozenset(marked), np.pi / 2)
        read, branches = reduced.read_strips, []

        def spied(grid, colsum, marked, transposed, strips):
            branches.append(transposed)
            return read(grid, colsum, marked, transposed, strips)

        monkeypatch.setattr(reduced, "read_strips", spied)
        comps, residual, p_marked, norm = reduced.step_records(step, walk, steps)
        assert sorted(set(branches)) == [False, True] and len(branches) == steps + 1
        if engine == "oracle_step":
            assert ledger.quantum_calls == 2 * steps
        basis = naive_class_basis(n, marked)
        sources, targets = edge_endpoint_arrays(n)
        inner = basis[:, 3] != 0
        grid = np.full((n, n), 1 / math.sqrt(n * (n - 1)), dtype=complex)
        np.fill_diagonal(grid, 0.0)
        for i in range(steps + 1):
            state = grid[sources, targets]
            expected = basis.conj().T @ state
            assert np.abs(comps[i] - expected).max() < 1e-12
            assert abs(residual[i] - np.linalg.norm(state - basis @ expected)) < 1e-12
            assert abs(p_marked[i] - np.sum(np.abs(state[inner]) ** 2)) < 1e-12
            assert abs(norm[i] - np.linalg.norm(state)) < 1e-12
            grid = naive_grid_step(grid, marked, np.pi / 2)

    def test_refuses_what_a_record_cannot_read(self):
        for walk in (WalkConfig(10, frozenset({0})), OracleFunction(10, frozenset(range(9)))):
            with pytest.raises(ValueError, match="k_marked"):
                reduced.step_records(core.apply_step, walk, 3)
        with pytest.raises(ValueError, match="steps"):
            reduced.step_records(core.apply_step, config(10, 2), -1)

    @pytest.mark.parametrize("n, marked, phase, steps", [
        (30, (0, 1, 2), np.pi / 2, 40),
        (64, (3, 17, 31, 32, 60), np.pi, 40),
        (300, (41, 187), 0.7, 12),
    ])
    def test_series_records_are_the_full_engine_records_of_the_reduced_engine(
            self, n, marked, phase, steps):
        full = reduced.step_records(core.apply_step, WalkConfig(n, frozenset(marked), phase),
                                    steps)
        series = reduced.series_records(n, len(marked), phase, steps)
        assert [(a.shape, a.dtype) for a in series] == [(a.shape, a.dtype) for a in full]
        comps, residual, p_marked, norm = series
        assert np.abs(comps - full[0]).max() < 1e-12
        assert np.abs(p_marked - full[2]).max() < 1e-12
        assert not residual.any()
        weights = (np.abs(comps) ** 2).tolist()
        assert p_marked.tolist() == [w[3] for w in weights]
        # Python's ** 0.5 of the weights summed left to right, as `walk run` prints it
        assert norm.tolist() == [(((a + b) + c) + d) ** 0.5 for a, b, c, d in weights]

    def test_series_records_refuse_what_the_reduction_refuses(self):
        with pytest.raises(ValueError, match="k_marked"):
            reduced.series_records(10, 9, np.pi / 2, 3)
        with pytest.raises(ValueError, match="steps must be an integer >= 0, got -1"):
            reduced.series_records(10, 2, np.pi / 2, -1)
        with pytest.raises(ValueError, match="phase must be finite"):
            reduced.series_records(10, 2, float("nan"), 3)

"""Measurement sampling, end-to-end runs, and coverage statistics."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from scatterwalk import core, reduced, stats
from scatterwalk.core import WalkConfig
from scatterwalk.oracle import QueryLedger
from scatterwalk.stats import (
    CoverageDistribution,
    coverage_distribution,
    expected_runs_to_cover,
    run_search,
    sample_measurement,
)

# frozen pre-build success probability at the optimal step count (N=100, K=2)
P_SUCCESS_N100_K2 = 0.980108582511343


def config(n, k, phase=np.pi / 2):
    return WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phase)


class TestSampleMeasurement:
    def test_point_mass(self):
        state = np.zeros(30, complex)
        state[core.edge_index(6, 1, 2)] = 1.0
        for seed in range(5):
            assert sample_measurement(state, seed) == (1, 2)

    def test_seed_determinism(self):
        state = core.initial_state(8)
        draws_a = [sample_measurement(state, 123) for _ in range(10)]
        draws_b = [sample_measurement(state, 123) for _ in range(10)]
        assert draws_a == draws_b

    def test_uniform_distribution_chi_squared(self):
        n, samples = 6, 30_000
        state = core.initial_state(n)
        rng = np.random.default_rng(2024)
        counts = np.zeros(core.n_edge_states(n))
        for _ in range(samples):
            m, l = sample_measurement(state, rng)
            counts[core.edge_index(n, m, l)] += 1
        result = scipy.stats.chisquare(counts)
        assert result.pvalue > 1e-4

    def test_marked_superposition_yields_only_marked_edges(self):
        cfg = config(9, 3)
        state = reduced.embed(np.array([0, 0, 0, 1.0]), cfg)
        rng = np.random.default_rng(8)
        seen = set()
        for _ in range(600):
            edge = sample_measurement(state, rng)
            assert set(edge) <= cfg.marked_set
            seen.add(edge)
        assert seen == {(a, b) for a in range(3) for b in range(3) if a != b}

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="norm"):
            sample_measurement(np.ones(30, complex), seed=0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            sample_measurement(np.ones(31, complex) / np.sqrt(31), seed=0)


class TestRunSearch:
    def test_step_and_call_accounting(self):
        outcome = run_search(config(100, 2), seed=0)
        assert outcome.steps_used == 55
        assert outcome.oracle_calls == 110

    def test_ledger_accumulates_across_runs(self):
        ledger = QueryLedger()
        run_search(config(30, 3), seed=1, ledger=ledger)
        run_search(config(30, 3), seed=2, ledger=ledger)
        n_opt = reduced.optimal_steps(30, 3)
        assert ledger.quantum_calls == 4 * n_opt

    def test_success_flag_matches_measured_edge(self):
        cfg = config(30, 3)
        for seed in range(12):
            outcome = run_search(cfg, seed=seed)
            assert outcome.success == (set(outcome.edge) <= cfg.marked_set)

    def test_success_rate_matches_reduced_model(self):
        # binomial check against the frozen exact probability
        cfg = config(100, 2)
        trials = 250
        rng = np.random.default_rng(31)
        hits = sum(run_search(cfg, seed=rng).success for _ in range(trials))
        sigma = np.sqrt(P_SUCCESS_N100_K2 * (1 - P_SUCCESS_N100_K2) / trials)
        assert abs(hits / trials - P_SUCCESS_N100_K2) < 3 * sigma + 1e-9

    def test_measures_the_packed_canonical_state(self, monkeypatch):
        # the module attribute is what gets called, with the packed state
        seen = []
        sample = stats.sample_measurement

        def capture(state, seed=None):
            seen.append(state)
            return sample(state, seed)

        monkeypatch.setattr(stats, "sample_measurement", capture)
        cfg = config(12, 3)
        run_search(cfg, seed=0)
        (state,) = seen
        assert state.shape == (132,)
        expected = core.evolve(core.initial_state(12), cfg, reduced.optimal_steps(12, 3))
        assert np.abs(state - expected).max() < 1e-13

    def test_requires_half_pi_phase(self):
        with pytest.raises(ValueError, match="pi/2"):
            run_search(config(20, 2, phase=np.pi), seed=0)

    def test_requires_reducible_k(self):
        with pytest.raises(ValueError):
            run_search(config(10, 9), seed=0)


class TestCoverageExact:
    @pytest.mark.parametrize(
        "k, runs, j, expected",
        [
            (3, 2, 3, Fraction(2, 3)),
            (3, 3, 3, Fraction(8, 9)),
            (4, 2, 4, Fraction(1, 6)),
            (4, 2, 3, Fraction(2, 3)),
            (4, 3, 4, Fraction(19, 36)),
            (4, 3, 3, Fraction(4, 9)),
        ],
    )
    def test_reference_probabilities(self, k, runs, j, expected):
        dist = coverage_distribution(k, runs)
        assert dist.probability(j) == expected

    @pytest.mark.parametrize("k, runs", [(2, 1), (3, 4), (4, 5), (5, 3)])
    def test_distribution_sums_to_one_with_valid_support(self, k, runs):
        dist = coverage_distribution(k, runs)
        assert sum(dist.probabilities.values()) == Fraction(1)
        assert all(2 <= j <= min(k, 2 * runs) for j in dist.probabilities)

    def test_single_edge_found_in_one_run(self):
        dist = coverage_distribution(2, 1)
        assert dist.probabilities == {2: Fraction(1)}

    def test_enumeration_bound_enforced(self):
        with pytest.raises(ValueError, match="enumeration"):
            coverage_distribution(5, 9)
        with pytest.raises(ValueError, match="enumeration"):
            coverage_distribution(3, 2, max_outcomes=5)  # 3^2 outcomes > 5
        assert coverage_distribution(3, 2, max_outcomes=9).probability(3) == Fraction(2, 3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            coverage_distribution(1, 2)
        with pytest.raises(ValueError):
            coverage_distribution(3, 0)
        with pytest.raises(ValueError):
            coverage_distribution(3, 2, mode="bogus")


class TestCoverageMonteCarlo:
    def test_converges_to_idealized_at_large_n(self):
        exact = coverage_distribution(3, 2)
        mc = coverage_distribution(
            3, 2, "mc", n_vertices=2000, trials=40_000, seed=7
        )
        assert mc.mode == "simulated"
        for j, p in exact.probabilities.items():
            assert abs(mc.probability(j) - float(p)) < 0.015
        n_opt = reduced.optimal_steps(2000, 3)
        assert mc.oracle_calls == 40_000 * 2 * 2 * n_opt
        op = reduced.reduced_operator(2000, 3, np.pi / 2)
        final = reduced.evolve_reduced(reduced.reduced_initial_state(2000, 3), op, n_opt)
        assert abs(mc.success_rate - abs(final[3]) ** 2) < 0.01

    def test_full_engine_agrees_with_reduced_sampler(self):
        kwargs = dict(n_vertices=12, trials=200, seed=3)
        via_runs = coverage_distribution(3, 2, "mc", engine="full", **kwargs)
        via_law = coverage_distribution(3, 2, "mc", engine="reduced", trials=50_000,
                                        n_vertices=12, seed=4)
        for j in set(via_runs.probabilities) | set(via_law.probabilities):
            assert abs(via_runs.probability(j) - via_law.probability(j)) < 0.15

    def test_requires_graph_size(self):
        with pytest.raises(ValueError, match="n_vertices"):
            coverage_distribution(3, 2, "mc")


class TestExpectedRuns:
    def test_reference_values(self):
        assert expected_runs_to_cover(2) == Fraction(1)
        assert expected_runs_to_cover(3) == Fraction(5, 2)
        assert expected_runs_to_cover(4) == Fraction(19, 5)

    def test_triangle_consistency_with_enumeration(self):
        # after the first run two vertices are known; each later run closes
        # the triangle with probability 2/3, so P(T = r) = (2/3)(1/3)^(r-2)
        cover_by = {r: coverage_distribution(3, r).probability(3) for r in range(1, 9)}
        for r in range(2, 9):
            f_r = cover_by[r] - cover_by[r - 1]
            assert f_r == Fraction(2, 3) * Fraction(1, 3) ** (r - 2)
        # truncated mean plus the exact geometric tail reproduces the chain
        partial = sum(r * (cover_by[r] - cover_by[r - 1]) for r in range(2, 9))
        t = Fraction(1, 3)
        m = 9
        tail_weight = Fraction(2, 3) * t ** (m - 2) / (1 - t)      # P(T >= 9)
        tail_mean_excess = t / (1 - t)                             # E[T - 9 | T >= 9]
        total = partial + tail_weight * (m + tail_mean_excess)
        assert total == expected_runs_to_cover(3) == Fraction(5, 2)

    def test_k4_consistency_with_enumeration(self):
        # independent route: enumerate six runs exactly, then append the
        # remaining expectations e_3 = 2 and e_2 = 14/5 obtained from the
        # one-step law by hand (from 3 seen: finish w.p. 1/2; from 2 seen:
        # stay w.p. 1/6, move to 3 w.p. 2/3, finish w.p. 1/6)
        e3 = Fraction(2)
        e2 = Fraction(14, 5)
        cover_by = {r: coverage_distribution(4, r).probability(4) for r in range(1, 7)}
        cover_by[0] = Fraction(0)
        partial = sum(r * (cover_by[r] - cover_by[r - 1]) for r in range(1, 7))
        after_six = coverage_distribution(4, 6)
        total = (
            partial
            + after_six.probability(2) * (6 + e2)
            + after_six.probability(3) * (6 + e3)
        )
        assert total == expected_runs_to_cover(4) == Fraction(19, 5)

    def test_rejects_degenerate_k(self):
        with pytest.raises(ValueError):
            expected_runs_to_cover(1)


class TestCoverageDistributionType:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            CoverageDistribution(runs=1, probabilities={2: 0.5}, mode="simulated")

    def test_probability_accessor_defaults_to_zero(self):
        dist = coverage_distribution(3, 2)
        assert dist.probability(7) == Fraction(0)

"""Measurement sampling, end-to-end runs, and coverage statistics."""

import math
import re
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.stats

from scatterwalk import core, coverage, oracle, reduced, stats
from scatterwalk.core import WalkConfig
from scatterwalk.oracle import OracleFunction, QueryLedger
from scatterwalk.stats import (
    CoverageDistribution,
    coverage_distribution,
    expected_runs_to_cover,
    run_search,
    sample_measurement,
)

from helpers import (
    coverage_by_enumeration,
    coverage_by_replay,
    edge_index,
    naive_class_basis,
    packed_of,
    simulated_coverage_law,
)

# frozen pre-build success probability at the optimal step count (N=100, K=2)
P_SUCCESS_N100_K2 = 0.980108582511343


def config(n, k, phase=np.pi / 2):
    return WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phase)


def search_oracle(n, k):
    return OracleFunction(n_vertices=n, marked_set=frozenset(range(k)))


def coverage_by_run_search(n, k, runs, trials, seed):
    """(probabilities, success rate, oracle calls) from `trials` x `runs`
    calls of the public run_search on one generator, one search per draw."""
    cfg = search_oracle(n, k)
    rng = np.random.default_rng(seed)
    ledger = QueryLedger()
    counts, successes = {}, 0
    for _ in range(trials):
        seen = set()
        for _ in range(runs):
            outcome = run_search(cfg, seed=rng, ledger=ledger)
            if outcome.success:
                seen.update(outcome.edge)
                successes += 1
        counts[len(seen)] = counts.get(len(seen), 0) + 1
    probabilities = {j: c / trials for j, c in sorted(counts.items())}
    return probabilities, successes / (trials * runs), ledger.quantum_calls


class TestSampleMeasurement:
    def test_point_mass(self):
        state = np.zeros(30, complex)
        state[edge_index(6, 1, 2)] = 1.0
        for seed in range(5):
            assert sample_measurement(state, seed) == (1, 2)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_every_edge_is_decoded_from_its_packed_index(self, n):
        for m in range(n):
            for l in range(n):
                if m != l:
                    state = np.zeros(n * (n - 1), complex)
                    state[edge_index(n, m, l)] = 1.0
                    edge = sample_measurement(state, 0)
                    assert edge == (m, l) and all(type(v) is int for v in edge)

    def test_seed_determinism(self):
        state = packed_of(core.initial_grid(8))
        draws_a = [sample_measurement(state, 123) for _ in range(10)]
        draws_b = [sample_measurement(state, 123) for _ in range(10)]
        assert draws_a == draws_b

    def test_uniform_distribution_chi_squared(self):
        n, samples = 6, 30_000
        state = packed_of(core.initial_grid(n))
        rng = np.random.default_rng(2024)
        counts = np.zeros(n * (n - 1))
        for _ in range(samples):
            m, l = sample_measurement(state, rng)
            counts[edge_index(n, m, l)] += 1
        result = scipy.stats.chisquare(counts)
        assert result.pvalue > 1e-4

    def test_marked_superposition_yields_only_marked_edges(self):
        cfg = config(9, 3)
        state = naive_class_basis(9, cfg.marked_set)[:, 3]  # w4
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

    @pytest.mark.parametrize("length", [2, 30])
    def test_a_nan_state_is_refused_by_the_norm_check(self, length):
        # a NaN norm passed `abs(total - 1) > 1e-8` and reached numpy's own refusal
        with pytest.raises(ValueError, match=r"^state norm\^2 = .*nan.* is not 1 within 1e-8$"):
            sample_measurement(np.full(length, np.nan), seed=0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length"):
            sample_measurement(np.ones(31, complex) / np.sqrt(31), seed=0)
        # only a 1-D packed vector is measured: not a scalar, the N x N grid
        # every other function takes, a 3 x 3 grid, or a column of length 4 x 3
        for state in (np.array(1.0 + 0j), core.initial_grid(6), np.ones((3, 3)) / 3,
                      np.ones((12, 1)) / np.sqrt(12)):
            with pytest.raises(ValueError, match=re.escape(f"state of shape {state.shape} "
                                                           "is not a packed vector of length")):
                sample_measurement(state, seed=0)


class TestRunSearch:
    def test_step_and_call_accounting(self):
        outcome = run_search(search_oracle(100, 2), seed=0)
        assert outcome.steps_used == 55
        assert outcome.oracle_calls == 110

    def test_ledger_accumulates_across_runs(self):
        ledger = QueryLedger()
        run_search(search_oracle(30, 3), seed=1, ledger=ledger)
        run_search(search_oracle(30, 3), seed=2, ledger=ledger)
        n_opt = reduced.optimal_steps(30, 3)
        assert ledger.quantum_calls == 4 * n_opt

    def test_success_flag_matches_measured_edge(self):
        cfg = search_oracle(30, 3)
        for seed in range(12):
            outcome = run_search(cfg, seed=seed)
            assert outcome.success == (set(outcome.edge) <= cfg.marked_set)

    def test_success_rate_matches_reduced_model(self):
        # binomial check against the frozen exact probability
        cfg = search_oracle(100, 2)
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
        run_search(search_oracle(12, 3), seed=0)
        (state,) = seen
        assert state.shape == (132,)
        expected = packed_of(core.evolve(core.initial_grid(12), cfg, reduced.optimal_steps(12, 3)))
        assert np.abs(state - expected).max() < 1e-13

    def test_narrow_numpy_graph_size_searches_as_a_python_int(self):
        # N(N-1) of an int16 N = 300 overflows int16 unless N is read as an int
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = OracleFunction(np.int16(300), {0, 1})
            assert type(cfg.n_vertices) is int
            assert np.linalg.norm(core.initial_grid(cfg.n_vertices)) == pytest.approx(1, abs=1e-12)
            assert run_search(cfg, seed=1) == run_search(search_oracle(300, 2), seed=1)

    def test_requires_reducible_k(self):
        with pytest.raises(ValueError):
            run_search(search_oracle(10, 9), seed=0)


def test_optimal_steps_is_read_once_per_search_and_per_monte_carlo(monkeypatch):
    calls = []
    optimal_steps = reduced.optimal_steps

    def counted(*args):
        calls.append(args)
        return optimal_steps(*args)

    monkeypatch.setattr(reduced, "optimal_steps", counted)
    for engine in ("reduced", "full"):
        coverage_distribution(3, 2, "mc", n_vertices=12, trials=5, seed=0, engine=engine)
        assert calls == [(12, 3)], engine
        calls.clear()
    run_search(search_oracle(12, 3), seed=0)
    assert calls == [(12, 3)]


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

    @pytest.mark.parametrize(
        "k, runs",
        [(k, runs) for k in range(2, 9) for runs in range(1, 14)
         if comb(k, 2) ** runs <= 2_000_000],  # the old enumeration's bound
    )
    def test_chain_equals_enumeration(self, k, runs):
        dist = coverage_distribution(k, runs)
        expected = coverage_by_enumeration(k, runs)
        assert dist.probabilities == expected
        assert list(dist.probabilities) == list(expected)

    def test_work_bound_enforced(self, monkeypatch):
        # (5, 9) has 10^9 outcomes, past the old enumeration; the chain is
        # cheap, and its work, steps^2 x counts x bits of C(k,2), is 9*9*5*4
        monkeypatch.setattr(coverage, "MAX_CHAIN_WORK", 1620)
        assert coverage_distribution(5, 9).probabilities == coverage_by_enumeration(5, 9)
        monkeypatch.setattr(coverage, "MAX_CHAIN_WORK", 1619)
        with pytest.raises(ValueError, match="work bound"):
            coverage_distribution(5, 9)
        monkeypatch.undo()
        for k, runs in ((2, 10**12), (3, 10**9)):
            with pytest.raises(ValueError, match=f"runs={runs} at k={k} exceeds .* work bound"):
                coverage_distribution(k, runs)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            coverage_distribution(1, 2)
        with pytest.raises(ValueError):
            coverage_distribution(3, 0)
        with pytest.raises(ValueError):
            coverage_distribution(3, 2, mode="bogus")

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_an_unknown_engine_is_refused_in_either_mode(self, mode):
        with pytest.raises(ValueError, match="^engine must be 'reduced' or 'full', got 'bogus'$"):
            coverage_distribution(3, 2, mode, n_vertices=12, trials=5, engine="bogus")


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

    @pytest.mark.parametrize("engine, trials", [("reduced", 200_000), ("full", 20_000)])
    @pytest.mark.parametrize("n, k, runs", [(12, 3, 2), (5, 2, 3), (30, 6, 8)])
    def test_every_count_is_within_four_standard_errors_of_the_exact_law(
        self, engine, trials, n, k, runs
    ):
        # where runs fail often (p about 0.51 at N = 5), against the mixture of
        # ideal laws over the number of successful runs
        law, p = simulated_coverage_law(n, k, runs)
        assert abs(math.fsum(law.values()) - 1.0) < 1e-12
        dist = coverage_distribution(k, runs, "mc", n_vertices=n, trials=trials, seed=11,
                                     engine=engine)
        assert set(dist.probabilities) <= set(law)
        for j, expected in law.items():
            error = math.sqrt(expected * (1 - expected) / trials)
            assert abs(dist.probability(j) - expected) <= 4 * error, j
        assert abs(dist.success_rate - p) <= 4 * math.sqrt(p * (1 - p) / (trials * runs))

    @pytest.mark.parametrize(
        "n, k, runs, trials, seed",
        [(100, 3, 5000, 1, 1),  # one long trial
         (50, 2, 3, 2000, 2),   # K = 2, one marked pair
         (30, 28, 4, 500, 3),   # K = N - 2
         (5, 2, 1, 3000, 4),    # p_success about 0.51: many trials find nothing
         (700, 300, 2, 40, 5)],  # C(K,2) = 44,850 pairs
    )
    def test_reduced_engine_equals_a_replay_of_its_stream(self, n, k, runs, trials, seed):
        op = reduced.reduced_operator(n, k, np.pi / 2)
        n_opt = reduced.optimal_steps(n, k)
        p_success = float(np.abs(reduced.evolve_reduced(
            reduced.reduced_initial_state(n, k), op, n_opt)[3]) ** 2)
        dist = coverage_distribution(k, runs, "mc", n_vertices=n, trials=trials, seed=seed,
                                     engine="reduced")
        probabilities, success_rate = coverage_by_replay(k, runs, trials, seed, p_success)
        assert dist.probabilities == probabilities
        assert dist.success_rate == success_rate
        if n == 5:
            assert probabilities[0] > 0.4  # about half the trials find nothing

    @pytest.mark.parametrize(
        "n, k, runs, trials, seed",
        [(12, 2, 1, 150, 0), (30, 3, 3, 60, 1), (64, 5, 1, 40, 2), (300, 5, 2, 10, 3),
         (20, 3, 1, 1, 4),  # one measurement and an empty batch
         (12, 3, 2000, 1, 6)],  # one long trial
    )
    def test_full_engine_equals_a_run_search_per_draw(self, n, k, runs, trials, seed):
        dist = coverage_distribution(k, runs, "mc", n_vertices=n, trials=trials, seed=seed,
                                     engine="full")
        probabilities, success_rate, oracle_calls = coverage_by_run_search(
            n, k, runs, trials, seed
        )
        assert dist.probabilities == probabilities
        assert dist.success_rate == success_rate
        assert dist.oracle_calls == oracle_calls == trials * runs * 2 * reduced.optimal_steps(n, k)

    def test_full_engine_evolves_once_and_validates_the_state_once(self, monkeypatch):
        n, k, runs, trials = 12, 3, 2, 40
        steps, states = [], []
        step, sample = oracle.oracle_step, stats.sample_measurement

        def counted_step(*args, **kwargs):
            steps.append(None)
            return step(*args, **kwargs)

        def capture(state, seed=None):
            states.append(state)
            return sample(state, seed)

        monkeypatch.setattr(oracle, "oracle_step", counted_step)
        monkeypatch.setattr(stats, "sample_measurement", capture)
        coverage_distribution(k, runs, "mc", n_vertices=n, trials=trials, seed=5, engine="full")
        n_opt = reduced.optimal_steps(n, k)
        assert len(steps) == n_opt
        assert len(states) == 1  # the first draw; the rest are one batch of the same weights
        op = reduced.reduced_operator(n, k, np.pi / 2)
        c4 = reduced.evolve_reduced(reduced.reduced_initial_state(n, k), op, n_opt)[3]
        marked_edges = [edge_index(n, a, b) for a in range(k) for b in range(k) if a != b]
        for state in states:
            assert state.shape == (n * (n - 1),)
            assert abs(np.sum(np.abs(state[marked_edges]) ** 2) - abs(c4) ** 2) < 1e-12

    def test_requires_graph_size(self):
        with pytest.raises(ValueError, match="n_vertices"):
            coverage_distribution(3, 2, "mc")

    @pytest.mark.parametrize("n, k", [(3, 2), (3.0, 2), (64, 63), (64, 70)])
    def test_both_engines_refuse_n_and_k_with_one_message(self, n, k):
        # both engines read N and K through optimal_steps before anything else
        messages = []
        for engine in ("reduced", "full"):
            with pytest.raises(ValueError) as refused:
                coverage_distribution(k, 2, "mc", n_vertices=n, trials=5, engine=engine)
            messages.append(str(refused.value))
        with pytest.raises(ValueError) as library:
            reduced.optimal_steps(n, k)
        assert messages == [str(library.value)] * 2


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

    @pytest.mark.parametrize("k", range(3, 11))
    def test_equals_the_summed_tail_of_the_coverage_law(self, k):
        # E[T] = sum_{r>=0} P(T > r) = sum_r (1 - P_r(all K seen)); the terms
        # fall geometrically by (K-2)/K at the end, so stopping below 1e-15
        # leaves a tail of about K/2 * 1e-15
        total, runs = Fraction(0), 0
        while True:
            term = 1 - (coverage_distribution(k, runs).probability(k) if runs else 0)
            if term < 1e-15:
                break
            total += term
            runs += 1
        assert abs(float(total) - float(expected_runs_to_cover(k))) < 1e-12

    def test_work_bound_enforced(self, monkeypatch):
        # K^2 x bits of C(K,2): 4 * 4 * 3 = 48 for K = 4
        monkeypatch.setattr(coverage, "MAX_CHAIN_WORK", 48)
        assert expected_runs_to_cover(4) == Fraction(19, 5)
        monkeypatch.setattr(coverage, "MAX_CHAIN_WORK", 47)
        with pytest.raises(ValueError, match="work bound"):
            expected_runs_to_cover(4)
        monkeypatch.undo()
        with pytest.raises(ValueError, match="k=100000 exceeds .* work bound"):
            expected_runs_to_cover(100_000)

    def test_rejects_degenerate_k(self):
        with pytest.raises(ValueError):
            expected_runs_to_cover(1)


class TestCoverageDistributionType:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            CoverageDistribution(runs=1, probabilities={2: 0.5}, mode="simulated")

    def test_rejects_unnormalized_exact_law(self):
        half = Fraction(1, 2)
        CoverageDistribution(runs=2, probabilities={2: half, 3: half}, mode="idealized")
        with pytest.raises(ValueError, match="sum"):
            CoverageDistribution(
                runs=2, probabilities={2: half, 3: half + Fraction(1, 10**11)}, mode="idealized"
            )

    def test_probability_accessor_defaults_to_zero(self):
        dist = coverage_distribution(3, 2)
        assert dist.probability(7) == Fraction(0)

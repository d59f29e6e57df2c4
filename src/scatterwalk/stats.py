"""Measurement, end-to-end search runs, and multi-run discovery statistics.

A single search run evolves the uniform start state for the optimal
number of steps, measures the walker's edge, and succeeds when both
endpoints are marked.  Repeating runs discovers the marked vertices one
edge at a time; this module provides the distribution of the number of
distinct vertices found after r runs, both in the idealized model where
every run returns a uniformly random marked edge (exact, by enumeration)
and as a Monte Carlo estimate that keeps the real failure probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import isqrt

import numpy as np

from . import core, oracle, reduced
from .core import WalkConfig
from .oracle import OracleFunction, QueryLedger

__all__ = [
    "RunOutcome",
    "CoverageDistribution",
    "sample_measurement",
    "run_search",
    "coverage_distribution",
    "expected_runs_to_cover",
]

DEFAULT_MAX_ENUMERATION = 2_000_000


@dataclass(frozen=True)
class RunOutcome:
    """Result of one search run: measured edge and the cost of getting it."""

    edge: tuple[int, int]
    success: bool
    steps_used: int
    oracle_calls: int


@dataclass(frozen=True)
class CoverageDistribution:
    """Distribution of the number of distinct marked vertices after r runs.

    probabilities maps the vertex count j to its probability, exact
    fractions in the idealized model and floats from simulation.  The
    simulated model can place mass on j = 0 (every run failed); the
    idealized one is supported on 2..min(K, 2r).
    """

    runs: int
    probabilities: dict
    mode: str
    success_rate: float | None = None
    oracle_calls: int | None = None

    def __post_init__(self) -> None:
        total = sum(self.probabilities.values())
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"coverage probabilities sum to {total}, not 1")

    def probability(self, j: int):
        zero = Fraction(0) if self.mode == "idealized" else 0.0
        return self.probabilities.get(j, zero)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _infer_n_vertices(state: np.ndarray) -> int:
    length = state.shape[0]
    n = (1 + isqrt(1 + 4 * length)) // 2
    if n * (n - 1) != length:
        raise ValueError(f"state length {length} is not N(N-1) for any integer N")
    return n


def sample_measurement(state: np.ndarray, seed=None) -> tuple[int, int]:
    """Measure the walker's position: one directed edge, Born-rule weighted.

    Deterministic for a fixed seed.  States off normalization by more than
    1e-8 are rejected.
    """
    state = np.asarray(state, dtype=np.complex128)
    n = _infer_n_vertices(state)
    weights = np.abs(state) ** 2
    total = weights.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"state norm^2 = {total!r} is not 1 within 1e-8")
    index = _rng(seed).choice(len(weights), p=weights / total)
    return core.edge_endpoints(n, int(index))


def run_search(config: WalkConfig, seed=None, ledger: QueryLedger | None = None) -> RunOutcome:
    """One complete search: evolve to the optimal step count, measure once.

    Requires phase pi/2 and 2 <= K <= N-2 (the regime where the optimal
    step count is defined).  Every step costs two oracle calls.
    """
    if abs(config.phase - np.pi / 2) > 1e-12:
        raise ValueError(f"search requires phase pi/2, got {config.phase!r}")
    n, k = config.n_vertices, config.k_marked
    n_opt = reduced.optimal_steps(n, k)
    f = OracleFunction(n_vertices=n, marked_set=config.marked_set)
    ledger = QueryLedger() if ledger is None else ledger
    calls_before = ledger.quantum_calls
    grid = core.to_grid(core.initial_state(n), n)
    for _ in range(n_opt):
        grid = oracle.oracle_step(grid, f, ledger, out=grid)
    edge = sample_measurement(core.to_packed(grid), seed)
    return RunOutcome(
        edge=edge,
        success=edge[0] in config.marked_set and edge[1] in config.marked_set,
        steps_used=n_opt,
        oracle_calls=ledger.quantum_calls - calls_before,
    )


def _enumerate_coverage(k_marked: int, runs: int, max_outcomes: int) -> dict[int, Fraction]:
    """Brute-force enumeration over all per-run marked-pair outcomes.

    A run reveals an unordered marked pair, uniformly; orientation carries
    no vertex information, so enumerating the C(K,2) pairs instead of the
    K(K-1) directed edges halves the base without changing the count.
    """
    pairs = list(combinations(range(k_marked), 2))
    n_pairs = len(pairs)
    if n_pairs ** runs > max_outcomes:
        raise ValueError(
            f"enumeration size {n_pairs}^{runs} exceeds the bound {max_outcomes}"
        )
    pair_bits = [(1 << a) | (1 << b) for a, b in pairs]
    weight = Fraction(1, n_pairs ** runs)
    dist: dict[int, Fraction] = {}
    for seq in product(pair_bits, repeat=runs):
        seen = 0
        for bits in seq:
            seen |= bits
        j = seen.bit_count()
        dist[j] = dist.get(j, Fraction(0)) + weight
    return dict(sorted(dist.items()))


def _simulate_coverage_reduced(
    k_marked: int, runs: int, n_vertices: int, trials: int, rng: np.random.Generator
) -> tuple[dict[int, float], float, int]:
    """Monte Carlo coverage using the exact per-run measurement law.

    The evolved state stays inside the four-class subspace, so a run
    succeeds with probability |c4(n_opt)|^2 and, conditional on success,
    returns a uniformly random marked pair; that law is sampled directly
    instead of re-running the identical deterministic evolution per trial.
    """
    n_opt = reduced.optimal_steps(n_vertices, k_marked)
    op = reduced.reduced_operator(n_vertices, k_marked, np.pi / 2)
    final = reduced.evolve_reduced(
        reduced.reduced_initial_state(n_vertices, k_marked), op, n_opt
    )
    p_success = float(np.abs(final[3]) ** 2)
    pairs = np.array(list(combinations(range(k_marked), 2)), dtype=np.intp)
    success = rng.random((trials, runs)) < p_success
    pair_idx = rng.integers(0, len(pairs), size=(trials, runs))
    seen = np.zeros((trials, k_marked), dtype=bool)
    for r in range(runs):
        hit = success[:, r]
        chosen = pairs[pair_idx[hit, r]]
        rows = np.nonzero(hit)[0]
        seen[rows, chosen[:, 0]] = True
        seen[rows, chosen[:, 1]] = True
    counts = np.bincount(seen.sum(axis=1), minlength=k_marked + 1)
    dist = {j: counts[j] / trials for j in range(k_marked + 1) if counts[j]}
    return dist, float(success.mean()), trials * runs * 2 * n_opt


def _simulate_coverage_full(
    k_marked: int, runs: int, n_vertices: int, trials: int, rng: np.random.Generator
) -> tuple[dict[int, float], float, int]:
    """Monte Carlo coverage running every search through the oracle engine."""
    config = WalkConfig(
        n_vertices=n_vertices, marked_set=frozenset(range(k_marked)), phase=np.pi / 2
    )
    ledger = QueryLedger()
    counts: dict[int, int] = {}
    successes = 0
    for _ in range(trials):
        seen: set[int] = set()
        for _ in range(runs):
            outcome = run_search(config, seed=rng, ledger=ledger)
            if outcome.success:
                seen.update(outcome.edge)
                successes += 1
        counts[len(seen)] = counts.get(len(seen), 0) + 1
    dist = {j: c / trials for j, c in sorted(counts.items())}
    return dist, successes / (trials * runs), ledger.quantum_calls


def coverage_distribution(
    k_marked: int,
    runs: int,
    mode: str = "exact",
    *,
    n_vertices: int | None = None,
    trials: int = 100_000,
    seed=None,
    engine: str = "reduced",
    max_outcomes: int = DEFAULT_MAX_ENUMERATION,
) -> CoverageDistribution:
    """Distribution of distinct marked vertices discovered after `runs` runs.

    mode="exact" computes exact rational probabilities in the idealized
    model (every run yields a uniformly random marked edge); mode="mc"
    simulates searches on a size-N graph, keeping real failures, with
    engine="reduced" sampling the exact measurement law and engine="full"
    running every search through the oracle-driven evolution.
    """
    if k_marked < 2:
        raise ValueError(f"coverage needs k_marked >= 2, got {k_marked}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if mode == "exact":
        dist = _enumerate_coverage(k_marked, runs, max_outcomes)
        return CoverageDistribution(runs=runs, probabilities=dist, mode="idealized")
    if mode != "mc":
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if n_vertices is None:
        raise ValueError("mc mode requires n_vertices")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = _rng(seed)
    if engine == "reduced":
        dist, rate, calls = _simulate_coverage_reduced(k_marked, runs, n_vertices, trials, rng)
    elif engine == "full":
        dist, rate, calls = _simulate_coverage_full(k_marked, runs, n_vertices, trials, rng)
    else:
        raise ValueError(f"engine must be 'reduced' or 'full', got {engine!r}")
    return CoverageDistribution(
        runs=runs, probabilities=dist, mode="simulated", success_rate=rate, oracle_calls=calls
    )


def _count_step_probs(k_marked: int, j: int) -> dict[int, Fraction]:
    """Transition law of the discovered-vertex count after one ideal run."""
    denom = Fraction(k_marked * (k_marked - 1))
    new = k_marked - j
    return {
        j: Fraction(j * (j - 1)) / denom,
        j + 1: Fraction(2 * j * new) / denom,
        j + 2: Fraction(new * (new - 1)) / denom,
    }


def expected_runs_to_cover(k_marked: int) -> Fraction:
    """Expected ideal runs until every marked vertex has been seen.

    Absorbing-chain analysis on the discovered-vertex count: the count
    never decreases, so the expectations solve by back-substitution from
    the absorbing state.  Exact rational result.
    """
    if k_marked < 2:
        raise ValueError(f"coverage needs k_marked >= 2, got {k_marked}")
    if k_marked == 2:
        return Fraction(1)
    expect = {k_marked: Fraction(0)}
    for j in range(k_marked - 1, 1, -1):
        probs = _count_step_probs(k_marked, j)
        stay = probs.pop(j)
        forward = sum(p * expect[j2] for j2, p in probs.items() if p)
        expect[j] = (1 + forward) / (1 - stay)
    return 1 + expect[2]

"""Measurement, end-to-end search runs, and multi-run discovery statistics.

A single search run evolves the uniform start state for the optimal
number of steps, measures the walker's edge, and succeeds when both
endpoints are marked.  Repeating runs discovers the marked vertices one
edge at a time; this module provides the distribution of the number of
distinct vertices found after r runs, both in the idealized model where
every run returns a uniformly random marked edge (exact, from a Markov
chain on the discovered-vertex count) and as a Monte Carlo estimate that
keeps the real failure probability.  One transition law of that count
serves the exact distribution and the expected runs to see every vertex.
Only the measurement is random, so the full-engine Monte Carlo evolves
the state once per configuration and draws every measurement of it in
one batch.  Both Monte Carlo engines hand their draws, as the runs that
found a marked edge and both endpoints of each, to one count with no loop
over runs, and the success rate is taken from those draws in one place.
The walk steps an N x N grid; only the measured state is packed, as a
measurement draws a canonical edge index (`sample_measurement`), and every
drawn index, one or a batch, is decoded by `core.edge_endpoints`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, fsum, isqrt

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

# Bound on an exact chain's work, steps^2 x counts x bits of C(K,2): the
# integer numerators gain up to that many bits per step.  A chain at the
# bound takes 2-3.5 s of CPU on a 2-vCPU Xeon (Python 3.11).
MAX_CHAIN_WORK = 10**10


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
    fractions from the count chain in the idealized model and floats from
    simulation.  The simulated model can place mass on j = 0 (every run
    failed); the idealized one is supported on 2..min(K, 2r).
    """

    runs: int
    probabilities: dict
    mode: str
    success_rate: float | None = None
    oracle_calls: int | None = None

    def __post_init__(self) -> None:
        # a float sum, not an exact one: exact laws have denominators of up to
        # about 100,000 bits, and fsum's error is at most one rounding
        total = fsum(float(p) for p in self.probabilities.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"coverage probabilities sum to {total}, not 1")

    def probability(self, j: int):
        zero = Fraction(0) if self.mode == "idealized" else 0.0
        return self.probabilities.get(j, zero)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _born_probabilities(state: np.ndarray) -> tuple[np.ndarray, int]:
    """(normalised |psi|^2, N) of a packed state of length N(N-1); states off
    normalization by more than 1e-8 are rejected."""
    state = np.asarray(state, dtype=np.complex128)
    n = (1 + isqrt(1 + 4 * state.size)) // 2
    if state.ndim != 1 or n * (n - 1) != state.size:
        raise ValueError(f"state of shape {state.shape} is not a packed vector of length N(N-1)")
    weights = np.abs(state) ** 2
    total = weights.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"state norm^2 = {total!r} is not 1 within 1e-8")
    return weights / total, n


def sample_measurement(state: np.ndarray, seed=None) -> tuple[int, int]:
    """Measure the walker's position: one directed edge, Born-rule weighted.

    Deterministic for a fixed seed.  States off normalization by more than
    1e-8 are rejected.
    """
    weights, n = _born_probabilities(state)
    index = _rng(seed).choice(len(weights), p=weights)
    return core.edge_endpoints(n, int(index))


def _search_state(config: WalkConfig, ledger: QueryLedger) -> tuple[np.ndarray, int]:
    """Uniform state after the optimal number of oracle-driven steps.

    Returns (packed state, n_opt); each step charges two oracle calls.
    """
    if abs(config.phase - np.pi / 2) > 1e-12:
        raise ValueError(f"search requires phase pi/2, got {config.phase!r}")
    n, k = config.n_vertices, config.k_marked
    n_opt = reduced.optimal_steps(n, k)
    f = OracleFunction(n_vertices=n, marked_set=config.marked_set)
    grid = core.initial_grid(n)
    for _ in range(n_opt):
        grid = oracle.oracle_step(grid, f, ledger, out=grid)
    return core.to_packed(grid), n_opt


def run_search(config: WalkConfig, seed=None, ledger: QueryLedger | None = None) -> RunOutcome:
    """One complete search: evolve to the optimal step count, measure once.

    Requires phase pi/2 and 2 <= K <= N-2 (the regime where the optimal
    step count is defined).  Every step costs two oracle calls.
    """
    ledger = QueryLedger() if ledger is None else ledger
    calls_before = ledger.quantum_calls
    state, n_opt = _search_state(config, ledger)
    edge = sample_measurement(state, seed)
    return RunOutcome(
        edge=edge,
        success=edge[0] in config.marked_set and edge[1] in config.marked_set,
        steps_used=n_opt,
        oracle_calls=ledger.quantum_calls - calls_before,
    )


def _discovered_law(k_marked: int, found: np.ndarray, first: np.ndarray,
                    second: np.ndarray) -> dict[int, float]:
    """Simulated law of the discovered-vertex count over trials.

    `found` is the (trials, runs) mask of runs that measured a marked edge,
    and `first` and `second` hold that edge's two endpoints for each of
    them, in the row-major order of `found`.  Each endpoint array is marked
    seen in one fancy assignment, so the cost does not depend on how the
    draws are split into trials and runs.
    """
    trials, runs = found.shape
    seen = np.zeros((trials, k_marked), dtype=bool)
    rows = np.flatnonzero(found)
    rows //= runs  # the trial of each found run
    seen[rows, first] = True
    seen[rows, second] = True
    counts = np.bincount(seen.sum(axis=1), minlength=k_marked + 1).tolist()
    return {j: c / trials for j, c in enumerate(counts) if c}


def _simulate_coverage_reduced(
    k_marked: int, runs: int, n_vertices: int, n_opt: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Monte Carlo draws from the exact per-run measurement law.

    The evolved state stays inside the four-class subspace, so a run
    succeeds with probability |c4(n_opt)|^2 and, conditional on success,
    returns a uniformly random marked pair; that law is sampled directly
    instead of re-running the identical deterministic evolution per trial.
    A drawn pair index is decoded from the K-1 row starts, `starts[a]` the index of (a, a+1).
    Returns (found, first, second, oracle calls) as `_discovered_law` reads them.
    """
    op = reduced.reduced_operator(n_vertices, k_marked, np.pi / 2)
    final = reduced.evolve_reduced(
        reduced.reduced_initial_state(n_vertices, k_marked), op, n_opt
    )
    p_success = float(np.abs(final[3]) ** 2)
    starts = np.cumsum(np.arange(k_marked - 1, 0, -1)) - np.arange(k_marked - 1, 0, -1)
    success = rng.random((trials, runs)) < p_success
    pair = rng.integers(0, comb(k_marked, 2), size=(trials, runs))[success]
    first = np.searchsorted(starts, pair, side="right") - 1
    pair -= starts[first] - first - 1  # each pair index becomes its second endpoint
    return success, first, pair, trials * runs * 2 * n_opt


def _simulate_coverage_full(
    k_marked: int, runs: int, n_vertices: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Monte Carlo draws measuring the oracle engine's evolved state.

    The state is evolved once.  Its first draw is one `sample_measurement`,
    which validates it; the other trials * runs - 1 are one batch from the
    same Born weights and generator, so every edge is the one a `run_search`
    per draw would measure.  Oracle calls are counted per search.  Returns
    (found, first, second, oracle calls) as `_discovered_law` reads them.
    """
    config = WalkConfig(
        n_vertices=n_vertices, marked_set=frozenset(range(k_marked)), phase=np.pi / 2
    )
    ledger = QueryLedger()
    state, _ = _search_state(config, ledger)
    edge = sample_measurement(state, rng)
    weights, n = _born_probabilities(state)
    index = np.empty(trials * runs, dtype=np.intp)
    index[0] = core.edge_index(n, *edge)
    index[1:] = rng.choice(len(weights), size=len(index) - 1, p=weights)
    source, target = core.edge_endpoints(n, index)
    del index
    found = (source < k_marked) & (target < k_marked)
    source = source[found]  # each decode is freed as its found part is taken
    target = target[found]
    return found.reshape(trials, runs), source, target, trials * runs * ledger.quantum_calls


def coverage_distribution(
    k_marked: int,
    runs: int,
    mode: str = "exact",
    *,
    n_vertices: int | None = None,
    trials: int = 100_000,
    seed=None,
    engine: str = "reduced",
) -> CoverageDistribution:
    """Distribution of distinct marked vertices discovered after `runs` runs.

    mode="exact" computes exact rational probabilities in the idealized
    model (every run yields a uniformly random marked edge) from the chain
    on the discovered-vertex count, refusing one whose work exceeds
    MAX_CHAIN_WORK before any arithmetic; mode="mc"
    simulates searches on a size-N graph, keeping real failures, with
    engine="reduced" sampling the exact measurement law and engine="full"
    evolving the state once through the oracle-driven walk and drawing all
    trials * runs measurements of it in one batch, edge for edge those of
    one `run_search` per draw.  Both engines read N and K by one
    `reduced.optimal_steps`, refusing N < 4 and K outside 2..N-2 alike.
    """
    k_marked, runs = core.check_int("k_marked", k_marked, 2), core.check_int("runs", runs, 1)
    if mode == "exact":
        dist = _coverage_chain(k_marked, runs)
        return CoverageDistribution(runs=runs, probabilities=dist, mode="idealized")
    if mode != "mc":
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    n_opt = reduced.optimal_steps(n_vertices, k_marked)  # reads N and K for both engines
    trials = core.check_int("trials", trials, 1)
    if engine == "reduced":
        draws = _simulate_coverage_reduced(k_marked, runs, n_vertices, n_opt, trials, _rng(seed))
    elif engine == "full":
        draws = _simulate_coverage_full(k_marked, runs, n_vertices, trials, _rng(seed))
    else:
        raise ValueError(f"engine must be 'reduced' or 'full', got {engine!r}")
    found, first, second, calls = draws
    return CoverageDistribution(
        runs=runs, probabilities=_discovered_law(k_marked, found, first, second),
        mode="simulated",
        success_rate=int(np.count_nonzero(found)) / found.size, oracle_calls=calls,
    )


def _count_step_weights(k_marked: int, j: int) -> dict[int, int]:
    """One ideal run's law of the discovered-vertex count, as weights over
    the C(K,2) marked pairs: two seen vertices, one new, or two new."""
    new = k_marked - j
    return {j: comb(j, 2), j + 1: j * new, j + 2: comb(new, 2)}


def _check_chain_work(k_marked: int, steps: int, counts: int, what: str) -> None:
    """Refuse, before any arithmetic, a chain whose work exceeds MAX_CHAIN_WORK."""
    if steps * counts * steps * comb(k_marked, 2).bit_length() > MAX_CHAIN_WORK:
        raise ValueError(f"{what} exceeds the exact chain's work bound "
                         f"(steps^2 x counts x bits of C(k,2) <= {MAX_CHAIN_WORK:.0e})")


def _coverage_chain(k_marked: int, runs: int) -> dict[int, Fraction]:
    """Exact law of the discovered-vertex count after `runs` ideal runs.

    The first run reveals two vertices, each later one steps the count by
    `_count_step_weights`; numerators are integers over C(K,2)^(runs-1),
    and counts of probability zero are left out.
    """
    _check_chain_work(k_marked, runs, min(k_marked, 2 * runs), f"runs={runs} at k={k_marked}")
    weights = {2: 1}
    for _ in range(runs - 1):
        stepped: dict[int, int] = {}
        for j, w in weights.items():
            for j2, p in _count_step_weights(k_marked, j).items():
                if p:
                    stepped[j2] = stepped.get(j2, 0) + w * p
        weights = stepped
    denom = comb(k_marked, 2) ** (runs - 1)
    return {j: Fraction(w, denom) for j, w in sorted(weights.items())}


def expected_runs_to_cover(k_marked: int) -> Fraction:
    """Expected ideal runs until every marked vertex has been seen.

    Absorbing-chain analysis on the discovered-vertex count, which never
    decreases: with C = C(K,2) and the weights w of `_count_step_weights`,
    the expected further runs solve by back-substitution from e_K = 0,
    e_j = (C + w_{j+1} e_{j+1} + w_{j+2} e_{j+2}) / (C - w_j), each kept as
    an integer over the product of the (C - w_i), i = j..K-1, and reduced
    once.  Exact result; a K whose work exceeds MAX_CHAIN_WORK is refused
    before any arithmetic.
    """
    k_marked = core.check_int("k_marked", k_marked, 2)
    _check_chain_work(k_marked, k_marked, 1, f"k={k_marked}")
    pairs = comb(k_marked, 2)
    # e_{j+1} = num / den and e_{j+2} = num_next / (den / leave)
    num, den, leave, num_next = 0, 1, 1, 0
    for j in range(k_marked - 1, 1, -1):
        w = _count_step_weights(k_marked, j)
        step = pairs * den + w[j + 1] * num + w[j + 2] * num_next * leave
        leave = pairs - w[j]
        num_next, num, den = num, step, leave * den
    return 1 + Fraction(num, den)

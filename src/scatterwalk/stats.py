"""Measurement, end-to-end search runs, and simulated discovery statistics.

A single search run takes the `OracleFunction` it queries, whose kickback
is the phase pi/2, reads N, K and the optimal step count by one
`reduced.optimal_steps`, evolves the uniform start that many steps (two
oracle calls each), measures the walker's edge, and succeeds when both
endpoints are marked.  Repeating runs discovers the marked vertices one
edge at a time; `coverage_distribution` gives the distribution of the
number of distinct vertices found after r runs, both in the idealized
model where every run returns a uniformly random marked edge (exact, from
the Markov chain on the discovered-vertex count in `coverage`, which needs
no numpy) and as a Monte Carlo estimate that keeps the real failure
probability.  `CoverageDistribution` and `expected_runs_to_cover` are
re-exported from `coverage`.
Only the measurement is random, so the full-engine Monte Carlo evolves
the state once per configuration and draws every measurement of it in
one batch.  Both Monte Carlo engines hand their draws, as the runs that
found a marked edge and both endpoints of each, to one count with no loop
over runs, and the success rate is taken from those draws in one place.
The walk steps an N x N grid; only the measured state is packed.  The
packed order is this module's own: a state's N(N-1) amplitudes are the
grid's off-diagonal cells in row-major order, `grid[~eye]`, so edge (m, l)
has index m*(N-1) + l - (l > m).  It is `sample_measurement`'s input, and
every drawn index, one or a batch, is decoded by `_edges`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

import numpy as np

from . import core, coverage, oracle, reduced
from .coverage import CoverageDistribution, expected_runs_to_cover
from .oracle import OracleFunction, QueryLedger

__all__ = [
    "RunOutcome",
    "CoverageDistribution",
    "sample_measurement",
    "run_search",
    "coverage_distribution",
    "expected_runs_to_cover",
]


@dataclass(frozen=True)
class RunOutcome:
    """Result of one search run: measured edge and the cost of getting it."""

    edge: tuple[int, int]
    success: bool
    steps_used: int
    oracle_calls: int


def _born_probabilities(state: np.ndarray) -> tuple[np.ndarray, int]:
    """(normalised |psi|^2, N) of a packed state of length N(N-1); states off
    normalization by more than 1e-8 are rejected."""
    state = np.asarray(state, dtype=np.complex128)
    n = (1 + isqrt(1 + 4 * state.size)) // 2
    if state.ndim != 1 or n * (n - 1) != state.size:
        raise ValueError(f"state of shape {state.shape} is not a packed vector of length N(N-1)")
    weights = np.abs(state) ** 2
    total = weights.sum()
    if not abs(total - 1.0) <= 1e-8:  # a NaN total is refused too
        raise ValueError(f"state norm^2 = {total!r} is not 1 within 1e-8")
    return weights / total, n


def _edges(n: int, index):
    """(source, target) of packed edge indices, an int or an integer array."""
    source, target = divmod(index, n - 1)
    target += target >= source  # the diagonal cell (source, source) is skipped
    return source, target


def sample_measurement(state: np.ndarray, seed=None) -> tuple[int, int]:
    """Measure the walker's position: one directed edge, Born-rule weighted.

    `state` is packed: the N(N-1) off-diagonal cells of the grid in
    row-major order.  Deterministic for a fixed seed.  States off
    normalization by more than 1e-8 are rejected.
    """
    weights, n = _born_probabilities(state)
    return _edges(n, int(np.random.default_rng(seed).choice(len(weights), p=weights)))


def _search_state(f: OracleFunction, n_opt: int, ledger: QueryLedger) -> np.ndarray:
    """Packed uniform state after `n_opt` steps driven by the oracle `f`,
    each charging two oracle calls to `ledger`."""
    grid = core.initial_grid(f.n_vertices)
    for _ in range(n_opt):
        grid = oracle.oracle_step(grid, f, ledger, out=grid)
    return grid[~np.eye(f.n_vertices, dtype=bool)]


def run_search(f: OracleFunction, seed=None, ledger: QueryLedger | None = None) -> RunOutcome:
    """One complete search of the oracle `f`: evolve to the optimal step
    count, measure once.

    Requires 2 <= K <= N-2 (the regime where the optimal step count is
    defined).  Every step costs two oracle calls.
    """
    n_opt = reduced.optimal_steps(f.n_vertices, len(f.marked))
    ledger = QueryLedger() if ledger is None else ledger
    calls_before = ledger.quantum_calls
    edge = sample_measurement(_search_state(f, n_opt, ledger), seed)
    return RunOutcome(
        edge=edge,
        success=edge[0] in f.marked_set and edge[1] in f.marked_set,
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
    k_marked: int, runs: int, n_vertices: int, n_opt: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Monte Carlo draws measuring the state that `n_opt` oracle-driven steps
    evolve, for the oracle of the marked set 0..K-1.

    The state is evolved once.  Its first draw is one `sample_measurement`,
    which validates it; the other trials * runs - 1 are one batch from the
    same Born weights and generator, so every edge is the one a `run_search`
    per draw would measure.  Oracle calls are counted per search.  Returns
    (found, first, second, oracle calls) as `_discovered_law` reads them.
    """
    ledger = QueryLedger()
    state = _search_state(OracleFunction(n_vertices, range(k_marked)), n_opt, ledger)
    edge = sample_measurement(state, rng)
    weights, n = _born_probabilities(state)
    index = np.empty(trials * runs, dtype=np.intp)
    source, target = edge
    index[0] = source * (n - 1) + target - (target > source)
    index[1:] = rng.choice(len(weights), size=len(index) - 1, p=weights)
    source, target = _edges(n, index)
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
    model (every run yields a uniformly random marked edge) by
    `coverage.exact_coverage`, refusing a chain whose work exceeds
    `coverage.MAX_CHAIN_WORK` before any arithmetic; mode="mc"
    simulates searches on a size-N graph, keeping real failures, with
    engine="reduced" sampling the exact measurement law and engine="full"
    evolving the state once through the oracle-driven walk and drawing all
    trials * runs measurements of it in one batch, edge for edge those of
    one `run_search` per draw.  Both engines read N and K by one
    `reduced.optimal_steps`, refusing N < 4 and K outside 2..N-2 alike.
    An unknown mode or engine is refused in either mode, before any work.
    """
    k_marked, runs = core.check_int("k_marked", k_marked, 2), core.check_int("runs", runs, 1)
    if mode not in ("exact", "mc"):
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if engine not in ("reduced", "full"):
        raise ValueError(f"engine must be 'reduced' or 'full', got {engine!r}")
    if mode == "exact":
        return coverage.exact_coverage(k_marked, runs)
    n_opt = reduced.optimal_steps(n_vertices, k_marked)  # reads N and K for both engines
    trials, rng = core.check_int("trials", trials, 1), np.random.default_rng(seed)
    simulate = _simulate_coverage_full if engine == "full" else _simulate_coverage_reduced
    found, first, second, calls = simulate(k_marked, runs, n_vertices, n_opt, trials, rng)
    return CoverageDistribution(
        runs=runs, probabilities=_discovered_law(k_marked, found, first, second),
        mode="simulated",
        success_rate=int(np.count_nonzero(found)) / found.size, oracle_calls=calls,
    )

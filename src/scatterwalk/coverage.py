"""Exact multi-run discovery statistics in the idealized model, without numpy.

Repeating search runs discovers the marked vertices one edge at a time.
In the idealized model every run returns a uniformly random marked edge,
and the number of distinct vertices found is a Markov chain on 2..K.  One
transition law of that count (`_count_step_weights`) serves both the
exact distribution after r runs (`exact_coverage`) and the expected runs
to see every vertex (`expected_runs_to_cover`).  Both are integer and
`Fraction` arithmetic only, and refuse, before any of it, a chain whose
work exceeds `MAX_CHAIN_WORK`.  `CoverageDistribution` holds a law of the
count, exact here or simulated by `stats.coverage_distribution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, fsum

from .contract import check_int

__all__ = [
    "MAX_CHAIN_WORK",
    "CoverageDistribution",
    "exact_coverage",
    "expected_runs_to_cover",
]

# Bound on an exact chain's work, steps^2 x counts x bits of C(K,2): the
# integer numerators gain up to that many bits per step.  A chain at the
# bound takes 2-3.5 s of CPU on a 2-vCPU Xeon (Python 3.11).
MAX_CHAIN_WORK = 10**10


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


def exact_coverage(k_marked: int, runs: int) -> CoverageDistribution:
    """Exact law of the discovered-vertex count after `runs` ideal runs.

    The first run reveals two vertices, each later one steps the count by
    `_count_step_weights`; numerators are integers over C(K,2)^(runs-1),
    and counts of probability zero are left out.
    """
    k_marked, runs = check_int("k_marked", k_marked, 2), check_int("runs", runs, 1)
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
    dist = {j: Fraction(w, denom) for j, w in sorted(weights.items())}
    return CoverageDistribution(runs=runs, probabilities=dist, mode="idealized")


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
    k_marked = check_int("k_marked", k_marked, 2)
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

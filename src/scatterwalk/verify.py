"""Self-check suites for the walk engines.

Each suite exercises one structural invariant (unitarity, the fixed
point, reduction consistency, circuit equivalence, reference values) on a
fixed parameter grid.  A suite is a generator of cases, each a
(deviation, tolerance, detail) triple whose tolerance is the advertised
one and whose detail names the case's parameters; one runner, `_suite`,
tracks the worst deviation, stops at the first case over its scaled
tolerance and builds the suite's `CheckResult`.  A profile is a name in
`PROFILES`: "default" uses the advertised tolerances, "strict" tightens
every tolerance tenfold, extends the dense checks to N = 12 and doubles
the random states of the norm check.

The suites step N x N grids only: a random state is a normalised random
grid with a zero diagonal, a basis state is the unit grid of one edge, and
`core.dense_step_operator` acts on the cells of `grid.ravel()`, of which
the N(N-1) off-diagonal ones hold the edges.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import core, oracle, reduced, stats
from .core import WalkConfig
from .oracle import OracleFunction, QueryLedger

__all__ = ["CheckResult", "PROFILES", "run_checks", "CHECKS"]

_SEED = 0x5CA77E2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


#: name -> (tolerance scale, largest N of the dense checks, random states per config)
PROFILES: dict[str, tuple[float, int, int]] = {
    "default": (1.0, 10, 20),
    "strict": (0.1, 12, 40),
}

_PHASES = (0.0, np.pi / 2, np.pi)

Case = tuple[float, float, str]  # (deviation, tolerance, detail naming the case)


def _edge_cells(n: int) -> np.ndarray:
    """Mask of the cells of `grid.ravel()` that hold an edge (m, l), m != l."""
    return ~np.eye(n, dtype=bool).ravel()


def _random_grid(rng: np.random.Generator, n: int) -> np.ndarray:
    grid = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    np.fill_diagonal(grid, 0.0)
    return grid / np.linalg.norm(grid)


def _unit_grids(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(cell, unit grid) of every edge, the cell its index in `grid.ravel()`."""
    for cell in np.flatnonzero(_edge_cells(n)):
        unit = np.zeros(n * n, dtype=complex)
        unit[cell] = 1.0
        yield cell, unit.reshape(n, n)


def _configs(n_values, k_values):
    for n in n_values:
        for k in k_values:
            if k > n:
                continue
            for phi in _PHASES:
                yield WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phi)


def _where(config: WalkConfig) -> str:
    return f"N={config.n_vertices}, K={config.k_marked}, phi={config.phase:.6g}"


def check_unitarity(dense_max_n: int, random_states: int) -> Iterator[Case]:
    """Norm preservation of the matrix-free step, plus dense-operator checks.

    The dense operator is built from the (t, r) pair, so a broken
    coefficient pair shows up here even though the matrix-free kernel only
    ever touches t.  It is unitary on the edge cells: U^dag U is the
    projector onto them.
    """
    rng = np.random.default_rng(_SEED)
    for config in _configs((3, 5, 10, 30), (0, 2, 3)):
        for _ in range(random_states):
            grid = _random_grid(rng, config.n_vertices)
            err = abs(np.linalg.norm(core.apply_step(grid, config)) - 1.0)
            yield err, 1e-12, f"norm error {err:.3e} at {_where(config)}"
    for config in _configs((4, 6, dense_max_n), (0, 2, 3)):
        dense, edges = core.dense_step_operator(config), _edge_cells(config.n_vertices)
        err = np.abs(dense.conj().T @ dense - np.diag(edges)).max()
        yield err, 1e-12, f"dense U^dag U deviates by {err:.3e} at {_where(config)}"
        err = np.max([np.abs(core.apply_step(unit, config).ravel() - dense[:, cell]).max()
                      for cell, unit in _unit_grids(config.n_vertices)])  # max() could drop a NaN
        yield err, 1e-13, f"matrix-free/dense mismatch {err:.3e} at {_where(config)}"


def check_fixed_point(dense_max_n: int, random_states: int) -> Iterator[Case]:
    """The uniform state is invariant under the unmarked step, componentwise."""
    for n in (3, 5, 10, 50, 200):
        grid = core.initial_grid(n)
        err = np.abs(core.apply_step(grid, WalkConfig(n_vertices=n)) - grid).max()
        yield err, 1e-13, f"deviation {err:.3e} at N={n}, K=0"


def check_projection_consistency(dense_max_n: int, random_states: int) -> Iterator[Case]:
    """The 4x4 operator equals the class-basis projection of the dense step.

    The dense step acts on the cells of `grid.ravel()`, so one grid of
    class labels, raveled, gives the class vectors w1..w4 as the columns of
    an N^2 x 4 matrix; the diagonal cells belong to no class.
    """
    for n in range(4, dense_max_n + 1):
        for k in range(2, n - 1):
            label = np.full((n, n), 2)  # class index - 1 of every edge (m, l)
            label[:, :k] = 0  # into the marked set 0..k-1
            label[:k] = 1  # out of it
            label[:k, :k] = 3  # inside it
            np.fill_diagonal(label, -1)  # no edge (m, m)
            member = label.ravel()[:, None] == np.arange(4)
            basis = member / np.sqrt(member.sum(axis=0))
            for phi in _PHASES:
                config = WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phi)
                projected = basis.conj().T @ core.dense_step_operator(config) @ basis
                err = np.abs(projected - reduced.reduced_operator(n, k, phi)).max()
                yield err, 1e-12, f"mismatch {err:.3e} at {_where(config)}"


def check_subspace_closure(dense_max_n: int, random_states: int) -> Iterator[Case]:
    """The full engine's step records, from the uniform state, never leave the class span."""
    config = WalkConfig(n_vertices=30, marked_set=frozenset(range(3)), phase=np.pi / 2)
    _, residuals, _, _ = reduced.step_records(core.apply_step, config, 200)
    for step, residual in enumerate(residuals[1:].tolist(), 1):
        yield (residual, 1e-10,
               f"residual {residual:.3e} after {step} steps at N=30, K=3, phi=pi/2")


def check_full_reduced_equivalence(dense_max_n: int, random_states: int) -> Iterator[Case]:
    """The full engine's step records agree on p_marked with the reduced engine's."""
    for n, k in ((12, 2), (30, 3)):
        config = WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=np.pi / 2)
        _, _, full, _ = reduced.step_records(core.apply_step, config, 150)
        try:
            _, _, series, _ = reduced.series_records(n, k, np.pi / 2, 150)
        except ValueError as exc:  # a 4x4 step that is not unitary has no spectral series
            yield math.inf, 1e-10, f"{exc} at N={n}, K={k}"
            continue
        for step, err in enumerate(np.abs(full - series)[1:].tolist(), 1):
            yield err, 1e-10, f"p_marked differs by {err:.3e} at N={n}, K={k}, step={step}"


def check_circuit_isomorphism(dense_max_n: int, random_states: int) -> Iterator[Case]:
    """The oracle-driven step is the phase-pi/2 walk step, element for element.

    The gate-level circuit is run too: copy -> oracle -> uncopy on one edge
    per class must disentangle and leave the walk step's per-edge phase.
    """
    for n in (6, dense_max_n):
        f = OracleFunction(n_vertices=n, marked_set=frozenset({0, 1}))  # the walk at phase pi/2
        ledger, dim = QueryLedger(), n * (n - 1)
        err = np.max([np.abs(core.apply_step(unit, f) - oracle.oracle_step(unit, f, ledger))
                      .max() for _, unit in _unit_grids(n)])
        yield (abs(ledger.quantum_calls - 2 * dim), 0,
               f"ledger counted {ledger.quantum_calls} calls for {dim} steps at N={n}")
        yield err, 1e-13, f"operator mismatch {err:.3e} at N={n}, K=2, phi=pi/2"
        for edge in ((2, 0), (0, 2), (2, 3), (0, 1)):  # classes w1..w4
            walk_phase = cmath.exp(1j * f.phase) if set(edge) <= f.marked_set else 1.0
            try:
                phase = oracle.conjugated_oracle(edge, f)
            except AssertionError as exc:  # the gates did not disentangle
                yield math.inf, 1e-13, f"{exc} on edge {edge} at N={n}"
                continue
            err = abs(phase - walk_phase)
            yield err, 1e-13, f"circuit phase off by {err:.3e} on edge {edge} at N={n}, K=2"


def check_reference_values(dense_max_n: int, random_states: int) -> Iterator[Case]:
    """Closed-form anchor values: coefficients, step counts, coverage numbers."""
    anchors = [
        ("t(N=3)", core.coefficients(3).t, 1.0),
        ("r(N=3)", core.coefficients(3).r, 0.0),
        ("t(N=5)", core.coefficients(5).t, 0.5),
        ("t(N=7)", core.coefficients(7).t, 1.0 / 3.0),
        ("n_opt(N=50,K=2)", reduced.optimal_steps(50, 2), 27),
        ("n_opt(N=100,K=2)", reduced.optimal_steps(100, 2), 55),
        ("n_opt(N=101,K=2)", reduced.optimal_steps(101, 2), 56),
        ("n_opt(N=1000,K=2)", reduced.optimal_steps(1000, 2), 555),
        ("classical(N=10,K=2)", oracle.classical_query_baseline(10, 2), 23.0),
        ("P(3 of 3 | 2 runs)", stats.coverage_distribution(3, 2).probability(3), Fraction(2, 3)),
        ("P(3 of 3 | 3 runs)", stats.coverage_distribution(3, 3).probability(3), Fraction(8, 9)),
        ("P(4 of 4 | 2 runs)", stats.coverage_distribution(4, 2).probability(4), Fraction(1, 6)),
        ("P(3 of 4 | 2 runs)", stats.coverage_distribution(4, 2).probability(3), Fraction(2, 3)),
        ("P(4 of 4 | 3 runs)", stats.coverage_distribution(4, 3).probability(4), Fraction(19, 36)),
        ("P(3 of 4 | 3 runs)", stats.coverage_distribution(4, 3).probability(3), Fraction(4, 9)),
        ("E[runs to cover K=3]", stats.expected_runs_to_cover(3), Fraction(5, 2)),
    ]
    for label, got, want in anchors:
        yield abs(float(got) - float(want)), 1e-12, f"{label}: got {got}, want {want}"


def _suite(name: str, cases: Iterable[Case], summary: str, scale: float) -> CheckResult:
    """Fail at the first case over its tolerance times `scale`, else format
    `summary` (worst, count)."""
    worst, count = 0.0, 0
    for deviation, tolerance, detail in cases:
        if not deviation <= tolerance * scale:  # a NaN deviation fails too
            return CheckResult(name, False, detail)
        worst, count = max(worst, deviation), count + 1
    return CheckResult(name, True, summary.format(worst=worst, count=count))


# every suite takes the profile's dense_max_n and random_states, used or not
CHECKS = (
    ("unitarity", check_unitarity, "max deviation {worst:.3e}"),
    ("fixed-point", check_fixed_point, "max deviation {worst:.3e}"),
    ("projection-consistency", check_projection_consistency, "max deviation {worst:.3e}"),
    ("subspace-closure", check_subspace_closure, "max residual {worst:.3e} over 200 steps"),
    ("full-reduced-equivalence", check_full_reduced_equivalence, "max deviation {worst:.3e}"),
    ("circuit-isomorphism", check_circuit_isomorphism, "max deviation {worst:.3e}"),
    ("reference-values", check_reference_values, "{count} anchors match"),
)


def run_checks(profile: str = "default") -> list[CheckResult]:
    """Run every suite under the tolerance profile of that name."""
    try:
        scale, dense_max_n, random_states = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}") from None
    return [_suite(name, suite(dense_max_n, random_states), summary, scale)
            for name, suite, summary in CHECKS]

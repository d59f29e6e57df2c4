"""Self-check suites for the walk engines.

Each suite exercises one structural invariant (unitarity, the fixed
point, reduction consistency, circuit equivalence, reference values) on a
fixed parameter grid.  A suite is a generator of cases, each a
(deviation, tolerance, detail) triple whose detail names the case's
parameters; one runner, `_suite`, tracks the worst deviation, stops at the
first case over its tolerance and builds the suite's `CheckResult`.  Two
tolerance profiles exist: "default" uses the advertised tolerances,
"strict" tightens every tolerance tenfold and extends the dense checks to
N = 12.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from . import core, oracle, reduced, stats
from .core import WalkConfig
from .oracle import OracleFunction, QueryLedger

__all__ = ["CheckResult", "ToleranceProfile", "PROFILES", "run_checks", "CHECKS"]

_SEED = 0x5CA77E2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ToleranceProfile:
    name: str
    norm_tol: float = 1e-12
    fixed_point_tol: float = 1e-13
    dense_unitarity_tol: float = 1e-12
    dense_match_tol: float = 1e-13
    projection_tol: float = 1e-12
    closure_tol: float = 1e-10
    equivalence_tol: float = 1e-10
    circuit_tol: float = 1e-13
    reference_tol: float = 1e-12
    dense_max_n: int = 10
    random_states: int = 20


def _strict(profile: ToleranceProfile) -> ToleranceProfile:
    tighter = {f.name: getattr(profile, f.name) * 0.1 for f in fields(profile)
               if f.name.endswith("_tol")}
    return replace(profile, name="strict", dense_max_n=12, random_states=40, **tighter)


PROFILES: dict[str, ToleranceProfile] = {"default": ToleranceProfile(name="default")}
PROFILES["strict"] = _strict(PROFILES["default"])

_PHASES = (0.0, np.pi / 2, np.pi)

Case = tuple[float, float, str]  # (deviation, tolerance, detail naming the case)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def _configs(n_values, k_values):
    for n in n_values:
        for k in k_values:
            if k > n:
                continue
            for phi in _PHASES:
                yield WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phi)


def _where(config: WalkConfig) -> str:
    return f"N={config.n_vertices}, K={config.k_marked}, phi={config.phase:.6g}"


def check_unitarity(profile: ToleranceProfile) -> Iterator[Case]:
    """Norm preservation of the matrix-free step, plus dense-operator checks.

    The dense operator is assembled from the (t, r) pair entry by entry,
    so a broken coefficient pair shows up here even though the matrix-free
    kernel only ever touches t.
    """
    rng = np.random.default_rng(_SEED)
    for config in _configs((3, 5, 10, 30), (0, 2, 3)):
        dim = core.n_edge_states(config.n_vertices)
        for _ in range(profile.random_states):
            err = abs(np.linalg.norm(core.apply_step(_random_state(rng, dim), config)) - 1.0)
            yield err, profile.norm_tol, f"norm error {err:.3e} at {_where(config)}"
    for config in _configs((4, 6, profile.dense_max_n), (0, 2, 3)):
        dense = core.dense_step_operator(config)
        err = np.abs(dense.conj().T @ dense - np.eye(dense.shape[0])).max()
        yield (err, profile.dense_unitarity_tol,
               f"dense U^dag U deviates by {err:.3e} at {_where(config)}")
        applied = np.column_stack(
            [core.apply_step(col, config) for col in np.eye(dense.shape[0], dtype=complex).T]
        )
        err = np.abs(applied - dense).max()
        yield (err, profile.dense_match_tol,
               f"matrix-free/dense mismatch {err:.3e} at {_where(config)}")


def check_fixed_point(profile: ToleranceProfile) -> Iterator[Case]:
    """The uniform state is invariant under the unmarked step, componentwise."""
    for n in (3, 5, 10, 50, 200):
        state = core.initial_state(n)
        err = np.abs(core.apply_step(state, WalkConfig(n_vertices=n)) - state).max()
        yield err, profile.fixed_point_tol, f"deviation {err:.3e} at N={n}, K=0"


def check_projection_consistency(profile: ToleranceProfile) -> Iterator[Case]:
    """The 4x4 operator equals the class-basis projection of the dense step."""
    for n in range(4, profile.dense_max_n + 1):
        for k in range(2, n - 1):
            for phi in _PHASES:
                config = WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phi)
                basis = np.column_stack(
                    [reduced.embed(e, config) for e in np.eye(4, dtype=complex)])
                projected = basis.conj().T @ core.dense_step_operator(config) @ basis
                err = np.abs(projected - reduced.reduced_operator(n, k, phi).matrix).max()
                yield err, profile.projection_tol, f"mismatch {err:.3e} at {_where(config)}"


def check_subspace_closure(profile: ToleranceProfile) -> Iterator[Case]:
    """Evolution started from the uniform state never leaves the class span."""
    config = WalkConfig(n_vertices=30, marked_set=frozenset(range(3)), phase=np.pi / 2)
    state = core.initial_state(30)
    for step in range(200):
        state = core.apply_step(state, config)
        _, residual = reduced.project(state, config)
        yield (residual, profile.closure_tol,
               f"residual {residual:.3e} after {step + 1} steps at N=30, K=3, phi=pi/2")


def check_full_reduced_equivalence(profile: ToleranceProfile) -> Iterator[Case]:
    """Marked-edge probability agrees between the full and reduced engines."""
    for n, k in ((12, 2), (30, 3)):
        config = WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=np.pi / 2)
        op = reduced.reduced_operator(n, k, np.pi / 2)
        state = core.initial_state(n)
        comps = reduced.reduced_initial_state(n, k)
        for step in range(150):
            state = core.apply_step(state, config)
            comps = op.matrix @ comps
            err = abs(core.marked_probability(state, config) - abs(comps[3]) ** 2)
            yield (err, profile.equivalence_tol,
                   f"p_marked differs by {err:.3e} at N={n}, K={k}, step={step + 1}")


def check_circuit_isomorphism(profile: ToleranceProfile) -> Iterator[Case]:
    """The oracle-driven step is the phase-pi/2 walk step, element for element."""
    for n in (6, profile.dense_max_n):
        config = WalkConfig(n_vertices=n, marked_set=frozenset({0, 1}), phase=np.pi / 2)
        f = OracleFunction(n_vertices=n, marked_set=config.marked_set)
        ledger = QueryLedger()
        dim = core.n_edge_states(n)
        basis = np.eye(dim, dtype=complex)
        walk_op = np.column_stack([core.apply_step(col, config) for col in basis.T])
        circuit_op = np.column_stack([oracle.oracle_step(col, f, ledger) for col in basis.T])
        yield (abs(ledger.quantum_calls - 2 * dim), 0,
               f"ledger counted {ledger.quantum_calls} calls for {dim} steps at N={n}")
        err = np.abs(walk_op - circuit_op).max()
        yield err, profile.circuit_tol, f"operator mismatch {err:.3e} at N={n}, K=2, phi=pi/2"


def check_reference_values(profile: ToleranceProfile) -> Iterator[Case]:
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
        yield (abs(float(got) - float(want)), profile.reference_tol,
               f"{label}: got {got}, want {want}")


def _suite(name: str, cases: Iterable[Case], summary: str) -> CheckResult:
    """Fail at the first case over its tolerance, else format `summary` (worst, count)."""
    worst, count = 0.0, 0
    for deviation, tolerance, detail in cases:
        if not deviation <= tolerance:  # a NaN deviation fails too
            return CheckResult(name, False, detail)
        worst, count = max(worst, deviation), count + 1
    return CheckResult(name, True, summary.format(worst=worst, count=count))


CHECKS = (
    ("unitarity", check_unitarity, "max deviation {worst:.3e}"),
    ("fixed-point", check_fixed_point, "max deviation {worst:.3e}"),
    ("projection-consistency", check_projection_consistency, "max deviation {worst:.3e}"),
    ("subspace-closure", check_subspace_closure, "max residual {worst:.3e} over 200 steps"),
    ("full-reduced-equivalence", check_full_reduced_equivalence, "max deviation {worst:.3e}"),
    ("circuit-isomorphism", check_circuit_isomorphism, "max deviation {worst:.3e}"),
    ("reference-values", check_reference_values, "{count} anchors match"),
)


def run_checks(profile: str | ToleranceProfile = "default") -> list[CheckResult]:
    """Run every suite under the given tolerance profile."""
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
            ) from None
    return [_suite(name, suite(profile), summary) for name, suite, summary in CHECKS]

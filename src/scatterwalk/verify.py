"""Self-check suites for the walk engines.

Each suite exercises one structural invariant (unitarity, the fixed
point, reduction consistency, circuit equivalence, reference values) on a
fixed parameter grid and reports the first failing case by its
parameters.  Two tolerance profiles exist: "default" uses the advertised
tolerances, "strict" tightens every tolerance tenfold and extends the
dense checks to N = 12.
"""

from __future__ import annotations

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


def check_unitarity(profile: ToleranceProfile) -> CheckResult:
    """Norm preservation of the matrix-free step, plus dense-operator checks.

    The dense operator is assembled from the (t, r) pair entry by entry,
    so a broken coefficient pair shows up here even though the matrix-free
    kernel only ever touches t.
    """
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for config in _configs((3, 5, 10, 30), (0, 2, 3)):
        dim = core.n_edge_states(config.n_vertices)
        for _ in range(profile.random_states):
            out = core.apply_step(_random_state(rng, dim), config)
            err = abs(np.linalg.norm(out) - 1.0)
            worst = max(worst, err)
            if err > profile.norm_tol:
                return CheckResult(
                    "unitarity",
                    False,
                    f"norm error {err:.3e} at N={config.n_vertices}, "
                    f"K={config.k_marked}, phi={config.phase:.6g}",
                )
    for config in _configs((4, 6, profile.dense_max_n), (0, 2, 3)):
        dense = core.dense_step_operator(config)
        err = np.abs(dense.conj().T @ dense - np.eye(dense.shape[0])).max()
        if err > profile.dense_unitarity_tol:
            return CheckResult(
                "unitarity",
                False,
                f"dense U^dag U deviates by {err:.3e} at N={config.n_vertices}, "
                f"K={config.k_marked}, phi={config.phase:.6g}",
            )
        applied = np.column_stack(
            [core.apply_step(col, config) for col in np.eye(dense.shape[0], dtype=complex).T]
        )
        err = np.abs(applied - dense).max()
        worst = max(worst, err)
        if err > profile.dense_match_tol:
            return CheckResult(
                "unitarity",
                False,
                f"matrix-free/dense mismatch {err:.3e} at N={config.n_vertices}, "
                f"K={config.k_marked}, phi={config.phase:.6g}",
            )
    return CheckResult("unitarity", True, f"max deviation {worst:.3e}")


def check_fixed_point(profile: ToleranceProfile) -> CheckResult:
    """The uniform state is invariant under the unmarked step, componentwise."""
    worst = 0.0
    for n in (3, 5, 10, 50, 200):
        state = core.initial_state(n)
        out = core.apply_step(state, WalkConfig(n_vertices=n))
        err = np.abs(out - state).max()
        worst = max(worst, err)
        if err > profile.fixed_point_tol:
            return CheckResult("fixed-point", False, f"deviation {err:.3e} at N={n}, K=0")
    return CheckResult("fixed-point", True, f"max deviation {worst:.3e}")


def _basis_matrix(config: WalkConfig) -> np.ndarray:
    cols = [reduced.embed(e, config) for e in np.eye(4, dtype=complex)]
    return np.column_stack(cols)


def check_projection_consistency(profile: ToleranceProfile) -> CheckResult:
    """The 4x4 operator equals the class-basis projection of the dense step."""
    worst = 0.0
    for n in range(4, profile.dense_max_n + 1):
        for k in range(2, n - 1):
            for phi in _PHASES:
                config = WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phi)
                basis = _basis_matrix(config)
                projected = basis.conj().T @ core.dense_step_operator(config) @ basis
                err = np.abs(projected - reduced.reduced_operator(n, k, phi).matrix).max()
                worst = max(worst, err)
                if err > profile.projection_tol:
                    return CheckResult(
                        "projection-consistency",
                        False,
                        f"mismatch {err:.3e} at N={n}, K={k}, phi={phi:.6g}",
                    )
    return CheckResult("projection-consistency", True, f"max deviation {worst:.3e}")


def check_subspace_closure(profile: ToleranceProfile) -> CheckResult:
    """Evolution started from the uniform state never leaves the class span."""
    config = WalkConfig(n_vertices=30, marked_set=frozenset(range(3)), phase=np.pi / 2)
    state = core.initial_state(30)
    worst = 0.0
    for step in range(200):
        state = core.apply_step(state, config)
        _, residual = reduced.project(state, config)
        worst = max(worst, residual)
        if residual > profile.closure_tol:
            return CheckResult(
                "subspace-closure",
                False,
                f"residual {residual:.3e} after {step + 1} steps at N=30, K=3, phi=pi/2",
            )
    return CheckResult("subspace-closure", True, f"max residual {worst:.3e} over 200 steps")


def check_full_reduced_equivalence(profile: ToleranceProfile) -> CheckResult:
    """Marked-edge probability agrees between the full and reduced engines."""
    worst = 0.0
    for n, k in ((12, 2), (30, 3)):
        config = WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=np.pi / 2)
        op = reduced.reduced_operator(n, k, np.pi / 2)
        state = core.initial_state(n)
        comps = reduced.reduced_initial_state(n, k)
        for step in range(150):
            state = core.apply_step(state, config)
            comps = op.matrix @ comps
            err = abs(core.marked_probability(state, config) - abs(comps[3]) ** 2)
            worst = max(worst, err)
            if err > profile.equivalence_tol:
                return CheckResult(
                    "full-reduced-equivalence",
                    False,
                    f"p_marked differs by {err:.3e} at N={n}, K={k}, step={step + 1}",
                )
    return CheckResult("full-reduced-equivalence", True, f"max deviation {worst:.3e}")


def check_circuit_isomorphism(profile: ToleranceProfile) -> CheckResult:
    """The oracle-driven step is the phase-pi/2 walk step, element for element."""
    worst = 0.0
    for n in (6, profile.dense_max_n):
        config = WalkConfig(n_vertices=n, marked_set=frozenset({0, 1}), phase=np.pi / 2)
        f = OracleFunction(n_vertices=n, marked_set=config.marked_set)
        ledger = QueryLedger()
        dim = core.n_edge_states(n)
        basis = np.eye(dim, dtype=complex)
        walk_op = np.column_stack([core.apply_step(col, config) for col in basis.T])
        circuit_op = np.column_stack([oracle.oracle_step(col, f, ledger) for col in basis.T])
        if ledger.quantum_calls != 2 * dim:
            return CheckResult(
                "circuit-isomorphism",
                False,
                f"ledger counted {ledger.quantum_calls} calls for {dim} steps at N={n}",
            )
        err = np.abs(walk_op - circuit_op).max()
        worst = max(worst, err)
        if err > profile.circuit_tol:
            return CheckResult(
                "circuit-isomorphism",
                False,
                f"operator mismatch {err:.3e} at N={n}, K=2, phi=pi/2",
            )
    return CheckResult("circuit-isomorphism", True, f"max deviation {worst:.3e}")


def check_reference_values(profile: ToleranceProfile) -> CheckResult:
    """Closed-form anchor values: coefficients, step counts, coverage numbers."""
    tol = profile.reference_tol
    anchors: list[tuple[str, float, float]] = [
        ("t(N=3)", core.coefficients(3).t, 1.0),
        ("r(N=3)", core.coefficients(3).r, 0.0),
        ("t(N=5)", core.coefficients(5).t, 0.5),
        ("t(N=7)", core.coefficients(7).t, 1.0 / 3.0),
        ("n_opt(N=50,K=2)", reduced.optimal_steps(50, 2), 27),
        ("n_opt(N=100,K=2)", reduced.optimal_steps(100, 2), 55),
        ("n_opt(N=101,K=2)", reduced.optimal_steps(101, 2), 56),
        ("n_opt(N=1000,K=2)", reduced.optimal_steps(1000, 2), 555),
        ("classical(N=10,K=2)", oracle.classical_query_baseline(10, 2), 23.0),
    ]
    coverage = [
        ("P(3 of 3 | 2 runs)", stats.coverage_distribution(3, 2).probability(3), Fraction(2, 3)),
        ("P(3 of 3 | 3 runs)", stats.coverage_distribution(3, 3).probability(3), Fraction(8, 9)),
        ("P(4 of 4 | 2 runs)", stats.coverage_distribution(4, 2).probability(4), Fraction(1, 6)),
        ("P(3 of 4 | 2 runs)", stats.coverage_distribution(4, 2).probability(3), Fraction(2, 3)),
        ("P(4 of 4 | 3 runs)", stats.coverage_distribution(4, 3).probability(4), Fraction(19, 36)),
        ("P(3 of 4 | 3 runs)", stats.coverage_distribution(4, 3).probability(3), Fraction(4, 9)),
        ("E[runs to cover K=3]", stats.expected_runs_to_cover(3), Fraction(5, 2)),
    ]
    for label, got, want in anchors + coverage:
        if abs(float(got) - float(want)) > tol:
            return CheckResult("reference-values", False, f"{label}: got {got}, want {want}")
    return CheckResult("reference-values", True, f"{len(anchors) + len(coverage)} anchors match")


CHECKS = (
    check_unitarity,
    check_fixed_point,
    check_projection_consistency,
    check_subspace_closure,
    check_full_reduced_equivalence,
    check_circuit_isomorphism,
    check_reference_values,
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
    return [check(profile) for check in CHECKS]

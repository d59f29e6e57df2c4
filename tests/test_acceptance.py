"""Acceptance gate: one test per release criterion, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion.  Tolerances are pinned here and nowhere else; derived
expectations were frozen from the pre-build 4x4 spectral oracle.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import scatterwalk.core as core
import scatterwalk.reduced as reduced
import scatterwalk.oracle as oracle
import scatterwalk.stats as stats
from scatterwalk.cli import main as cli_main
from scatterwalk.core import ScatteringCoefficients, WalkConfig
from scatterwalk.oracle import OracleFunction, QueryLedger

from helpers import operator_of, random_state

# pre-registered values from the pre-build reduced-model spectral oracle
P_N1000_AT_555 = 0.9980032557010865        # marked probability, N=1000, K=2
PEAK_N200_HALF_PI = 0.990194615201587      # max p over n <= 5 n_opt, phi = pi/2
PEAK_N200_PI = 0.00045220069105667454      # max p over n <= 5 n_opt, phi = pi
ASYMPTOTIC_ERROR_N = (100, 300, 1000, 3000)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    assert ok, f"acceptance {num}: {detail}"


def cfg(n, k, phase):
    return WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=phase)


def test_criterion_1_unitarity_and_fixed_point():
    rng = np.random.default_rng(1)
    worst_norm = 0.0
    for n in (3, 5, 10, 50, 200):
        for k in (0, 2, 3):
            if k > n:
                continue
            for phase in (0.0, np.pi / 2, np.pi):
                config = cfg(n, k, phase)
                dim = core.n_edge_states(n)
                states = rng.normal(size=(100, dim)) + 1j * rng.normal(size=(100, dim))
                for state in states:
                    out = core.apply_step(state / np.linalg.norm(state), config)
                    worst_norm = max(worst_norm, abs(np.linalg.norm(out) - 1.0))
    worst_fixed = 0.0
    for n in (3, 5, 10, 50, 200):
        state = core.initial_state(n)
        out = core.apply_step(state, WalkConfig(n_vertices=n))
        worst_fixed = max(worst_fixed, np.abs(out - state).max())
    ok = worst_norm < 1e-12 and worst_fixed < 1e-13
    report(1, ok, f"norm error {worst_norm:.2e} (tol 1e-12), "
                  f"fixed-point error {worst_fixed:.2e} (tol 1e-13)")


def test_criterion_2_reduction_exactness():
    worst_proj = 0.0
    for n in range(4, 13):
        for k in range(2, n - 1):
            for phase in (0.0, np.pi / 2, np.pi):
                config = cfg(n, k, phase)
                basis = np.column_stack(
                    [reduced.embed(e, config) for e in np.eye(4, dtype=complex)]
                )
                projected = basis.conj().T @ core.dense_step_operator(config) @ basis
                err = np.abs(projected - reduced.reduced_operator(n, k, phase).matrix).max()
                worst_proj = max(worst_proj, err)
    config = cfg(30, 3, np.pi / 2)
    state = core.initial_state(30)
    worst_res = 0.0
    for _ in range(200):
        state = core.apply_step(state, config)
        _, residual = reduced.project(state, config)
        worst_res = max(worst_res, residual)
    ok = worst_proj < 1e-12 and worst_res < 1e-10
    report(2, ok, f"projection error {worst_proj:.2e} (tol 1e-12) over N<=12, "
                  f"200-step residual {worst_res:.2e} (tol 1e-10)")


def test_criterion_3_three_way_equivalence():
    n, k = 10, 2
    config = cfg(n, k, np.pi / 2)
    f = OracleFunction(n_vertices=n, marked_set=config.marked_set)
    ledger = QueryLedger()
    dim = core.n_edge_states(n)
    walk_op = operator_of(lambda c: core.apply_step(c, config), dim)
    circuit_op = operator_of(lambda c: oracle.oracle_step(c, f, ledger), dim)
    op_err = np.abs(walk_op - circuit_op).max()

    op4 = reduced.reduced_operator(n, k, np.pi / 2)
    comps0 = reduced.reduced_initial_state(n, k)
    state = core.initial_state(n)
    p_err = 0.0
    for step in range(1, 101):
        state = core.apply_step(state, config)
        comps = reduced.evolve_reduced(comps0, op4, step)
        p_err = max(p_err, abs(core.marked_probability(state, config) - abs(comps[3]) ** 2))
    ok = op_err < 1e-13 and p_err < 1e-10
    report(3, ok, f"walk/circuit operator gap {op_err:.2e} (tol 1e-13), "
                  f"full/reduced p_marked gap {p_err:.2e} over 100 steps (tol 1e-10)")


def test_criterion_4_localization_and_optimal_steps():
    n_opt = reduced.optimal_steps(1000, 2)
    op = reduced.reduced_operator(1000, 2, np.pi / 2)
    comps = reduced.evolve_reduced(reduced.reduced_initial_state(1000, 2), op, n_opt)
    p = abs(comps[3]) ** 2
    scan = reduced.optimal_steps(1000, 2, mode="scan")
    errors = []
    for n in ASYMPTOTIC_ERROR_N:
        x = reduced.localization_rate(n, 2)
        horizon = 2 * reduced.optimal_steps(n, 2)
        series = reduced.component_series(
            reduced.reduced_operator(n, 2, np.pi / 2),
            reduced.reduced_initial_state(n, 2),
            horizon,
        )
        exact = np.abs(series[:, 3]) ** 2
        errors.append(np.abs(exact - np.sin(2 * x * np.arange(horizon + 1)) ** 2).max())
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    ok = (
        n_opt == 555
        and p >= P_N1000_AT_555 - 1e-9
        and P_N1000_AT_555 >= 0.9
        and abs(scan - n_opt) <= 2
        and decreasing
    )
    report(4, ok, f"n_opt={n_opt} (expect 555), p={p:.12f} >= {P_N1000_AT_555:.12f}-1e-9, "
                  f"scan={scan}, asymptotic errors {[f'{e:.2e}' for e in errors]} decreasing")


def test_criterion_5_exact_reference_probabilities():
    targets = [
        (stats.coverage_distribution(3, 2).probability(3), Fraction(2, 3)),
        (stats.coverage_distribution(3, 3).probability(3), Fraction(8, 9)),
        (stats.expected_runs_to_cover(3), Fraction(5, 2)),
        (stats.coverage_distribution(4, 2).probability(4), Fraction(1, 6)),
        (stats.coverage_distribution(4, 2).probability(3), Fraction(2, 3)),
        (stats.coverage_distribution(4, 3).probability(4), Fraction(19, 36)),
        (stats.coverage_distribution(4, 3).probability(3), Fraction(4, 9)),
    ]
    worst = max(abs(float(got) - float(want)) for got, want in targets)
    ok = worst < 1e-12 and all(got == want for got, want in targets)
    report(5, ok, f"7 reference probabilities exact (worst float gap {worst:.1e}, tol 1e-12)")


def test_criterion_6_quadratic_separation():
    outcome = stats.run_search(cfg(100, 2, np.pi / 2), seed=0)
    calls_ok = outcome.oracle_calls == 2 * reduced.optimal_steps(100, 2)
    quantum, classical = [], []
    for n in (500, 1000):
        quantum.append(reduced.optimal_steps(2 * n, 2) / reduced.optimal_steps(n, 2))
        classical.append(
            oracle.classical_query_baseline(2 * n, 2) / oracle.classical_query_baseline(n, 2)
        )
    ok = (
        calls_ok
        and all(1.98 <= q <= 2.02 for q in quantum)
        and all(3.9 <= c <= 4.1 for c in classical)
    )
    report(6, ok, f"calls=2*n_opt: {calls_ok}; doubling ratios quantum {quantum} "
                  f"(window [1.98, 2.02]), classical {classical} (window [3.9, 4.1])")


def test_criterion_7_phase_dependence():
    n, k = 200, 2
    horizon = 5 * reduced.optimal_steps(n, k)
    peaks = {}
    for phase in (np.pi / 2, np.pi):
        series = reduced.component_series(
            reduced.reduced_operator(n, k, phase),
            reduced.reduced_initial_state(n, k),
            horizon,
        )
        peaks[phase] = float(np.max(np.abs(series[:, 3]) ** 2))
    ok = (
        peaks[np.pi / 2] >= 0.9
        and peaks[np.pi] <= 0.1
        and abs(peaks[np.pi / 2] - PEAK_N200_HALF_PI) < 1e-9
        and abs(peaks[np.pi] - PEAK_N200_PI) < 1e-9
    )
    report(7, ok, f"peak p over {horizon} steps: {peaks[np.pi / 2]:.6f} at pi/2 (>= 0.9), "
                  f"{peaks[np.pi]:.2e} at pi (<= 0.1)")


def test_criterion_8_full_engine_scale():
    config = cfg(1000, 2, np.pi / 2)
    start = time.perf_counter()
    state = core.evolve(core.initial_state(1000), config, 555)
    elapsed = time.perf_counter() - start
    p_full = core.marked_probability(state, config)
    op = reduced.reduced_operator(1000, 2, np.pi / 2)
    comps = reduced.evolve_reduced(reduced.reduced_initial_state(1000, 2), op, 555)
    gap = abs(p_full - abs(comps[3]) ** 2)
    ok = elapsed <= 60.0 and gap < 1e-8
    report(8, ok, f"N=1000 full evolution of 555 steps in {elapsed:.1f}s (budget 60s), "
                  f"full/reduced gap {gap:.2e} (tol 1e-8)")


def test_criterion_9_cli_determinism_and_fault_injection(tmp_path, monkeypatch, capsys):
    args = ("run", "--n", "60", "--k", "2", "--steps", "auto", "--seed", "4")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main([*args, "--out", str(out_a)]) == 0
    assert cli_main([*args, "--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()

    clean_rc = cli_main(["verify"])

    original = core.coefficients

    def broken(n_vertices):
        t, r = original(n_vertices)
        return ScatteringCoefficients(t=t, r=r + 0.03)

    monkeypatch.setattr(core, "coefficients", broken)
    faulty_rc = cli_main(["verify"])
    monkeypatch.undo()
    capsys.readouterr()

    ok = identical and clean_rc == 0 and faulty_rc == 1
    report(9, ok, f"byte-identical CSV: {identical}; verify exit {clean_rc} clean, "
                  f"{faulty_rc} under fault injection")

"""Command-line front end: `walk run`, `walk verify`, `walk stats`.

run    evolves a walk and writes one record per step (or one summary row
       per graph size when sweeping) as CSV or JSON.
verify executes the invariant suites and reports pass/fail per suite.
stats  prints multi-run discovery statistics, exact or simulated.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 output
write failure.  Outputs are deterministic for a fixed spec and seed;
floats are rendered with 17 significant digits so values round-trip.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import core, oracle, reduced, stats, verify
from .core import WalkConfig
from .oracle import OracleFunction, QueryLedger

__all__ = ["main", "entrypoint", "cmd_run", "cmd_verify", "cmd_stats", "parse_phase"]

STEP_COLUMNS = ("step", "p_marked", "p_w1", "p_w2", "p_w3", "p_w4", "residual", "norm_error")
SWEEP_COLUMNS = (
    "n", "k", "phase", "steps", "n_opt", "p_final", "p_peak", "quantum_calls", "classical_queries",
)
STATS_COLUMNS = ("j", "probability", "fraction")

_PHASE_TOKENS = {
    "0": 0.0,
    "pi": math.pi,
    "pi/2": math.pi / 2,
    "pi/4": math.pi / 4,
    "-pi/2": -math.pi / 2,
    "2pi": 2 * math.pi,
}


def parse_phase(token: str) -> float:
    """Resolve a phase given in radians or as a symbolic multiple of pi."""
    key = token.strip().lower().replace(" ", "")
    if key in _PHASE_TOKENS:
        return _PHASE_TOKENS[key]
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"phase {token!r} is neither a number nor one of {sorted(_PHASE_TOKENS)}"
        ) from None


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render_csv(columns, rows, summary: dict) -> str:
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    for key in sorted(summary):
        buf.write(f"# summary {key}={_fmt(summary[key])}\n")
    return buf.getvalue()


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, Fraction):
        return str(value)
    return value


def _render_json(spec: dict, rows, summary: dict) -> str:
    payload = {
        "spec": {k: _jsonable(v) for k, v in spec.items()},
        "rows": [{k: _jsonable(v) for k, v in row.items()} for row in rows],
        "summary": {k: _jsonable(v) for k, v in summary.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 3
    return 0


def _invalid(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _memory_guard(n: int) -> int | None:
    """Exit code 2 if the grids of one full-state evolution exceed physical memory."""
    need = 2 * n * n * 16  # the state grid and the step's output, complex128
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        return _invalid(f"n={n} needs {need / 2**30:.1f} GiB for the full-state grids, "
                        f"more than the {have / 2**30:.1f} GiB of physical memory")
    return None


def _parse_marked(args, n: int) -> frozenset[int] | None:
    """Resolve --k / --marked-list into a vertex set; None means invalid."""
    if args.marked_list is not None:
        try:
            marked = frozenset(int(v) for v in args.marked_list.split(","))
        except ValueError:
            print(f"error: marked-list {args.marked_list!r} is not a comma-separated "
                  "list of integers", file=sys.stderr)
            return None
        if args.k is not None and args.k != len(marked):
            print(f"error: k={args.k} inconsistent with marked-list of size {len(marked)}",
                  file=sys.stderr)
            return None
    else:
        k = 2 if args.k is None else args.k
        if k < 0 or k > n:
            print(f"error: k={k} out of range for n={n}", file=sys.stderr)
            return None
        marked = frozenset(range(k))
    if any(v < 0 or v >= n for v in marked):
        print(f"error: marked-list contains vertices outside 0..{n - 1}", file=sys.stderr)
        return None
    return marked


def _step_rows_reduced(n: int, k: int, phase: float, steps: int) -> list[dict]:
    op = reduced.reduced_operator(n, k, phase)
    series = reduced.component_series(op, reduced.reduced_initial_state(n, k), steps)
    rows = []
    for i in range(steps + 1):
        weights = np.abs(series[i]) ** 2
        rows.append({
            "step": i,
            "p_marked": float(weights[3]),
            "p_w1": float(weights[0]),
            "p_w2": float(weights[1]),
            "p_w3": float(weights[2]),
            "p_w4": float(weights[3]),
            "residual": 0.0,
            "norm_error": abs(float(weights.sum()) ** 0.5 - 1.0),
        })
    return rows


def _step_rows_full(config: WalkConfig, steps: int, use_oracle: bool) -> tuple[list[dict], int]:
    grid = core.to_grid(core.initial_state(config.n_vertices), config.n_vertices)
    ledger = QueryLedger()
    f = OracleFunction(n_vertices=config.n_vertices, marked_set=config.marked_set)
    rows = []
    for i in range(steps + 1):
        comps, residual = reduced.project(grid, config)
        weights = np.abs(comps) ** 2
        rows.append({
            "step": i,
            "p_marked": core.marked_probability(grid, config),
            "p_w1": float(weights[0]),
            "p_w2": float(weights[1]),
            "p_w3": float(weights[2]),
            "p_w4": float(weights[3]),
            "residual": residual,
            "norm_error": abs(float(np.linalg.norm(grid)) - 1.0),
        })
        if i < steps:
            if use_oracle:
                grid = oracle.oracle_step(grid, f, ledger)
            else:
                grid = core.apply_step(grid, config)
    return rows, ledger.quantum_calls


def _single_run(n: int, marked: frozenset[int], phase: float, steps_arg: str, engine: str):
    """Rows + summary for one graph size; returns (rows, summary) or an exit code."""
    k = len(marked)
    if not 2 <= k <= n - 2:
        return _invalid(f"k={k} must satisfy 2 <= k <= n-2 for step records (n={n})")
    if steps_arg == "auto":
        if phase != math.pi / 2:
            return _invalid("steps=auto requires phase pi/2")
        steps = reduced.optimal_steps(n, k)
    else:
        try:
            steps = int(steps_arg)
        except ValueError:
            return _invalid(f"steps must be an integer or 'auto', got {steps_arg!r}")
        if steps < 0:
            return _invalid(f"steps must be >= 0, got {steps}")
    if engine == "oracle" and phase != math.pi / 2:
        return _invalid("engine=oracle implements phase pi/2 only")
    if engine == "reduced":
        rows = _step_rows_reduced(n, k, phase, steps)
        quantum_calls = 2 * steps
    else:
        config = WalkConfig(n_vertices=n, marked_set=marked, phase=phase)
        rows, counted = _step_rows_full(config, steps, use_oracle=(engine == "oracle"))
        quantum_calls = counted if engine == "oracle" else 2 * steps
    summary = {
        "n": n,
        "k": k,
        "engine": engine,
        "steps": steps,
        "n_opt": reduced.optimal_steps(n, k),
        "p_final": rows[-1]["p_marked"],
        "p_peak": max(row["p_marked"] for row in rows),
        "quantum_calls": quantum_calls,
        "classical_queries": oracle.classical_query_baseline(n, k),
    }
    return rows, summary


def cmd_run(args) -> int:
    try:
        phase = parse_phase(args.phase)
    except ValueError as exc:
        return _invalid(str(exc))
    if (args.n is None) == (args.n_range is None):
        return _invalid("exactly one of --n / --n-range is required")

    if args.n is not None:
        if args.n < 3:
            return _invalid(f"n={args.n} must be >= 3")
        marked = _parse_marked(args, args.n)
        if marked is None:
            return 2
        if args.engine != "reduced" and (code := _memory_guard(args.n)):
            return code
        result = _single_run(args.n, marked, phase, args.steps, args.engine)
        if isinstance(result, int):
            return result
        rows, summary = result
        spec = {
            "command": "run", "n": args.n, "k": len(marked),
            "marked": sorted(marked), "phase": phase, "phase_token": args.phase,
            "steps": args.steps, "engine": args.engine, "seed": args.seed,
        }
        columns = STEP_COLUMNS
    else:
        try:
            start, stop, stride = (int(p) for p in args.n_range.split(":"))
        except ValueError:
            return _invalid(f"n-range {args.n_range!r} is not of the form a:b:step")
        if start < 3 or stop < start or stride < 1:
            return _invalid(f"n-range {args.n_range!r} must satisfy 3 <= a <= b, step >= 1")
        if args.marked_list is not None:
            return _invalid("marked-list cannot be combined with a sweep; use --k")
        sizes = range(start, stop + 1, stride)
        if args.engine != "reduced" and (code := _memory_guard(sizes[-1])):
            return code
        rows = []
        for n in sizes:
            marked = _parse_marked(args, n)
            if marked is None:
                return 2
            result = _single_run(n, marked, phase, args.steps, args.engine)
            if isinstance(result, int):
                return result
            step_rows, summary = result
            rows.append({
                "n": n, "k": summary["k"], "phase": phase, "steps": summary["steps"],
                "n_opt": summary["n_opt"], "p_final": summary["p_final"],
                "p_peak": summary["p_peak"], "quantum_calls": summary["quantum_calls"],
                "classical_queries": summary["classical_queries"],
            })
        summary = {"command": "run-sweep", "points": len(rows), "engine": args.engine}
        spec = {
            "command": "run", "n_range": args.n_range, "k": args.k,
            "phase": phase, "phase_token": args.phase, "steps": args.steps,
            "engine": args.engine, "seed": args.seed,
        }
        columns = SWEEP_COLUMNS

    if args.format == "csv":
        text = _render_csv(columns, rows, summary)
    else:
        text = _render_json(spec, rows, summary)
    return _emit(text, args.out)


def cmd_verify(args) -> int:
    try:
        results = verify.run_checks(args.profile)
    except ValueError as exc:
        return _invalid(str(exc))
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed "
          f"(profile={args.profile})")
    return 1 if failed else 0


def cmd_stats(args) -> int:
    if args.k < 2:
        return _invalid(f"k={args.k} must be >= 2")
    if args.runs < 1:
        return _invalid(f"runs={args.runs} must be >= 1")
    if args.mode == "mc" and args.n is None:
        return _invalid("mc mode requires --n")
    if args.mode == "mc" and args.engine == "full" and (code := _memory_guard(args.n)):
        return code
    try:
        if args.mode == "exact":
            dist = stats.coverage_distribution(args.k, args.runs, "exact")
        else:
            dist = stats.coverage_distribution(
                args.k, args.runs, "mc",
                n_vertices=args.n, trials=args.trials, seed=args.seed, engine=args.engine,
            )
    except ValueError as exc:
        return _invalid(str(exc))
    rows = []
    for j in sorted(dist.probabilities):
        p = dist.probabilities[j]
        rows.append({
            "j": j,
            "probability": float(p),
            "fraction": str(p) if isinstance(p, Fraction) else None,
        })
    expected = stats.expected_runs_to_cover(args.k)
    summary = {
        "k": args.k,
        "runs": args.runs,
        "mode": dist.mode,
        "expected_runs_to_cover": float(expected),
        "expected_runs_fraction": str(expected),
    }
    if dist.mode == "simulated":
        summary.update({
            "n": args.n, "trials": args.trials, "seed": args.seed,
            "success_rate": dist.success_rate, "oracle_calls": dist.oracle_calls,
        })
    spec = {
        "command": "stats", "k": args.k, "runs": args.runs, "mode": args.mode,
        "n": args.n, "trials": args.trials, "seed": args.seed, "engine": args.engine,
    }
    if args.format == "csv":
        text = _render_csv(STATS_COLUMNS, rows, summary)
    else:
        text = _render_json(spec, rows, summary)
    return _emit(text, args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walk",
        description="Scattering-walk search on complete graphs: run, verify, stats.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evolve a walk and export per-step records")
    run.add_argument("--n", type=int, help="number of vertices")
    run.add_argument("--n-range", help="sweep a:b:step over the number of vertices")
    run.add_argument("--k", type=int, help="number of marked vertices (default 2)")
    run.add_argument("--marked-list", help="explicit comma-separated marked vertices")
    run.add_argument("--phase", default="pi/2", help="edge phase: radians or pi, pi/2, pi/4")
    run.add_argument("--steps", default="auto", help="step count, or 'auto' for the optimum")
    run.add_argument("--engine", choices=("full", "reduced", "oracle"), default="reduced")
    run.add_argument("--seed", type=int, default=0, help="recorded in the output spec")
    run.add_argument("--out", help="output path (default: stdout)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="run the invariant suites")
    ver.add_argument("--profile", choices=("default", "strict"), default="default")
    ver.set_defaults(func=cmd_verify)

    st = sub.add_parser("stats", help="multi-run discovery statistics")
    st.add_argument("--k", type=int, required=True, help="number of marked vertices")
    st.add_argument("--runs", type=int, required=True, help="number of search runs")
    st.add_argument("--mode", choices=("exact", "mc"), default="exact")
    st.add_argument("--n", type=int, help="graph size (mc mode)")
    st.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--engine", choices=("reduced", "full"), default="reduced")
    st.add_argument("--out", help="output path (default: stdout)")
    st.add_argument("--format", choices=("csv", "json"), default="csv")
    st.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())

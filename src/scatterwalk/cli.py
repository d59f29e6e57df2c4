"""Command-line front end: `walk run`, `walk verify`, `walk stats`.

run    evolves a walk and writes one record per step (or one summary row
       per graph size when sweeping) as CSV or JSON.
verify executes the invariant suites and reports pass/fail per suite.
stats  prints multi-run discovery statistics, exact or simulated.

`run` and `stats` build one table, a dict of equal-length columns, plus a
summary dict.  `run` only formats the step records of
`reduced.step_records` (full, oracle engines) or `reduced.series_records`
(reduced), and keeps them as numpy columns until they are written; a sweep
keeps each point's summary, read from the p_marked column, and builds no
step table.  Sweep and stats columns are lists of Python values (int,
float, str or None).  One CSV writer and one JSON writer format every
table.  The CSV writer picks each column's printf format once, from its
first value, and renders the rows `_CHUNK` at a time: a numpy column that
holds one bit pattern is formatted once, into the row template, and one
whose bits equal an earlier column's prints that column's text, formatted
once per chunk.  Bits, not values, are compared, so 0.0 and -0.0 stay
apart.  The JSON writer turns the columns into lists one at a time, and
its rows are dicts zipped from them; it streams its text in batches.

Start-up.  Importing this module loads the numpy-free input contract
only; argparse is loaded when `main` parses.  Each command imports what
it runs, inside the functions that use it, and calls through module
attributes (`core.apply_step`, `stats.coverage_distribution`), so a
wrapper or patch set on a module is the one called: `run` loads numpy,
`core`, `reduced` and `oracle`; `stats --mode exact` loads only the exact
chain in `coverage`, no numpy; `stats --mode mc` adds `stats` and its
engines; `verify` loads `verify` and everything it checks.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 output
write failure.  Outputs are deterministic for a fixed spec and seed;
floats are rendered with 17 significant digits so values round-trip.
"""

from __future__ import annotations

import math
import os
import sys
from functools import partial
from itertools import islice, repeat

from .contract import check_int

__all__ = ["main", "entrypoint", "cmd_run", "cmd_verify", "cmd_stats", "parse_phase"]

# the names of verify.PROFILES, listed here so that parsing does not import
# `verify`; a test holds the two equal
_PROFILES = ("default", "strict")

SWEEP_COLUMNS = (
    "n", "k", "phase", "steps", "n_opt", "p_final", "p_peak", "quantum_calls", "classical_queries",
)

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
        value = float(token)
    except ValueError:
        raise ValueError(
            f"phase {token!r} is neither a number nor one of {sorted(_PHASE_TOKENS)}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"phase {token!r} is not finite")
    return value


# printf format of a column, picked once from the type of its first value;
# "%.0s" prints None as nothing
_FORMATS = {int: "%d", float: "%.17g", str: "%s", type(None): "%.0s"}


def _stream(handle, pieces) -> None:
    """Write an iterator of strings in joined batches, so an unbuffered
    stdout sees few writes."""
    while batch := list(islice(pieces, 256)):
        handle.write("".join(batch))


# rows the CSV writer renders at a time
_CHUNK = 1024


def _values(column, start: int, stop: int) -> list:
    """Rows start..stop-1 of a list or numpy column, as Python values."""
    chunk = column[start:stop]
    return chunk if isinstance(column, list) else chunk.tolist()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two numpy columns (b may be one row, broadcast) hold the same
    dtype and bit patterns: 0.0 and -0.0 differ, NaN equals its own bits."""
    def bits(column):
        return column.view(f"i{column.itemsize}")

    return a.dtype == b.dtype and bool((bits(a) == bits(b)).all())


def _write_csv(handle, table: dict[str, list | np.ndarray], summary: dict) -> None:
    """A header, one line per row, then one `# summary key=value` line per key."""
    handle.write(",".join(table) + "\n")
    # a field is the text of a constant column, or the index of the source
    # column it prints; a source that two fields print is formatted to text
    fields, sources, shared = [], [], set()
    for column in table.values():
        first = _values(column, 0, 1)[0]
        fmt = _FORMATS[type(first)]
        array = not isinstance(column, list)
        if array and _same_bits(column, column[:1]):
            fields.append(fmt % first)  # numbers: no "%" to escape
            continue
        twin = next((i for i, (earlier, _) in enumerate(sources)
                     if array and not isinstance(earlier, list) and _same_bits(earlier, column)),
                    None)
        if twin is None:
            fields.append(len(sources))
            sources.append((column, fmt))
        else:
            fields.append(twin)
            shared.add(twin)
    template = ",".join(field if isinstance(field, str) else "%s" if field in shared
                        else sources[field][1] for field in fields) + "\n"
    rows = len(next(iter(table.values())))
    for start in range(0, rows, _CHUNK):
        stop = min(start + _CHUNK, rows)
        values = [_values(column, start, stop) for column, _ in sources]
        for i in shared:
            values[i] = list(map(sources[i][1].__mod__, values[i]))
        args = [values[field] for field in fields if not isinstance(field, str)]
        lines = zip(*args) if args else repeat((), stop - start)
        handle.write("".join(map(template.__mod__, lines)))
    for key in sorted(summary):
        handle.write(f"# summary {key}={_FORMATS[type(summary[key])] % summary[key]}\n")


def _write_json(handle, spec: dict, table: dict[str, list | np.ndarray], summary: dict) -> None:
    """One object of spec, rows and summary, keys sorted.  Each numpy column
    of the table is replaced by its list before the next is converted."""
    import json

    for key in table:
        if not isinstance(table[key], list):
            table[key] = table[key].tolist()
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    payload = {"spec": spec, "rows": rows, "summary": summary}
    _stream(handle, json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload))
    handle.write("\n")


def _emit(args, spec: dict, table: dict[str, list | np.ndarray], summary: dict) -> int:
    """Write a table as --format to --out, or to stdout; 3 if --out cannot be written."""
    def write(handle) -> None:
        if args.format == "csv":
            _write_csv(handle, table, summary)
        else:
            _write_json(handle, spec, table, summary)

    if args.out is None:
        write(sys.stdout)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write(handle)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


# bytes per step record the memory guard counts: the peak RSS of `walk run
# --engine reduced --n 100000 --k 2 --steps 200000|400000`, minus that of the
# 0-step run, is at most 186 B (CSV, numpy columns) and 629 B (JSON, a dict
# per row) per record; CSV plus 25%, JSON 25% over an earlier 673 B peak
_ROW_BYTES = {"csv": 233, "json": 842}


def _gib(nbytes: int) -> str:
    from decimal import Decimal

    gib = Decimal(nbytes) / 2**30  # a float overflows at the byte count of --n 10**400
    return f"{gib:.1f}" if gib < 10**9 else f"{gib:.2e}"


def _memory_guard(need: int, what: str, purpose: str) -> None:
    """Refuse with ValueError, before allocating, what needs more than physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(f"{what} needs {_gib(need)} GiB for {purpose}, "
                         f"more than the {_gib(have)} GiB of physical memory")


def _grid_bytes(n: int) -> int:
    # two grids: `walk run --engine full|oracle --n 3000` peaks at 168 MiB, one
    # 137 MiB grid over the interpreter's 30, and the full-engine Monte Carlo
    # at 328 MiB, holding the grid and its packed copy at once
    return 2 * n * n * 16


def _grid_guard(n: int) -> None:
    _memory_guard(_grid_bytes(n), f"n={n}", "the full-state grids")


def _parse_marked(args, n: int) -> frozenset[int]:
    """Resolve --k / --marked-list into a vertex set."""
    from . import core

    if args.marked_list is not None:
        try:
            vertices = [int(v) for v in args.marked_list.split(",")]
        except ValueError:
            raise ValueError(f"marked-list {args.marked_list!r} is not a comma-separated "
                             "list of integers") from None
        marked, _ = core.check_marked(n, vertices)
        if args.k is not None and args.k != len(marked):
            raise ValueError(f"k={args.k} inconsistent with marked-list of size {len(marked)}")
    else:
        k = 2 if args.k is None else args.k
        if k < 0 or k > n:
            raise ValueError(f"k={k} out of range for n={n}")
        _memory_guard(k * 160, f"k={k}", "the marked set")  # set, sorted list, JSON text
        marked = frozenset(range(k))
    return marked


def _step_table(comps: np.ndarray, residual: np.ndarray, p_marked: np.ndarray,
                norm: np.ndarray) -> dict[str, np.ndarray]:
    """The step records of one graph size, one numpy column per field."""
    import numpy as np

    w1, w2, w3, w4 = (abs(c) ** 2 for c in comps.T)
    return {
        "step": np.arange(len(comps)), "p_marked": p_marked,
        "p_w1": w1, "p_w2": w2, "p_w3": w3, "p_w4": w4,
        "residual": residual, "norm_error": abs(norm - 1.0),
    }


def _single_run(args, n: int, marked: frozenset[int], phase: float):
    """(step record columns, summary) for one graph size."""
    from . import core, oracle, reduced

    k, engine = len(marked), args.engine
    n_opt = reduced.optimal_steps(n, k)  # refuses N < 4 and K outside 2..N-2
    if args.steps == "auto":
        if phase != math.pi / 2:
            raise ValueError("steps=auto requires phase pi/2")
        steps = n_opt
    else:
        try:
            steps = int(args.steps)
        except ValueError:
            raise ValueError(f"steps must be an integer or 'auto', got {args.steps!r}") from None
        steps = check_int("steps", steps, 0)
    if engine == "oracle" and phase != math.pi / 2:
        raise ValueError("engine=oracle implements phase pi/2 only")
    _memory_guard((steps + 1) * _ROW_BYTES[args.format], f"steps={steps}", "its step records")
    ledger = oracle.QueryLedger()
    if engine == "reduced":
        records = reduced.series_records(n, k, phase, steps)
    elif engine == "oracle":
        records = reduced.step_records(partial(oracle.oracle_step, ledger=ledger),
                                       oracle.OracleFunction(n, marked), steps)
    else:
        records = reduced.step_records(core.apply_step, core.WalkConfig(n, marked, phase), steps)
    p_marked = records[2].tolist()
    summary = {
        "n": n,
        "k": k,
        "engine": engine,
        "steps": steps,
        "n_opt": n_opt,
        "p_final": p_marked[-1],
        "p_peak": max(p_marked),
        "quantum_calls": ledger.quantum_calls if engine == "oracle" else 2 * steps,
        "classical_queries": oracle.classical_query_baseline(n, k),
    }
    return records, summary


def cmd_run(args) -> int:
    phase = parse_phase(args.phase)
    if (args.n is None) == (args.n_range is None):
        raise ValueError("exactly one of --n / --n-range is required")

    if args.n is not None:
        check_int("n_vertices", args.n, 4)  # before the marked set and grids are sized
        marked = _parse_marked(args, args.n)
        if args.engine != "reduced":
            _grid_guard(args.n)
        table, summary = _single_run(args, args.n, marked, phase)
        table = _step_table(*table)  # the record arrays are freed before the rows are written
        spec = {
            "command": "run", "n": args.n, "k": len(marked),
            "marked": sorted(marked), "phase": phase, "phase_token": args.phase,
            "steps": args.steps, "engine": args.engine, "seed": args.seed,
        }
    else:
        try:
            start, stop, stride = (int(p) for p in args.n_range.split(":"))
        except ValueError:
            raise ValueError(f"n-range {args.n_range!r} is not of the form a:b:step") from None
        if start < 4 or stop < start or stride < 1:
            raise ValueError(f"n-range {args.n_range!r} must satisfy 4 <= a <= b, step >= 1")
        if args.marked_list is not None:
            raise ValueError("marked-list cannot be combined with a sweep; use --k")
        sizes = range(start, stop + 1, stride)
        if args.engine != "reduced":
            _grid_guard(sizes[-1])
        points = [dict(_single_run(args, n, _parse_marked(args, n), phase)[1], phase=phase)
                  for n in sizes]
        table = {column: [point[column] for point in points] for column in SWEEP_COLUMNS}
        summary = {"command": "run-sweep", "points": len(points), "engine": args.engine}
        spec = {
            "command": "run", "n_range": args.n_range, "k": args.k,
            "phase": phase, "phase_token": args.phase, "steps": args.steps,
            "engine": args.engine, "seed": args.seed,
        }
    return _emit(args, spec, table, summary)


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_checks(args.profile)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed "
          f"(profile={args.profile})")
    return 1 if failed else 0


def cmd_stats(args) -> int:
    from . import coverage

    # runs, and in mc mode N and a k above it: refused before
    # expected_runs_to_cover's work at a large k
    check_int("runs", args.runs, 1)
    if args.mode == "mc":
        if args.n is None:
            raise ValueError("mc mode requires --n")
        check_int("n_vertices", args.n, 4)
        if args.k > args.n:
            raise ValueError(f"k={args.k} out of range for n={args.n}")
        # both engines peak in the shared count: peak RSS at 4M draws, n=64, k 2
        # and 8, runs 1 to 4M, over that of one draw is at most 24.9 B per draw,
        # and up to 31 B per trial more at runs 1-4 (glibc's heap keeps that);
        # counted plus 25%, with the k B per trial of the discovered-vertex mask
        need = args.trials * (32 * args.runs + 37 + args.k)
        purpose = "the Monte Carlo draws"
        if args.engine == "full":
            need += _grid_bytes(args.n)
            purpose = "the full-state grids and the Monte Carlo draws"
        _memory_guard(need, f"n={args.n}, k={args.k}, runs={args.runs}, trials={args.trials}",
                      purpose)
    expected = coverage.expected_runs_to_cover(args.k)  # refuses an oversized k at once
    if args.mode == "exact":
        dist = coverage.exact_coverage(args.k, args.runs)
    else:
        from . import stats

        dist = stats.coverage_distribution(
            args.k, args.runs, "mc",
            n_vertices=args.n, trials=args.trials, seed=args.seed, engine=args.engine,
        )
    probs = sorted(dist.probabilities.items())
    # exact fractions can pass Python's 4300-digit int-to-str limit (3.10.7+);
    # the work bounds in `coverage` keep them under about 35,000 digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        exact = dist.mode == "idealized"
        fractions = [str(p) for _, p in probs] if exact else [None] * len(probs)
        expected_fraction = str(expected)
    finally:
        set_limit(limit)
    table = {
        "j": [j for j, _ in probs],
        "probability": [float(p) for _, p in probs],
        "fraction": fractions,
    }
    summary = {
        "k": args.k,
        "runs": args.runs,
        "mode": dist.mode,
        "expected_runs_to_cover": float(expected),
        "expected_runs_fraction": expected_fraction,
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
    return _emit(args, spec, table, summary)


def _build_parser() -> argparse.ArgumentParser:
    import argparse

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
    run.add_argument("--seed", type=int, default=0,
                     help="only recorded in the JSON spec; run draws no random numbers")
    run.add_argument("--out", help="output path (default: stdout)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="run the invariant suites")
    ver.add_argument("--profile", choices=_PROFILES, default="default")
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
    try:
        if getattr(args, "seed", 0) < 0:  # run and stats take a seed, verify does not
            raise ValueError(f"seed={args.seed} must be >= 0")
        return args.func(args)
    except ValueError as exc:  # every invalid input, numpy.linalg.LinAlgError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

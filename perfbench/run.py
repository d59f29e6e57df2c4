"""Benchmark for scatterwalk: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
Workloads are listed in BENCHMARK.json and defined in workloads.py.  A run

1. runs SETUPS fresh interpreters that import what an operation needs and
   build its first input, each between two start-ups of the yardstick
   program (calibrate.py), and takes their CPU time for setup_s;
2. runs `verify.run_checks("default")` once and refuses to report numbers if
   any suite fails;
3. computes the mpmath reference for the workload (untimed);
4. runs operations back to back, one client, until S seconds have passed,
   with a run of the yardstick program (calibrate.py) before the first
   operation and after each one.

Times are CPU seconds of the processes that did the work.  On a shared host
even those drift by tens of percent over minutes, so an operation's cost is
reported as `cpu_ratio`: its CPU time over the mean of the yardstick runs
just before and after it, which drift with it.  Set-up is divided the same
way by the yardstick's start-up alone, and reported as seconds on a host
where that start-up takes YARDSTICK_START_S.  The raw CPU and wall-clock
medians are printed in the table and recorded.

With --trace 0 no operation is traced and the end-to-end metrics are
printed.  With --trace 1 operations alternate between untraced and traced,
and the per-layer metrics are printed, per traced operation, with the raw
CPU figures of the untraced ones.
The last line of standard output is the JSON result; the lines above it are
a readable table and the machine record, which is also written with the
metrics and their sample counts to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUPS = 5
#: set-up is reported in seconds on a host where the yardstick's start-up
#: (imports, no steps, no rows) takes this many CPU seconds; about what it
#: takes on the benchmark host (2-vCPU Xeon, Python 3.11, numpy 2.4)
YARDSTICK_START_S = 0.5
YARDSTICK_START = (3, 0, 0)
#: float64 cannot resolve p_marked errors below this, so digits stop at 17
ERROR_FLOOR = 1e-17
GATE_OP = -1

END_TO_END_UNITS = {"cpu_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
                    "p_marked_digits": "digits"}


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine_record() -> dict:
    """Where the numbers came from: CPU, caches, versions, threads, commit."""
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(index / "size")
    commit = None
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        commit = _read(ROOT / ".git" / head[5:])
    elif head:
        commit = head
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": commit,
    }


def time_setups(name: str, seed: int, size: str) -> list[tuple[float, float]]:
    """(CPU seconds of an interpreter that gets ready for the first operation,
    mean CPU seconds of the yardstick start-ups just before and after it),
    SETUPS times; the child exits as soon as it has printed "ready"."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(ROOT / "perfbench" / "child.py"), "setup", name, str(seed),
               size]
    samples = []
    before = workloads.calibrate(YARDSTICK_START)
    for _ in range(SETUPS):
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or out.strip() != b"ready":
            raise RuntimeError(f"set-up child exited {proc.returncode}")
        after = workloads.calibrate(YARDSTICK_START)
        samples.append((usage.ru_utime + usage.ru_stime, (before + after) / 2))
        before = after
    return samples


def end_to_end(ops, setups) -> dict:
    done = [op for op in ops if not op.errors]
    errors = [e for op in ops for e in op.p_errors if math.isfinite(e)]
    worst = max(errors) if errors else math.nan
    return {
        "cpu_ratio": (statistics.median(op.cpu_s / op.yardstick_s for op in done), len(done)),
        "setup_s": (statistics.median(s / y for s, y in setups) * YARDSTICK_START_S,
                    len(setups)),
        "peak_rss_mb": (max(op.rss_mb for op in done), len(done)),
        "p_marked_digits": (-math.log10(max(worst, ERROR_FLOOR)), len(errors)),
    }


def per_layer(ops, ids, spans, counts, steps) -> dict:
    """Per traced operation: the tracer table plus counts and overheads.

    `ids` are the indices of the traced operations in `ops`, `spans` the
    in-process spans and `counts` the work counts of each traced operation.
    """
    import tracer

    traced = [ops[i] for i in ids]
    tables = [tracer.aggregate(spans, ids)] + [tracer.aggregate(op.spans) for op in traced]
    roots = tracer.root_time(spans, ids) + sum(tracer.root_time(op.spans) for op in traced)
    n = len(traced)
    metrics = {}
    for name in tracer.TRACED:
        for field, unit in zip(tracer.FIELDS, ("count", "s", "s", "count")):
            metrics[f"{name}.{field}"] = (sum(t[name][field] for t in tables) / n, unit, n)
    # verify.run_checks runs once per run, in the gate before any operation
    gate = tracer.aggregate(spans, {GATE_OP})["verify.run_checks"]
    for field, unit in zip(tracer.FIELDS, ("count", "s", "s", "count")):
        metrics[f"verify.run_checks.{field}"] = (gate[field], unit, 1)
    edges = sum(c.get("core.edge_updates", 0) for c in counts) / n
    kernel = sum(metrics[f"{k}.self_s"][0] for k in tracer.KERNELS)
    draws = sum(op.draws for op in traced)
    evolutions = metrics["oracle.oracle_step.calls"][0] * n / steps
    untraced = [op for i, op in enumerate(ops) if i not in ids]
    traced_cpu = statistics.median(op.cpu_s for op in traced)
    untraced_cpu = statistics.median(op.cpu_s for op in untraced)
    metrics.update({
        "core.edge_updates": (edges, "count", n),
        "core.ns_per_edge": (kernel / edges * 1e9 if edges else 0.0, "ns", n),
        "core.bytes_computed": (sum(c.get("core.bytes_computed", 0) for c in counts) / n,
                                "B", n),
        "oracle.quantum_calls": (sum(op.quantum_calls for op in traced) / n, "count", n),
        "stats.evolutions_per_draw": (evolutions / draws if draws else 0.0, "ratio", n),
        "cli.bytes_out": (sum(op.bytes_out for op in traced) / n, "B", n),
        "trace_overhead_frac": (traced_cpu / untraced_cpu - 1.0, "ratio", len(ops)),
        "trace.unaccounted_s": (sum(op.wall_s for op in traced) / n - roots / n, "s", n),
        # raw figures of the untraced operations, which the end-to-end run
        # reports only as cpu_ratio
        "e2e.cpu_s": (untraced_cpu, "s", len(untraced)),
        "e2e.edge_updates_per_s": (statistics.median(op.work / op.cpu_s for op in untraced),
                                   "1/s", len(untraced)),
        "yardstick.cpu_s": (statistics.median(op.yardstick_s for op in untraced), "s",
                            len(untraced)),
    })
    return metrics


def main(argv: list[str] | None = None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scatterwalk" / "__init__.py").is_file():
        print(f"error: no scatterwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import scatterwalk

    if not Path(scatterwalk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: scatterwalk imported from {scatterwalk.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import tracer
    import workloads
    from scatterwalk import verify

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    setups = time_setups(args.workload, args.seed, size)
    work = workloads.WORKLOADS[args.workload](args.seed, size)
    recorder = tracer.Tracer() if args.trace else None

    if recorder:
        recorder.op = GATE_OP
        recorder.install()
    try:
        failed_suites = [r for r in verify.run_checks("default") if not r.passed]
    finally:
        if recorder:
            recorder.uninstall()
    if failed_suites:
        for result in failed_suites:
            print(f"error: verify suite {result.name} failed: {result.detail}", file=sys.stderr)
        return 1
    work.reference()

    # odd-numbered operations are traced, so a traced run needs at least two
    ops, traced, counts = [], [], []
    start = time.perf_counter()
    yardstick = workloads.calibrate(work.size["yardstick"])
    while time.perf_counter() - start < args.seconds or len(ops) < 1 + args.trace:
        index = len(ops)
        trace_this = bool(args.trace and index % 2 == 1)
        if trace_this:
            before = dict(recorder.counts)
            recorder.op = index
            recorder.install()
        try:
            op = work.run(index, trace_this)
        finally:
            if trace_this:
                recorder.uninstall()
        if any(not math.isfinite(e) for e in op.p_errors):
            op.errors.append("p_marked is not a finite number")
        after = workloads.calibrate(work.size["yardstick"])
        op.yardstick_s, yardstick = (yardstick + after) / 2, after
        ops.append(op)
        if trace_this:
            traced.append(index)
            counts.append({key: recorder.counts[key] - before[key] + op.counts.get(key, 0)
                           for key in before})

    failures = [f"op {i}: {e}" for i, op in enumerate(ops) for e in op.errors]
    failures += work.run_failures(ops)
    failed = sum(1 for op in ops if op.errors)
    done = [op for op in ops if not op.errors]

    if args.trace:
        rows = per_layer(ops, traced, recorder.spans, counts, work.steps)
    elif done:
        rows = {name: (value, END_TO_END_UNITS[name], samples)
                for name, (value, samples) in end_to_end(ops, setups).items()}
    else:
        rows = {}
    machine = machine_record()
    for name, (value, unit, samples) in rows.items():
        print(f"{name:42s} {value:>16.6g} {unit:8s} n={samples}")
    # raw seconds behind the metrics, for reading; failed operations left out
    raw = {"cpu_s": [op.cpu_s for op in done], "wall_s": [op.wall_s for op in done],
           "yardstick_s": [op.yardstick_s for op in done],
           "setup_cpu_s": [s for s, y in setups], "yardstick_start_s": [y for s, y in setups]}
    for key, values in raw.items():
        if values:
            print(f"{key + ' (not a metric)':42s} {statistics.median(values):>16.6g} "
                  f"{'s':8s} n={len(values)}")
    print(f"{'fail_frac':42s} {failed / len(ops):>16.6g} {'ratio':8s} n={len(ops)}")
    for failure in failures:
        print(f"failure: {failure}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "machine": machine, "failures": failures,
        "op_wall_s": [op.wall_s for op in ops], "op_cpu_s": [op.cpu_s for op in ops],
        "op_yardstick_s": [op.yardstick_s for op in ops], "setup_cpu_s": raw["setup_cpu_s"],
        "setup_yardstick_s": raw["yardstick_start_s"], "traced_ops": traced,
        "metrics": {name: {"value": v, "unit": u, "samples": s}
                    for name, (v, u, s) in rows.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if recorder:
        (OUT_DIR / f"spans-{args.workload}.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op", "raised"],
            "in_process": recorder.spans,
            "walk_children": [ops[i].spans for i in traced],
        }))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, samples) in rows.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

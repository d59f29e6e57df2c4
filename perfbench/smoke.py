"""Smoke test for the benchmark itself, at tiny sizes; takes about a minute.

    python3 perfbench/smoke.py

Checks that
- every workload exits 0 and prints, as its last line, every metric that
  BENCHMARK.json names, with that metric's unit: the end-to-end metrics with
  --trace 0 and the per-layer metrics with --trace 1;
- a deliberately corrupted reference makes the full-engine operations fail;
- in a directory that holds only BENCHMARK.json and perfbench/, the benchmark
  exits nonzero without printing a result.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (after the path set-up above)


def result(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)], size="tiny")
    if code != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            got = result(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            units = {name: m["unit"] for name, m in got["metrics"].items()}
            if units != want:
                problems.append(f"{workload} --trace {trace}: metrics {units} != {want}")
            if not got["correct"] or got["failed"]:
                problems.append(f"{workload} --trace {trace}: failed operations: {got}")
            print(f"ok {workload} --trace {trace}: {got['attempted']} operations")

    import reference

    exact = reference.marked_probabilities
    reference.marked_probabilities = lambda *a: {s: p + 1e-3 for s, p in exact(*a).items()}
    try:
        for workload in ("trace-full", "stats-mc-full"):
            got = result(workload, 0)
            if got["correct"] or got["failed"] != got["attempted"]:
                problems.append(f"{workload}: a corrupted reference was not caught: {got}")
            else:
                print(f"ok {workload}: corrupted reference fails "
                      f"{got['failed']}/{got['attempted']} operations")
    finally:
        reference.marked_probabilities = exact

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok without src/: exit {proc.returncode}, nothing on stdout")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

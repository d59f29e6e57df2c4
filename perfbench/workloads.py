"""The three benchmark workloads: inputs from the seed, the timed operation, checks.

Every workload is closed loop with one client: an operation starts when the
previous one has ended.  The seed picks the marked vertices (so where they sit
in the grid varies) and the measurement seeds.  Every operation runs the `walk`
command line in a fresh interpreter, as users pay it.  Its cost is CPU time:
user plus system time of that interpreter, from `wait4`, plus the benchmark
process's own time for the `evolve_reduced` probes of `trace-reduced`.  So
time the host spends running other work is not charged to the program; the
wall-clock time is recorded beside it.  `calibrate` runs the yardstick
program (calibrate.py) at the size each workload names under "yardstick".

An operation fails on an exception, a nonzero exit, a wrong row count or
schema, or an oracle count other than 2 * steps per search.  On the
full-engine workloads it also fails when a p_marked differs from the mpmath
reference by more than `P_TOL`, or when the successes are outside
`binomial_ok`'s bound around the reference p_marked.  The reduced engine's
error is reported as p_marked_digits and never fails an operation: its
large-N defect must stay visible, not be hidden by a failure count.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from scatterwalk import reduced

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: largest accepted |p_marked - reference| on the full engine (float64 at
#: N <= 300 over <= 167 steps stays near 1e-13)
P_TOL = 1e-9
#: successes must lie within this many standard deviations of draws * p
BINOMIAL_SIGMAS = 6.0

STEP_HEADER = "step,p_marked,p_w1,p_w2,p_w3,p_w4,residual,norm_error"
STATS_HEADER = "j,probability,fraction"

#: "yardstick" is (N, STEPS, ROWS) of calibrate.py, chosen so that it does
#: the same kinds of work as the operation in about 60% of its time
SIZES = {
    "full": {
        "trace-full": {"n": 300, "k": 2, "yardstick": (300, 80, 100)},
        "stats-mc-full": {"n": 64, "k": 3, "runs": 2, "trials": 500,
                          "yardstick": (64, 8_000, 0)},
        "trace-reduced": {"n": 50_000, "k": 2, "stride": 211,
                          "probes": (10**7, 10**9, 10**11), "yardstick": (8, 0, 14_000)},
    },
    "tiny": {
        "trace-full": {"n": 30, "k": 2, "yardstick": (30, 20, 20)},
        "stats-mc-full": {"n": 16, "k": 3, "runs": 2, "trials": 50,
                          "yardstick": (16, 200, 0)},
        "trace-reduced": {"n": 2000, "k": 2, "stride": 7, "probes": (10**5, 10**7),
                          "yardstick": (8, 0, 500)},
    },
}


def binomial_ok(successes: int, draws: int, p: float) -> bool:
    spread = BINOMIAL_SIGMAS * math.sqrt(draws * p * (1.0 - p)) + 1.0
    return abs(successes - draws * p) <= spread


def marked_mass(state: np.ndarray, n: int, marked) -> float:
    """|psi|^2 on edges internal to `marked`, indexed by the packed layout
    index(m, l) = m*(N-1) + (l if l < m else l - 1), written out here."""
    index = [m * (n - 1) + (l if l < m else l - 1) for m in marked for l in marked if l != m]
    return float(np.sum(np.abs(np.asarray(state)[index]) ** 2))


@dataclass
class Op:
    """What one operation did and how it went."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: mean CPU seconds of the yardstick runs just before and after this one
    yardstick_s: float = 0.0
    rss_mb: float = 0.0
    work: int = 0
    errors: list = field(default_factory=list)
    p_errors: list = field(default_factory=list)
    bytes_out: int = 0
    quantum_calls: int = 0
    draws: int = 0
    successes: int = 0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


@dataclass
class Walk:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    spans: list
    counts: dict
    state: np.ndarray | None


def walk(argv: list[str], op: int, trace: bool) -> Walk:
    """Run `walk <argv>` in a fresh interpreter; time it and read its CPU time and peak RSS."""
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(ROOT / "perfbench" / "child.py"), "walk", str(OUT_DIR),
               str(op), str(int(trace)), "--", *argv]
    err_path = OUT_DIR / "child-stderr.txt"
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    spans, counts = [], {}
    span_path = OUT_DIR / f"spans-{op}.json"
    if trace and span_path.exists():
        with open(span_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        span_path.unlink()
        spans, counts = payload["spans"], payload["counts"]
    state = None
    state_path = OUT_DIR / f"state-{op}.npy"
    if state_path.exists():
        state = np.load(state_path)
        state_path.unlink()
    return Walk(proc.returncode, out.decode("utf-8"), stderr, wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, spans, counts, state)


def calibrate(size: tuple[int, int, int]) -> float:
    """CPU seconds of one run of the yardstick program in a fresh interpreter."""
    command = [sys.executable, str(ROOT / "perfbench" / "calibrate.py"), *map(str, size)]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    norm = out.rsplit(b"\n", 2)[-2] if out.count(b"\n") else b"nan"
    if os.waitstatus_to_exitcode(status) != 0 or not abs(float(norm) - 1.0) < 1e-9:
        raise RuntimeError(f"yardstick {size} failed: status {status}, norm {norm!r}")
    return usage.ru_utime + usage.ru_stime


def parse_csv(text: str, header: str) -> tuple[list[list[str]], dict[str, str], list[str]]:
    """Rows, `# summary` entries and schema errors of a `walk` CSV output."""
    lines = text.split("\n")
    errors = [] if lines[0] == header else [f"header {lines[0][:80]!r}"]
    width = header.count(",") + 1
    rows, summary = [], {}
    for line in lines[1:]:
        if line.startswith("# summary "):
            key, _, value = line[len("# summary "):].partition("=")
            summary[key] = value
        elif line:
            rows.append(line.split(","))
    if any(len(row) != width for row in rows):
        errors.append("row with the wrong number of fields")
    return rows, summary, errors


def _check_p(out: Op, err: float) -> None:
    """Record a full-engine p_marked error; beyond P_TOL the operation fails."""
    out.p_errors.append(err)
    if not err <= P_TOL:
        out.errors.append(f"p_marked off the reference by {err:.3e}")


class Workload:
    """Base: a seeded input stream and one timed operation per call of `run`."""

    name = ""
    #: what the operation imports, timed in set-up
    module = "scatterwalk.cli"

    def __init__(self, seed: int, size: str) -> None:
        self.rng = np.random.default_rng(seed)
        self.size = SIZES[size][self.name]

    def marked(self) -> list[int]:
        picked = self.rng.choice(self.size["n"], self.size["k"], replace=False)
        return sorted(int(v) for v in picked)

    def make_input(self):
        raise NotImplementedError

    def checked_steps(self):
        """Step counts whose p_marked the reference must supply."""
        return [self.steps]

    def reference(self) -> None:
        """Compute the mpmath reference; not part of set-up or of any timing."""
        import reference

        n, k = self.size["n"], self.size["k"]
        self.steps = reference.optimal_steps(n, k)
        self.p_ref = reference.marked_probabilities(n, k, self.checked_steps())
        self.p_opt = self.p_ref[self.steps]

    def run(self, op: int, trace: bool) -> Op:
        raise NotImplementedError

    def run_failures(self, ops: list[Op]) -> list[str]:
        """Checks over a whole run, beyond those of each operation."""
        return []


class WalkWorkload(Workload):
    """Base for operations that run the `walk` command line."""

    def walk(self, op: int, trace: bool) -> tuple[Walk, Op]:
        result = walk(self.make_input(), op, trace)
        out = Op(wall_s=result.wall_s, cpu_s=result.cpu_s, rss_mb=result.rss_mb,
                 bytes_out=len(result.stdout), spans=result.spans, counts=result.counts)
        if result.code != 0:
            out.errors.append(f"exit {result.code}: {result.stderr.strip()[-300:]}")
        return result, out

    def step_rows(self, result: Walk, out: Op) -> list[list[str]] | None:
        """Rows of a `walk run` output, or None if its shape is wrong."""
        rows, summary, out.errors = parse_csv(result.stdout, STEP_HEADER)
        if len(rows) != self.steps + 1:
            out.errors.append(f"{len(rows)} rows, expected {self.steps + 1}")
            return None
        n = self.size["n"]
        out.work = self.steps * n * (n - 1)
        out.quantum_calls = int(summary.get("quantum_calls", -1))
        if out.quantum_calls != 2 * self.steps:
            out.errors.append(f"{out.quantum_calls} oracle calls for {self.steps} steps")
        return rows

    def run_input(self, engine: str) -> list[str]:
        marked = ",".join(str(v) for v in self.marked())
        return ["run", "--engine", engine, "--n", str(self.size["n"]),
                "--marked-list", marked, "--steps", "auto"]


class TraceFull(WalkWorkload):
    """`walk run --engine full` with a seeded marked pair, one row per step."""

    name = "trace-full"

    def make_input(self):
        return self.run_input("full")

    def checked_steps(self):
        return range(self.steps + 1)

    def run(self, op: int, trace: bool) -> Op:
        result, out = self.walk(op, trace)
        if out.errors:
            return out
        rows = self.step_rows(result, out)
        if rows is None:
            return out
        _check_p(out, max(abs(float(row[1]) - self.p_ref[i]) for i, row in enumerate(rows)))
        if trace:
            calls = sum(1 for span in result.spans if span[0] == "core.apply_step")
            if calls != self.steps:
                out.errors.append(f"tracer saw {calls} apply_step calls for {self.steps} steps")
        return out


class StatsMcFull(WalkWorkload):
    """`walk stats --mode mc --engine full`: every trial runs a full search."""

    name = "stats-mc-full"

    def make_input(self):
        s = self.size
        return ["stats", "--mode", "mc", "--engine", "full", "--n", str(s["n"]),
                "--k", str(s["k"]), "--runs", str(s["runs"]), "--trials", str(s["trials"]),
                "--seed", str(int(self.rng.integers(2**31)))]

    def run(self, op: int, trace: bool) -> Op:
        s = self.size
        n, draws = s["n"], s["trials"] * s["runs"]
        result, out = self.walk(op, trace)
        if out.errors:
            return out
        rows, summary, out.errors = parse_csv(result.stdout, STATS_HEADER)
        total = sum(float(row[1]) for row in rows)
        if not rows or abs(total - 1.0) > 1e-9:
            out.errors.append(f"coverage probabilities sum to {total}")
        out.work = draws * self.steps * n * (n - 1)
        out.draws = draws
        out.quantum_calls = int(summary.get("oracle_calls", -1))
        if out.quantum_calls != draws * 2 * self.steps:
            out.errors.append(f"{out.quantum_calls} oracle calls for {draws} searches")
        out.successes = round(float(summary.get("success_rate", "nan")) * draws)
        if not binomial_ok(out.successes, draws, self.p_opt):
            out.errors.append(f"{out.successes}/{draws} successes against p={self.p_opt:.6f}")
        if result.state is None:
            out.errors.append("no measured state was captured")
            return out
        _check_p(out, abs(marked_mass(result.state, n, range(s["k"])) - self.p_opt))
        return out


class TraceReduced(WalkWorkload):
    """`walk run --engine reduced` at large N, plus `evolve_reduced` probes."""

    name = "trace-reduced"

    def __init__(self, seed: int, size: str) -> None:
        super().__init__(seed, size)
        self.offset = int(self.rng.integers(self.size["stride"]))

    def make_input(self):
        return self.run_input("reduced")

    def checked_steps(self):
        return {*range(self.offset, self.steps + 1, self.size["stride"]), self.steps}

    def reference(self) -> None:
        import reference

        super().reference()
        k = self.size["k"]
        self.probes = []
        for big_n in self.size["probes"]:
            steps = reference.optimal_steps(big_n, k)
            self.probes.append(
                (big_n, steps, reference.marked_probabilities(big_n, k, [steps])[steps]))

    def run(self, op: int, trace: bool) -> Op:
        k = self.size["k"]
        result, out = self.walk(op, trace)
        start, cpu_start = time.perf_counter(), time.process_time()
        probed = []
        try:
            for big_n, steps, _ in self.probes:
                step_op = reduced.reduced_operator(big_n, k, math.pi / 2)
                state = reduced.evolve_reduced(
                    reduced.reduced_initial_state(big_n, k), step_op, steps)
                probed.append(float(abs(state[3]) ** 2))
        except Exception as exc:  # an operation that raises is a failed operation
            out.errors.append(f"probe {type(exc).__name__}: {exc}")
        out.wall_s += time.perf_counter() - start
        out.cpu_s += time.process_time() - cpu_start
        if out.errors:
            return out
        rows = self.step_rows(result, out)
        if rows is None:
            return out
        # reported, never failed: the reduced engine's large-N error must show
        out.p_errors.extend(abs(float(rows[i][1]) - p) for i, p in self.p_ref.items())
        out.p_errors.extend(abs(p - ref) for p, (_, _, ref) in zip(probed, self.probes))
        return out


WORKLOADS = {cls.name: cls for cls in (TraceFull, StatsMcFull, TraceReduced)}

"""Outside-in tracer for the scatterwalk package.

`Tracer.install` replaces the public functions in `TRACED` at their module
attributes, so calls that `cli` and `stats` make through `core.apply_step`,
`reduced.project` and the like are recorded too.  Each call becomes one span
[name, start, end, parent span index, operation id, raised]; spans stay in
memory until the caller writes them out.  Counts of work are taken at the
same boundaries.  Nothing inside `src/` is modified.
"""

from __future__ import annotations

import functools
import importlib
import time

TRACED = (
    "core.apply_step",
    "core.evolve",
    "core.marked_probability",
    "reduced.project",
    "reduced.optimal_steps",
    "reduced.spectral_decompose",
    "reduced.evolve_reduced",
    "oracle.oracle_step",
    "oracle.classical_query_baseline",
    "stats.run_search",
    "stats.sample_measurement",
    "stats.coverage_distribution",
    "cli.main",
    "verify.run_checks",
)

KERNELS = ("core.apply_step", "core.evolve")
FIELDS = ("calls", "total_s", "self_s", "errors")


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _kernel_steps(name, args, kwargs) -> tuple[int, int]:
    """(steps, N) of one kernel call, read from its arguments."""
    config = _argument(args, kwargs, 1, "config")
    steps = 1 if name == "core.apply_step" else int(_argument(args, kwargs, 2, "steps"))
    return steps, config.n_vertices


class Tracer:
    """Span recorder; `op` tags every span with the operation that caused it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {"core.edge_updates": 0, "core.bytes_computed": 0}
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            module = importlib.import_module(f"scatterwalk.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(qualified, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        kernel = name in KERNELS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kernel:
                steps, n = _kernel_steps(name, args, kwargs)
                self.counts["core.edge_updates"] += steps * n * (n - 1)
                self.counts["core.bytes_computed"] += steps * 2 * n * n * 16
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.op, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced


def aggregate(spans, ops=None) -> dict[str, dict[str, float]]:
    """Per-function calls, total, self time and errors over `spans`.

    Self time is a span's duration minus the durations of its direct
    children; calls nest on one thread, so children never overlap.  Only
    spans whose operation id is in `ops` count, when `ops` is given.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, raised in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {name: dict.fromkeys(FIELDS, 0.0) for name in TRACED}
    for index, (name, start, end, parent, op, raised) in enumerate(spans):
        if ops is not None and op not in ops:
            continue
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[index]
        row["errors"] += int(raised)
    return table


def root_time(spans, ops=None) -> float:
    """Summed duration of spans with no traced parent."""
    return sum(end - start for name, start, end, parent, op, raised in spans
               if parent < 0 and (ops is None or op in ops))

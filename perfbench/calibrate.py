"""Yardstick program: a fixed amount of work shaped like a `walk` operation.

    calibrate.py N STEPS ROWS

Starts like `walk` (imports numpy and scipy.linalg), takes STEPS steps of a
matrix-free scattering kernel on an N x N grid, each with a finiteness
check, a phase sandwich and a pack and unpack, then builds ROWS records of
eight values, each from a small numpy vector, and renders them as CSV
through a per-value formatter.  The
last line of its output is the norm of the final state, which must be 1.
It does not use `scatterwalk`, so its cost does not change when the program
does.

The benchmark runs it between operations: the host's speed drifts by tens
of percent over minutes, and an operation's CPU time over the yardstick's,
run just before and after it, cancels most of that drift.  Changing this
file changes the scale of `cpu_ratio`; measure the parent commit again after
any change to it.
"""

from __future__ import annotations

import io
import sys

import numpy as np
import scipy.linalg  # noqa: F401  (imported for its start-up cost, as `walk` does)


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


def main(argv: list[str]) -> int:
    n, steps, rows = (int(a) for a in argv)
    t = 2.0 / (n - 1)
    mask = ~np.eye(n, dtype=bool)
    phase = np.ones(n * (n - 1), dtype=np.complex128)
    phase[: n - 1] = 1j
    state = np.full(n * (n - 1), 1.0 / np.sqrt(n * (n - 1)), dtype=np.complex128)
    for _ in range(steps):
        if not np.isfinite(state).all():
            raise ValueError("non-finite amplitude")
        grid = np.zeros((n, n), dtype=np.complex128)
        grid[mask] = state * phase
        grid = t * grid.sum(axis=0)[:, None] - grid.T
        state = grid[mask] * phase
    amplitudes = state[:4] * np.sqrt(n)
    records = []
    for row in range(rows):
        weights = np.abs(amplitudes * (1.0 + row * 1e-6)) ** 2
        records.append({"step": row, "p_marked": float(weights[3]), "p_w1": float(weights[0]),
                        "p_w2": float(weights[1]), "p_w3": float(weights[2]),
                        "p_w4": float(weights[3]), "residual": 0.0,
                        "norm_error": abs(float(weights.sum()) ** 0.5 - 1.0)})
    out = io.StringIO()
    for record in records:
        out.write(",".join(_fmt(v) for v in record.values()) + "\n")
    sys.stdout.write(out.getvalue())
    sys.stdout.write(f"{float(np.vdot(state, state).real):.17g}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

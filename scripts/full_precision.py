"""Worst |p_marked - mpmath| of the full engine's step records, over seeded marked sets.

    PYTHONPATH=src python scripts/full_precision.py [N:K:SETS ...]

For each case, SETS marked sets of K vertices out of N are drawn from
`random.Random(N)`, and each is walked for n_opt steps by
`reduced.step_records(core.apply_step, ...)`, the records that
`walk run --engine full --steps auto` prints.  Every row's p_marked is
compared with a 50-digit mpmath power of the 4x4 step, built from the
local scattering rules in `perfbench/reference.py`, not from the package.
Prints one Markdown table row per case: the worst and the median over the
sets of each set's worst row.  Run it with another checkout's `src` on
PYTHONPATH to measure that checkout.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402

from scatterwalk import core, reduced  # noqa: E402

CASES = ("12:2:60", "30:2:60", "100:2:60", "300:2:60", "1000:2:5", "200:4:20")


def worst_errors(n: int, k: int, sets: int) -> list[float]:
    """Each marked set's worst |p_marked - reference| over rows 0..n_opt."""
    steps = reduced.optimal_steps(n, k)
    exact = reference.marked_probabilities(n, k, range(steps + 1))
    expected = np.array([exact[i] for i in range(steps + 1)])
    draw = random.Random(n)
    worst = []
    for _ in range(sets):
        walk = core.WalkConfig(n, frozenset(draw.sample(range(n), k)), np.pi / 2)
        p_marked = reduced.step_records(core.apply_step, walk, steps)[2]
        worst.append(float(np.abs(p_marked - expected).max()))
    return worst


def main(cases) -> None:
    print("| N | K | marked sets | rows each | worst | median | CPU s |")
    print("|---|---|---|---|---|---|---|")
    for case in cases:
        n, k, sets = (int(part) for part in case.split(":"))
        start = time.process_time()
        worst = worst_errors(n, k, sets)
        print(f"| {n} | {k} | {sets} | {reduced.optimal_steps(n, k) + 1} | {max(worst):.2g} "
              f"| {statistics.median(worst):.2g} | {time.process_time() - start:.1f} |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or CASES)

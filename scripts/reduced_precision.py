"""|p_marked - mpmath| of the reduced engine at n_opt, for K = 2 and K = N-2.

    PYTHONPATH=src python scripts/reduced_precision.py [N ...]

For each N (default: 1e3, 1e5, ..., 1e13, 1e17, 1e20, 1e50, 1e100 and the
largest N whose N(N-1) fits a float), `evolve_reduced` takes the uniform
start through `reduced_operator(N, K, pi/2)` for n_opt steps, and its
p_marked = |c4|^2 is compared with `tests/helpers.mp_search_components`,
an mpmath power of the 4x4 step built from the local scattering rules, at
50 + 2 digits(N) decimal digits.  Prints one Markdown table row per N: the
error at K = 2 with its n_opt, and at K = N-2 (where n_opt is 1).  Run it
with another checkout's `src` on PYTHONPATH to measure that checkout.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import mp_search_components  # noqa: E402

from scatterwalk import reduced  # noqa: E402

LARGEST_N = math.isqrt(int(sys.float_info.max)) + 1
SIZES = (*(10**e for e in (3, 5, 7, 9, 11, 12, 13, 17, 20, 50, 100)), LARGEST_N)


def error_at_optimum(n: int, k: int) -> tuple[int, float]:
    """(n_opt, |p_marked - reference| after n_opt steps)."""
    steps = reduced.optimal_steps(n, k)
    state = reduced.evolve_reduced(reduced.reduced_initial_state(n, k),
                                   reduced.reduced_operator(n, k, math.pi / 2), steps)
    expected = abs(mp_search_components(n, k, steps, dps=50 + 2 * len(str(n)))[3]) ** 2
    return steps, abs(abs(state[3]) ** 2 - expected)


def main(sizes) -> None:
    print("| N | n_opt at K = 2 | K = 2 | K = N-2 |")
    print("|---|---|---|---|")
    for n in sizes:
        steps, small = error_at_optimum(n, 2)
        _, large = error_at_optimum(n, n - 2)
        print(f"| {n:.3g} | {steps:.4g} | {small:.2g} | {large:.2g} |", flush=True)


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or SIZES)

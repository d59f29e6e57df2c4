"""High-precision reference for p_marked, independent of the package.

The four edge classes of a walk with K marked vertices out of N are

    w1  unmarked -> marked     (K(N-K) edges)
    w2  marked -> unmarked     (K(N-K) edges)
    w3  unmarked -> unmarked   ((N-K)(N-K-1) edges)
    w4  marked -> marked       (K(K-1) edges)

A walker on edge (a, b) moves to (b, c) with amplitude -r if c == a and t
otherwise, t = 2/(N-1), r = 1 - t.  Summing those local rules over the
edges of one class and normalising gives the 4x4 step below, derived here
from the rules rather than taken from `scatterwalk.reduced`.  The search
phase is pi/2, so entering or leaving a w4 edge multiplies by exactly i.
Everything runs in mpmath at `DPS` decimal digits.
"""

from __future__ import annotations

import mpmath

DPS = 50


def _step(n: int, k: int) -> mpmath.matrix:
    t = mpmath.mpf(2) / (n - 1)
    r = 1 - t
    e = mpmath.mpc(0, 1)
    m = mpmath.matrix(4, 4)
    m[1, 0] = (n - k - 1) * t - r
    m[3, 0] = t * mpmath.sqrt((k - 1) * (n - k)) * e
    m[0, 1] = (k - 1) * t - r
    m[2, 1] = t * mpmath.sqrt(k * (n - k - 1))
    m[0, 2] = t * mpmath.sqrt(k * (n - k - 1))
    m[2, 2] = (n - k - 2) * t - r
    m[1, 3] = t * mpmath.sqrt((k - 1) * (n - k)) * e
    m[3, 3] = ((k - 2) * t - r) * e * e
    return m


def _start(n: int, k: int) -> mpmath.matrix:
    dim = mpmath.mpf(n) * (n - 1)
    sizes = (k * (n - k), k * (n - k), (n - k) * (n - k - 1), k * (k - 1))
    return mpmath.matrix([mpmath.sqrt(s / dim) for s in sizes])


def _power(m: mpmath.matrix, exponent: int) -> mpmath.matrix:
    result = mpmath.eye(4)
    while exponent:
        if exponent & 1:
            result = result * m
        m = m * m
        exponent >>= 1
    return result


def optimal_steps(n: int, k: int) -> int:
    """n_opt = round(pi / (4x)), x = sqrt(K(K-1))/(N-1), ties to even."""
    with mpmath.workdps(DPS):
        x = mpmath.sqrt(k * (k - 1)) / (n - 1)
        return int(mpmath.nint(mpmath.pi / (4 * x)))


def marked_probabilities(n: int, k: int, steps) -> dict[int, float]:
    """p_marked = |c4|^2 after each step count in `steps`, as floats."""
    wanted = sorted(set(int(s) for s in steps))
    out: dict[int, float] = {}
    with mpmath.workdps(DPS):
        m = _step(n, k)
        state = _start(n, k)
        powers: dict[int, mpmath.matrix] = {}
        at = 0
        for s in wanted:
            gap = s - at
            if gap not in powers:
                powers[gap] = _power(m, gap)
            state = powers[gap] * state
            at = s
            out[s] = float(abs(state[3]) ** 2)
    return out

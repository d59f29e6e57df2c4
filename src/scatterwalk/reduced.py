"""Four-dimensional reduction of the marked-subgraph walk.

With K marked vertices out of N, the walk started from the uniform edge
superposition never leaves the span of four symmetric vectors, one per
edge class:

    w1  uniform over edges from an unmarked vertex into a marked one,
    w2  uniform over edges from a marked vertex out to an unmarked one,
    w3  uniform over edges with both endpoints unmarked,
    w4  uniform over edges internal to the marked set.

Everything about the search (localization on w4, the optimal step count
n = pi/(4x) with x = sqrt(K(K-1))/(N-1), the phase dependence) can be
computed from the resulting 4x4 unitary, at cost independent of N.
Component order is always (w1, w2, w3, w4); the basis requires
2 <= K <= N-2 so that no class is empty.

`reduced_operator` returns that unitary as a read-only (4, 4) complex
array, and the spectral functions (`spectral_decompose`, which returns
an (eigenvalues, eigenvectors) pair, `evolve_reduced` and
`component_series`) take any such array.

`observe` reads one full-state grid into what a step record shows: the
class amplitudes, the norm of the component outside the subspace, the
marked-edge probability and the norm.  `read_strips` does the reading, in
strips along the grid's memory rows, so no leftover grid is built;
`observe` hands it the strips of a grid at rest, and
`core.step_grid(..., reader=read_strips)` those of the grid it steps, each
just before writing over it; `step_records`, the loop behind the full and
oracle engines' step records, steps with it, and `series_records` gives
the reduced engine's, from `component_series`.  `project` validates a grid.
N, K and step counts are read by `core.check_int`, so N >= 4, K >= 2 and
steps >= 0 are Python ints here; K <= N-2 and N(N-1) within the float
range are checked on top.
Every function here that reads a full state takes a grid.
"""

from __future__ import annotations

import math
import sys
import warnings
from bisect import bisect_left

import numpy as np

from . import core
from .core import WalkConfig

__all__ = [
    "reduced_operator",
    "reduced_initial_state",
    "observe",
    "read_strips",
    "step_records",
    "series_records",
    "project",
    "spectral_decompose",
    "evolve_reduced",
    "component_series",
    "asymptotic_amplitudes",
    "localization_rate",
    "optimal_steps",
]

#: warn about the closed-form asymptotics beyond this value of sqrt(x)
ASYMPTOTIC_QUALITY_THRESHOLD = 0.2

#: floor(pi * 10**_PI_DIGITS): 45 digits more than the 155 of the largest accepted N
_PI_DIGITS = 200
_PI = int("3141592653589793238462643383279502884197169399375105820974944592307816"
          "4062862089986280348253421170679821480865132823066470938446095505822317"
          "2535940812848111745028410270193852110555964462294895493038196")

def _check_range(n_vertices: int, k_marked: int) -> tuple[int, int]:
    n, k = core.check_int("n_vertices", n_vertices, 4), core.check_int("k_marked", k_marked, 2)
    if n * (n - 1) > sys.float_info.max:
        raise ValueError(f"reduction needs N(N-1) <= {sys.float_info.max:.3g}, "
                         f"got n_vertices={n}")
    if k > n - 2:
        raise ValueError(
            f"reduction needs 2 <= k_marked <= n_vertices - 2, "
            f"got k_marked={k} with n_vertices={n}"
        )
    return n, k


def reduced_operator(n_vertices: int, k_marked: int, phase: float) -> np.ndarray:
    """The read-only 4x4 complex step operator for (N, K, phi).

    Columns are the images of w1..w4 under one step: scattering mixes the
    cross classes w1/w2 with w3 and w4, and every transition into, out of,
    or back inside the marked class picks up e^{i*phi} or e^{2i*phi}.
    """
    n, k = _check_range(n_vertices, k_marked)
    phase = core.check_phase(phase)
    t, r = core.coefficients(n)
    e = np.exp(1j * phase)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[1, 0] = r - (k - 2) * t
    m[3, 0] = t * e * math.sqrt((k - 1) * (n - k))
    m[0, 1] = (k - 1) * t - r
    m[2, 1] = t * math.sqrt(k * (n - k - 1))
    m[0, 2] = t * math.sqrt(k * (n - k - 1))
    m[2, 2] = r - t * (k - 1)
    m[1, 3] = t * e * math.sqrt((k - 1) * (n - k))
    m[3, 3] = (t * (k - 2) - r) * e * e
    m.setflags(write=False)
    return m


def reduced_initial_state(n_vertices: int, k_marked: int) -> np.ndarray:
    """Uniform edge superposition expressed in the (w1..w4) basis."""
    n, k = _check_range(n_vertices, k_marked)
    dim = n * (n - 1)
    return np.array(
        [
            np.sqrt(k * (n - k) / dim),
            np.sqrt(k * (n - k) / dim),
            np.sqrt((n - k) * (n - k - 1) / dim),
            np.sqrt(k * (k - 1) / dim),
        ],
        dtype=np.complex128,
    )


def observe(grid: np.ndarray, marked: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """(c1..c4, residual, p_marked, norm) of an N x N grid, without validating it.

    `marked` is the sorted marked-vertex array, with 2 <= K <= N-2.  The
    grid is read by `read_strips` along its memory rows, so the record is
    the one a step with that reader gives of the grid it steps.
    """
    transposed = not grid.flags.c_contiguous
    rows = grid.T if transposed else grid
    height = core.strip_rows(len(rows))
    strips = ((start, rows[start:start + height]) for start in range(0, len(rows), height))
    return read_strips(grid, grid.sum(axis=0), marked, transposed, strips)


def read_strips(grid: np.ndarray, colsum: np.ndarray, marked: np.ndarray, transposed: bool,
                strips) -> tuple[np.ndarray, float, float, float]:
    """(c1..c4, residual, p_marked, norm) of an N x N grid, read strip by strip.

    `colsum` is grid.sum(axis=0); `strips` yields every (start, rows) in
    order, rows being the grid's rows start..stop, or its columns when
    `transposed`.  Each strip is centred on the class means of colsum,
    giving its squared distance from them (a norm of per-entry
    differences, not a difference of squared norms, which would bottom out
    near sqrt(eps)) and the sum of what is left, which keeps the digits of
    the total that colsum, adding N rows one by one, loses.  The
    parallel-axis term n_c |mu_c - centre_c|^2 then moves the distance
    onto the class means; the squared norm is its square plus sum |c_i|^2.
    """
    n, k = grid.shape[0], len(marked)
    inner = grid[marked[:, None], marked]
    p_marked = float((np.abs(inner) ** 2).sum())
    s4 = complex(inner.sum())
    s1 = complex(grid[:, marked].sum()) - s4  # unmarked source -> marked target
    s2 = complex(grid[marked].sum()) - s4  # marked source -> unmarked target
    sizes = (k * (n - k), k * (n - k), (n - k) * (n - k - 1), k * (k - 1))
    centres = [s / size for s, size in zip(
        (s1, s2, complex(colsum.sum()) - s1 - s2 - s4, s4), sizes)]
    # strip rows are the grid's targets when transposed, else its sources
    row_class, column_centre = (0, centres[1]) if transposed else (1, centres[0])
    row_centre = np.full(n, centres[row_class])  # by column, on marked rows
    row_centre[marked] = centres[3]
    work = np.empty((min(core.strip_rows(n), n), n), dtype=np.complex128)
    # one dot per row: below N = 5000 each is too short for OpenBLAS to wake
    # its threads, which would then spin through the rest of the pass
    pairs = work.view(np.float64)
    row_vectors, column_vectors = pairs[:, None, :], pairs[:, :, None]
    leftover_sq, left_sum = 0.0, 0.0
    vertices = marked.tolist()
    for start, strip in strips:
        h = len(strip)
        left = work[:h]
        np.subtract(strip, centres[2], out=left)
        left[:, marked] = strip[:, marked] - column_centre
        lo, hi = bisect_left(vertices, start), bisect_left(vertices, start + h)
        if hi > lo:
            local = marked[lo:hi] - start
            left[local] = strip[local] - row_centre
        left.reshape(-1)[start::n + 1] = 0.0  # the diagonal (m, m) is no edge
        leftover_sq += float(np.matmul(row_vectors[:h], column_vectors[:h]).sum())
        left_sum += left.sum()
    total = complex(left_sum) + sum(size * centre for size, centre in zip(sizes, centres))
    sums = (s1, s2, total - s1 - s2 - s4, s4)
    leftover_sq -= sum(size * abs(s / size - centre) ** 2
                       for s, size, centre in zip(sums, sizes, centres))
    leftover_sq = max(leftover_sq, 0.0)
    comps = [s / math.sqrt(size) for s, size in zip(sums, sizes)]
    norm_sq = leftover_sq + sum(c.real ** 2 + c.imag ** 2 for c in comps)
    return np.array(comps), math.sqrt(leftover_sq), p_marked, math.sqrt(norm_sq)


def step_records(step, walk, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(c1..c4, residual, p_marked, norm) columns of rows 0..steps of the uniform grid of
    `walk`, a `WalkConfig` or `OracleFunction`, stepped in place by `step(grid, walk,
    out=grid, reader=read_strips)`: row i is read by step i + 1, the last by `observe`."""
    _check_range(walk.n_vertices, len(walk.marked))
    steps = core.check_int("steps", steps, 0)
    grid = core.initial_grid(walk.n_vertices)
    comps = np.empty((steps + 1, 4), dtype=np.complex128)
    residual, p_marked, norm = np.empty((3, steps + 1))
    for i in range(steps):
        grid, (comps[i], residual[i], p_marked[i], norm[i]) = step(
            grid, walk, out=grid, reader=read_strips)
    comps[steps], residual[steps], p_marked[steps], norm[steps] = observe(grid, walk.marked)
    return comps, residual, p_marked, norm


def project(state: np.ndarray, config: WalkConfig) -> tuple[np.ndarray, float]:
    """Overlaps (c1..c4) of an N x N grid with the class basis, plus residual.

    Validates the grid once and reads it with `observe`.  The residual,
    the norm of the component outside the subspace, stays at rounding
    level for any state reachable from the uniform start.
    """
    _check_range(config.n_vertices, config.k_marked)
    grid = core.check_grid(state, config.n_vertices)
    comps, residual, _, _ = observe(grid, config.marked)
    return comps, residual


def _reduced_state(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (4,):
        raise ValueError(f"reduced state must have shape (4,), got {state.shape}")
    return state


def spectral_decompose(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a 4x4 reduced operator.

    The eigenvectors, returned as orthonormal columns, come from a general
    eigensolver and are orthonormalized by a QR factorization; the
    eigenspaces of a unitary (hence normal) matrix are mutually orthogonal,
    so the columns stay eigenvectors even when eigenvalues collide.  The
    eigenvalues are then read off as diag(V^H U V); their powers are taken
    as phases, so only their angles matter.  Any shape other than (4, 4)
    is refused, and so is a spectrum that strays off the unit circle by
    more than 1e-8 (a non-unitary operator).
    """
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (4, 4):
        raise ValueError(f"reduced operator must have shape (4, 4), got {op.shape}")
    vecs, _ = np.linalg.qr(np.linalg.eig(op)[1])
    eigenvalues = np.einsum("ij,ij->j", vecs.conj(), op @ vecs)
    if np.max(np.abs(np.abs(eigenvalues) - 1.0)) > 1e-8:
        raise ValueError("operator is not unitary: eigenvalues leave the unit circle")
    return eigenvalues, vecs


def _spectral_states(op: np.ndarray, state: np.ndarray, steps) -> np.ndarray:
    """Reduced state after `steps`, an int or an array of step counts, each eigenvalue's power
    taken as a phase exp(i n theta): a power lambda ** n would carry the rounding-level
    modulus error of lambda as |lambda| ** n."""
    state = _reduced_state(state)
    eigenvalues, vecs = spectral_decompose(op)
    powers = np.multiply.outer(np.asarray(steps, dtype=np.float64), np.angle(eigenvalues)) * 1j
    np.exp(powers, out=powers)
    powers *= vecs.conj().T @ state
    return powers @ vecs.T


def evolve_reduced(state: np.ndarray, op: np.ndarray, steps: int) -> np.ndarray:
    """State after `steps` applications of the 4x4 reduced operator `op`.

    Computed through the spectral decomposition, each eigenvalue's power
    taken as a phase, so the cost does not grow with the step count.
    """
    return _spectral_states(op, state, core.check_int("steps", steps, 0))


def component_series(op: np.ndarray, state: np.ndarray, horizon: int) -> np.ndarray:
    """Reduced state for every n = 0..horizon, shape (horizon+1, 4), through
    the same spectral phases as `evolve_reduced`, and validated as it is."""
    return _spectral_states(op, state, np.arange(core.check_int("horizon", horizon, 0) + 1))


def series_records(n_vertices: int, k_marked: int, phase: float,
                   steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`step_records`' (c1..c4, residual, p_marked, norm) columns of rows 0..steps, for the
    reduced engine: the `component_series` of the uniform start under
    `reduced_operator(N, K, phi)`, whose residual is 0.  The norm is Python's ** 0.5 of
    the left-to-right sum of the weights: numpy's 0.5-power is a sqrt, which rounds a sum
    of 1 - 2**-53 to another float."""
    steps = core.check_int("steps", steps, 0)
    comps = component_series(reduced_operator(n_vertices, k_marked, phase),
                             reduced_initial_state(n_vertices, k_marked), steps)
    weights = np.abs(comps) ** 2
    total = ((weights[:, 0] + weights[:, 1]) + weights[:, 2]) + weights[:, 3]
    norm = np.array([t ** 0.5 for t in total.tolist()])
    return comps, np.zeros(steps + 1), weights[:, 3], norm


def localization_rate(n_vertices: int, k_marked: int) -> float:
    """The rate x = sqrt(K(K-1))/(N-1) driving the w3 -> w4 rotation."""
    n, k = _check_range(n_vertices, k_marked)
    return math.sqrt(k * (k - 1)) / (n - 1)


def asymptotic_amplitudes(n_vertices: int, k_marked: int, steps: int) -> np.ndarray:
    """Closed-form large-N state (0, 0, cos 2xn, i sin 2xn) after n steps.

    Valid for phase pi/2 in the regime N >> K; the neglected terms are
    O(sqrt(x)), so a warning is emitted once sqrt(x) exceeds
    ASYMPTOTIC_QUALITY_THRESHOLD.
    """
    steps = core.check_int("steps", steps, 0)
    x = localization_rate(n_vertices, k_marked)
    if np.sqrt(x) > ASYMPTOTIC_QUALITY_THRESHOLD:
        warnings.warn(
            f"sqrt(x) = {np.sqrt(x):.3f} exceeds {ASYMPTOTIC_QUALITY_THRESHOLD}; "
            "the closed-form amplitudes neglect O(sqrt(x)) terms",
            stacklevel=2,
        )
    angle = 2.0 * x * steps
    return np.array([0.0, 0.0, np.cos(angle), 1j * np.sin(angle)], dtype=np.complex128)


def optimal_steps(n_vertices: int, k_marked: int) -> int:
    """Step count round(pi/(4x)) that maximizes the marked-edge probability at
    phase pi/2, the large-N optimum, rounded exactly for every accepted N.

    pi/(4x) = pi (N-1) / (4 sqrt(K(K-1))) is irrational, so never a tie, and
    rounds to (floor(pi/(2x)) + 1) // 2.  That floor is the integer square
    root of floor((pi (N-1))^2 / (4K(K-1))), taken in integers at both ends
    of pi's 200-digit bracket; the two agree unless pi/(2x) is within about
    1e-45 of an integer, which is refused.  A float pi/(4x) would round the
    wrong way wherever it lies within a few ulps of a half-integer, as at
    (N, K) = (3837116321772, 13).
    """
    n, k = _check_range(n_vertices, k_marked)
    scale = 4 * k * (k - 1) * 10 ** (2 * _PI_DIGITS)
    low, high = (math.isqrt((pi * (n - 1)) ** 2 // scale) for pi in (_PI, _PI + 1))
    if low != high:
        raise ValueError(f"pi to {_PI_DIGITS} digits cannot round the optimal step count "
                         f"at n_vertices={n}, k_marked={k}")
    return (low + 1) // 2

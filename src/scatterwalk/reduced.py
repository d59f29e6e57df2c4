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

`observe` reads one full-state grid into what a step record shows: the
class amplitudes, the norm of the component outside the subspace, the
marked-edge probability and the norm.  It takes the grid's marked rows,
columns and block once and sweeps the rest in strips of rows along the
grid's memory order, so no leftover grid is built; `project` is the
validated entry point to it.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import core
from .core import WalkConfig

__all__ = [
    "ReducedOperator",
    "SpectralDecomposition",
    "reduced_operator",
    "reduced_initial_state",
    "edge_class_indices",
    "observe",
    "project",
    "embed",
    "spectral_decompose",
    "evolve_reduced",
    "component_series",
    "asymptotic_amplitudes",
    "localization_rate",
    "optimal_steps",
]

#: warn about the closed-form asymptotics beyond this value of sqrt(x)
ASYMPTOTIC_QUALITY_THRESHOLD = 0.2

#: rows per strip of `observe`: 32 rows at N=1000 are 512 KB, inside L2
STRIP_ROWS = 32


def _check_range(n_vertices: int, k_marked: int) -> None:
    if n_vertices < 4:
        raise ValueError(f"reduction needs n_vertices >= 4, got {n_vertices}")
    if not 2 <= k_marked <= n_vertices - 2:
        raise ValueError(
            f"reduction needs 2 <= k_marked <= n_vertices - 2, "
            f"got k_marked={k_marked} with n_vertices={n_vertices}"
        )


@dataclass(frozen=True)
class ReducedOperator:
    """One walk step restricted to the (w1, w2, w3, w4) basis."""

    matrix: np.ndarray
    n_vertices: int
    k_marked: int
    phase: float


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-system of a reduced step operator.

    eigenvalues: the four unit-modulus eigenvalues.
    eigenvectors: orthonormal eigenvectors as columns (degenerate
        eigenspaces come out orthonormalized).
    overlaps: eigenvector overlaps with the reduced uniform start state
        of the (N, K) the operator was built for.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    overlaps: np.ndarray


def reduced_operator(n_vertices: int, k_marked: int, phase: float) -> ReducedOperator:
    """Build the 4x4 step operator for (N, K, phi).

    Columns are the images of w1..w4 under one step: scattering mixes the
    cross classes w1/w2 with w3 and w4, and every transition into, out of,
    or back inside the marked class picks up e^{i*phi} or e^{2i*phi}.
    """
    _check_range(n_vertices, k_marked)
    n, k = n_vertices, k_marked
    t, r = core.coefficients(n)
    e = np.exp(1j * float(phase))
    m = np.zeros((4, 4), dtype=np.complex128)
    m[1, 0] = r - (k - 2) * t
    m[3, 0] = t * e * np.sqrt((k - 1) * (n - k))
    m[0, 1] = (k - 1) * t - r
    m[2, 1] = t * np.sqrt(k * (n - k - 1))
    m[0, 2] = t * np.sqrt(k * (n - k - 1))
    m[2, 2] = r - t * (k - 1)
    m[1, 3] = t * e * np.sqrt((k - 1) * (n - k))
    m[3, 3] = (t * (k - 2) - r) * e * e
    m.setflags(write=False)
    return ReducedOperator(matrix=m, n_vertices=n, k_marked=k, phase=float(phase))


def reduced_initial_state(n_vertices: int, k_marked: int) -> np.ndarray:
    """Uniform edge superposition expressed in the (w1..w4) basis."""
    _check_range(n_vertices, k_marked)
    n, k = n_vertices, k_marked
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


def edge_class_indices(config: WalkConfig) -> tuple[np.ndarray, ...]:
    """Packed edge indices of the four classes, in (w1, w2, w3, w4) order."""
    _check_range(config.n_vertices, config.k_marked)
    marked = core.marked_vertices(config.marked_set)
    label = np.full((config.n_vertices,) * 2, 2)  # class index - 1 of every edge (m, l)
    label[:, marked] = 0  # into the marked set
    label[marked, :] = 1  # out of it
    label[marked[:, None], marked] = 3  # inside it
    packed = core.to_packed(label)
    return tuple(np.flatnonzero(packed == c) for c in range(4))


def observe(grid: np.ndarray, marked: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """(c1..c4, residual, p_marked, norm) of an N x N grid, without validating it.

    `marked` is the sorted marked-vertex array, with 2 <= K <= N-2.  Class
    sums come from the grid's marked rows, columns and K x K block, and
    p_marked from that block.  The residual, the norm of the component
    outside the subspace, and the norm are float64 dots summed over strips
    of at most STRIP_ROWS rows along the grid's memory order, so no N x N
    leftover is built.  The residual stays at rounding level for any state
    reachable from the uniform start.
    """
    n, k = grid.shape[0], len(marked)
    block = (marked[:, None], marked)
    inner = grid[block]
    s4 = inner.sum()
    s1 = grid[:, marked].sum() - s4  # unmarked source -> marked target
    s2 = grid[marked, :].sum() - s4  # marked source -> unmarked target
    sums = np.array([s1, s2, grid.sum() - s1 - s2 - s4, s4])
    sizes = np.array([k * (n - k), k * (n - k), (n - k) * (n - k - 1), k * (k - 1)])
    means = sums / sizes
    # strips run along memory rows: the rows of the grid, or its columns
    # when it is a transposed view, which swaps the means of w1 and w2; any
    # other strided grid is copied once, as the float64 dots need rows
    if grid.flags.f_contiguous and not grid.flags.c_contiguous:
        rows, row_mean, col_mean = grid.T, means[0], means[1]
    else:
        rows, row_mean, col_mean = np.ascontiguousarray(grid), means[1], means[0]
    work = np.empty((min(STRIP_ROWS, n), n), dtype=np.complex128)
    leftover_sq = norm_sq = 0.0
    vertices = marked.tolist()
    for start in range(0, n, STRIP_ROWS):
        strip = rows[start:start + STRIP_ROWS]
        left = work[:len(strip)]
        # norm of the leftover component, not a difference of squared norms,
        # which would bottom out near sqrt(eps)
        np.subtract(strip, means[2], out=left)
        left[:, marked] = strip[:, marked] - col_mean
        lo, hi = bisect_left(vertices, start), bisect_left(vertices, start + len(strip))
        if hi > lo:
            local = marked[lo:hi] - start
            left[local] = strip[local] - row_mean
            left[local[:, None], marked] = strip[local[:, None], marked] - means[3]
        flat = left.reshape(-1)
        flat[start::n + 1] = 0.0  # the diagonal (m, m) is no edge
        flat = flat.view(np.float64)
        leftover_sq += flat @ flat
        flat = strip.reshape(-1).view(np.float64)
        norm_sq += flat @ flat
    p_marked = float(np.sum(np.abs(inner) ** 2))
    return sums / np.sqrt(sizes), math.sqrt(leftover_sq), p_marked, math.sqrt(norm_sq)


def project(state: np.ndarray, config: WalkConfig) -> tuple[np.ndarray, float]:
    """Overlaps (c1..c4) of a full state (either layout) with the class basis, plus residual.

    Validates the state once and reads it with `observe`.  The residual,
    the norm of the component outside the subspace, stays at rounding
    level for any state reachable from the uniform start.
    """
    _check_range(config.n_vertices, config.k_marked)
    grid = core.to_grid(state, config.n_vertices)
    comps, residual, _, _ = observe(grid, core.marked_vertices(config.marked_set))
    return comps, residual


def embed(reduced: np.ndarray, config: WalkConfig) -> np.ndarray:
    """Expand (c1..c4) into the full edge-state vector sum_i c_i w_i."""
    reduced = np.asarray(reduced, dtype=np.complex128)
    if reduced.shape != (4,):
        raise ValueError(f"reduced state must have shape (4,), got {reduced.shape}")
    classes = edge_class_indices(config)
    state = np.zeros(core.n_edge_states(config.n_vertices), dtype=np.complex128)
    for comp, idx in zip(reduced, classes):
        state[idx] = comp / np.sqrt(len(idx))
    return state


def spectral_decompose(op: ReducedOperator) -> SpectralDecomposition:
    """Eigenvalues and orthonormal eigenvectors of a reduced operator.

    The eigenvectors from a general eigensolver are orthonormalized by a QR
    factorization; the eigenspaces of a unitary (hence normal) matrix are
    mutually orthogonal, so the columns stay eigenvectors even when
    eigenvalues collide.  The eigenvalues are then read off as diag(V^H U V).
    Inputs whose spectrum strays off the unit circle by more than 1e-8 are
    rejected as non-unitary; the rest are divided by their modulus, since a
    modulus error of eps grows to n*eps after n steps.
    """
    vecs, _ = np.linalg.qr(np.linalg.eig(op.matrix)[1])
    eigenvalues = np.einsum("ij,ij->j", vecs.conj(), op.matrix @ vecs)
    modulus = np.abs(eigenvalues)
    if np.max(np.abs(modulus - 1.0)) > 1e-8:
        raise ValueError("operator is not unitary: eigenvalues leave the unit circle")
    overlaps = vecs.conj().T @ reduced_initial_state(op.n_vertices, op.k_marked)
    return SpectralDecomposition(
        eigenvalues=eigenvalues / modulus, eigenvectors=vecs, overlaps=overlaps
    )


def evolve_reduced(state: np.ndarray, op: ReducedOperator, steps: int) -> np.ndarray:
    """State after `steps` applications of the reduced operator.

    Computed through the spectral decomposition, so the cost does not grow
    with the step count.
    """
    steps = core.check_steps(steps)
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (4,):
        raise ValueError(f"reduced state must have shape (4,), got {state.shape}")
    spec = spectral_decompose(op)
    coeff = spec.eigenvectors.conj().T @ state
    return spec.eigenvectors @ (spec.eigenvalues ** steps * coeff)


def component_series(op: ReducedOperator, state: np.ndarray, horizon: int) -> np.ndarray:
    """Reduced state for every n = 0..horizon, shape (horizon+1, 4)."""
    spec = spectral_decompose(op)
    coeff = spec.eigenvectors.conj().T @ np.asarray(state, dtype=np.complex128)
    powers = spec.eigenvalues[None, :] ** np.arange(horizon + 1)[:, None]
    return (powers * coeff[None, :]) @ spec.eigenvectors.T


def localization_rate(n_vertices: int, k_marked: int) -> float:
    """The rate x = sqrt(K(K-1))/(N-1) driving the w3 -> w4 rotation."""
    _check_range(n_vertices, k_marked)
    return float(np.sqrt(k_marked * (k_marked - 1)) / (n_vertices - 1))


def asymptotic_amplitudes(n_vertices: int, k_marked: int, steps: int) -> np.ndarray:
    """Closed-form large-N state (0, 0, cos 2xn, i sin 2xn) after n steps.

    Valid for phase pi/2 in the regime N >> K; the neglected terms are
    O(sqrt(x)), so a warning is emitted once sqrt(x) exceeds
    ASYMPTOTIC_QUALITY_THRESHOLD.
    """
    x = localization_rate(n_vertices, k_marked)
    if np.sqrt(x) > ASYMPTOTIC_QUALITY_THRESHOLD:
        warnings.warn(
            f"sqrt(x) = {np.sqrt(x):.3f} exceeds {ASYMPTOTIC_QUALITY_THRESHOLD}; "
            "the closed-form amplitudes neglect O(sqrt(x)) terms",
            stacklevel=2,
        )
    angle = 2.0 * x * steps
    return np.array([0.0, 0.0, np.cos(angle), 1j * np.sin(angle)], dtype=np.complex128)


def optimal_steps(
    n_vertices: int,
    k_marked: int,
    mode: str = "formula",
    scan_horizon: int | None = None,
) -> int:
    """Step count that maximizes the marked-edge probability.

    mode="formula" returns round(pi/(4x)) (ties to even), the large-N
    optimum.  mode="scan" brute-forces argmax_n |c4(n)|^2 at phase pi/2
    over n <= scan_horizon (default: twice the formula value) and is the
    reference the formula is checked against.
    """
    n_opt = round(np.pi / (4 * localization_rate(n_vertices, k_marked)))
    if mode == "formula":
        return n_opt
    if mode != "scan":
        raise ValueError(f"mode must be 'formula' or 'scan', got {mode!r}")
    horizon = 2 * n_opt if scan_horizon is None else int(scan_horizon)
    if horizon < 2 * n_opt:
        raise ValueError(f"scan_horizon {horizon} too small: need at least {2 * n_opt}")
    op = reduced_operator(n_vertices, k_marked, np.pi / 2)
    series = component_series(op, reduced_initial_state(n_vertices, k_marked), horizon)
    return int(np.argmax(np.abs(series[:, 3]) ** 2))

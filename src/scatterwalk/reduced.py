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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import core
from .core import WalkConfig

__all__ = [
    "ReducedOperator",
    "SpectralDecomposition",
    "AsymptoticParams",
    "reduced_operator",
    "reduced_initial_state",
    "edge_class_indices",
    "project",
    "embed",
    "spectral_decompose",
    "evolve_reduced",
    "component_series",
    "asymptotic_amplitudes",
    "localization_rate",
    "asymptotic_params",
    "optimal_steps",
]

#: warn about the closed-form asymptotics beyond this value of sqrt(x)
ASYMPTOTIC_QUALITY_THRESHOLD = 0.2


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


class AsymptoticParams(NamedTuple):
    x: float
    n_opt: int


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


def project(state: np.ndarray, config: WalkConfig) -> tuple[np.ndarray, float]:
    """Overlaps (c1..c4) of a full state (either layout) with the class basis, plus residual.

    Class sums come from the grid's marked rows, columns and block.  The
    residual, the norm of the component outside the subspace, stays at
    rounding level for any state reachable from the uniform start.
    """
    n, k = config.n_vertices, config.k_marked
    _check_range(n, k)
    grid = core.to_grid(state, n)
    marked = core.marked_vertices(config.marked_set)
    block = (marked[:, None], marked)
    s4 = grid[block].sum()
    s1 = grid[:, marked].sum() - s4  # unmarked source -> marked target
    s2 = grid[marked, :].sum() - s4  # marked source -> unmarked target
    sums = np.array([s1, s2, grid.sum() - s1 - s2 - s4, s4])
    sizes = np.array([k * (n - k), k * (n - k), (n - k) * (n - k - 1), k * (k - 1)])
    means = sums / sizes
    # norm of the leftover component, not a difference of squared norms,
    # which would bottom out near sqrt(eps)
    leftover = grid - means[2]
    leftover[:, marked] = grid[:, marked] - means[0]
    leftover[marked, :] = grid[marked, :] - means[1]
    leftover[block] = grid[block] - means[3]
    np.fill_diagonal(leftover, 0.0)
    residual = np.linalg.norm(leftover.ravel(order="K").view(np.float64))  # one contiguous dot
    return sums / np.sqrt(sizes), float(residual)


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

    Uses a complex Schur factorization, which for a unitary (hence normal)
    matrix is an eigendecomposition with orthonormal columns even when
    eigenvalues collide.  Inputs whose spectrum strays off the unit circle
    by more than 1e-8 are rejected as non-unitary.
    """
    tri, vecs = scipy.linalg.schur(op.matrix, output="complex")
    eigenvalues = np.diag(tri).copy()
    if np.max(np.abs(np.abs(eigenvalues) - 1.0)) > 1e-8:
        raise ValueError("operator is not unitary: eigenvalues leave the unit circle")
    overlaps = vecs.conj().T @ reduced_initial_state(op.n_vertices, op.k_marked)
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=vecs, overlaps=overlaps)


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


def asymptotic_params(n_vertices: int, k_marked: int) -> AsymptoticParams:
    x = localization_rate(n_vertices, k_marked)
    return AsymptoticParams(x=x, n_opt=round(np.pi / (4 * x)))


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
    params = asymptotic_params(n_vertices, k_marked)
    if mode == "formula":
        return params.n_opt
    if mode != "scan":
        raise ValueError(f"mode must be 'formula' or 'scan', got {mode!r}")
    horizon = 2 * params.n_opt if scan_horizon is None else int(scan_horizon)
    if horizon < 2 * params.n_opt:
        raise ValueError(
            f"scan_horizon {horizon} too small: need at least {2 * params.n_opt}"
        )
    op = reduced_operator(n_vertices, k_marked, np.pi / 2)
    series = component_series(op, reduced_initial_state(n_vertices, k_marked), horizon)
    return int(np.argmax(np.abs(series[:, 3]) ** 2))

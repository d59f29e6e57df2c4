"""Full-state engine for the scattering walk on a complete graph.

The walker lives on directed edges of the complete graph on N vertices.
One step scatters every amplitude at its destination vertex with the
Grover-type local unitary (reflection -r back along the incoming edge,
transmission t to every other outgoing edge, t = 2/(N-1), r = 1 - t) and
applies a phase e^{i*phi} whenever the walker enters or leaves an edge
whose endpoints both belong to the marked vertex set.

State layout.  Internally a state is an N x N complex grid, A[m, l] the
amplitude of "traveling from m to l", with a zero diagonal.  Packed
vectors exist only at the API boundary: the N(N-1) amplitudes in
canonical order index(m, l) = m*(N-1) + (l if l < m else l - 1), i.e. the
grid row-major without its diagonal.  Every public function taking a
state accepts either layout, unpacks a packed one once on entry and
returns (or reads) the layout it was given.  A returned grid may be a
transposed view: indexing is unaffected, only the memory order alternates.

The step is matrix-free and O(N^2).  With colsum[l] = sum_k A[k, l] the
unmarked step is out[l, m] = t * colsum[l] - A[m, l], folding the
reflection into the transmission by r + t = 1.  The kernel writes
out^T = t*colsum[None, :] - A, reading A in its own memory order, and
returns the free view out.  The marked phase is a diagonal sandwich
(e^{i*phi} on every marked edge before and after scattering, which gives
e^{2i*phi} on reflection back into a marked edge and e^{i*phi} on entry
or exit), applied as a K x K block product on the marked rows and
columns with colsum corrected on the marked columns; then the diagonal
is re-zeroed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "WalkConfig",
    "ScatteringCoefficients",
    "coefficients",
    "edge_index",
    "edge_endpoints",
    "edge_endpoint_arrays",
    "n_edge_states",
    "to_grid",
    "to_packed",
    "initial_state",
    "check_steps",
    "marked_vertices",
    "step_grid",
    "apply_step",
    "evolve",
    "marked_probability",
    "marked_edge_indices",
    "dense_step_operator",
]


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters: graph size N, marked vertex set, edge phase phi.

    The marked set may be empty (unmarked walk) or a singleton, in which
    case no edge is marked and the phase never fires.  Vertices are the
    integers 0..N-1.
    """

    n_vertices: int
    marked_set: frozenset[int] = field(default_factory=frozenset)
    phase: float = 0.0

    def __post_init__(self) -> None:
        n = self.n_vertices
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise TypeError(f"n_vertices must be an integer, got {n!r}")
        if n < 3:
            raise ValueError(f"n_vertices must be >= 3, got {n}")
        marked = frozenset(int(v) for v in self.marked_set)
        if any(v < 0 or v >= n for v in marked):
            raise ValueError(f"marked vertices must lie in 0..{n - 1}: {sorted(marked)}")
        object.__setattr__(self, "marked_set", marked)
        object.__setattr__(self, "phase", float(self.phase))

    @property
    def k_marked(self) -> int:
        return len(self.marked_set)


class ScatteringCoefficients(NamedTuple):
    """Transmission/reflection pair (t, r) of the local scattering unitary."""

    t: float
    r: float


def coefficients(n_vertices: int) -> ScatteringCoefficients:
    """Return t = 2/(N-1) and r = 1 - t for a degree-(N-1) vertex.

    Rejects N < 3: a degree-1 vertex has no nontrivial scattering.
    """
    if n_vertices < 3:
        raise ValueError(f"need n_vertices >= 3, got {n_vertices}")
    t = 2.0 / (n_vertices - 1)
    return ScatteringCoefficients(t=t, r=1.0 - t)


def n_edge_states(n_vertices: int) -> int:
    return n_vertices * (n_vertices - 1)


def edge_index(n_vertices: int, source: int, target: int) -> int:
    """Canonical index of the directed edge state (source -> target)."""
    if source == target:
        raise ValueError(f"no edge state ({source}, {target}): endpoints coincide")
    if not (0 <= source < n_vertices and 0 <= target < n_vertices):
        raise ValueError(f"endpoints ({source}, {target}) out of range for N={n_vertices}")
    return source * (n_vertices - 1) + (target if target < source else target - 1)


def edge_endpoints(n_vertices: int, index: int) -> tuple[int, int]:
    """Inverse of edge_index."""
    if not (0 <= index < n_edge_states(n_vertices)):
        raise ValueError(f"edge index {index} out of range for N={n_vertices}")
    source, rem = divmod(index, n_vertices - 1)
    target = rem if rem < source else rem + 1
    return source, target


@lru_cache(maxsize=32)
def edge_endpoint_arrays(n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """(sources, targets) for every packed index, in canonical order."""
    ends = tuple(to_packed(axis) for axis in np.indices((n_vertices, n_vertices)))
    for axis in ends:
        axis.setflags(write=False)
    return ends


@lru_cache(maxsize=32)
def _offdiag_mask(n_vertices: int) -> np.ndarray:
    mask = ~np.eye(n_vertices, dtype=bool)
    mask.setflags(write=False)
    return mask


def to_grid(state: np.ndarray, n_vertices: int) -> np.ndarray:
    """Validated N x N grid A[m, l] = amplitude(m -> l) of a state in either layout.

    A packed vector is unpacked into a fresh grid; a grid (zero diagonal)
    is returned as given, not copied.
    """
    state = np.asarray(state, dtype=np.complex128)
    n, dim = n_vertices, n_edge_states(n_vertices)
    if state.shape not in ((n, n), (dim,)):
        raise ValueError(f"state has shape {state.shape}, expected ({dim},) or ({n}, {n})")
    if state.ndim == 2 and state.diagonal().any():
        raise ValueError("grid state has a nonzero diagonal; no edge (m, m) exists")
    # read as float64 pairs, which halves the time of a complex isfinite
    if not np.isfinite(state.ravel(order="K").view(np.float64)).all():
        raise ValueError("state contains non-finite amplitudes")
    if state.ndim == 2:
        return state
    grid = np.zeros((n, n), dtype=np.complex128)
    grid[_offdiag_mask(n)] = state
    return grid


def to_packed(grid: np.ndarray) -> np.ndarray:
    """N x N grid (any memory layout) -> packed vector in canonical order."""
    return grid[_offdiag_mask(grid.shape[0])]


def initial_state(n_vertices: int) -> np.ndarray:
    """Equal superposition of all N(N-1) directed edge states."""
    if n_vertices < 3:
        raise ValueError(f"need n_vertices >= 3, got {n_vertices}")
    dim = n_edge_states(n_vertices)
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)


def check_steps(steps) -> int:
    """`steps` as an int; rejects bools, NaN, infinities, fractions and negatives."""
    if (isinstance(steps, (bool, np.bool_)) or steps != steps or abs(steps) == math.inf
            or steps < 0 or steps != int(steps)):
        raise ValueError(f"steps must be a nonnegative integer, got {steps!r}")
    return int(steps)


def marked_vertices(marked_set) -> np.ndarray:
    """Sorted marked-vertex array: every marked block and class index derives from it."""
    return np.array(sorted(marked_set), dtype=np.intp)


def step_grid(
    grid: np.ndarray, marked: np.ndarray, factor: complex = 1.0, out: np.ndarray | None = None
) -> np.ndarray:
    """One walk step on an N x N grid: the kernel behind every full-state path.

    `marked` is a sorted marked-vertex array, `factor` the phase on edges
    inside it.  Writes out^T into `out` (default: a fresh array laid out
    like `grid`; passing `grid` steps in place) and returns the view out.
    `grid` is not validated, copied or, unless it is `out`, modified.
    """
    t = coefficients(grid.shape[0]).t
    colsum = grid.sum(axis=0)
    shift = len(marked) >= 2 and factor != 1.0
    if shift:
        block = (marked[:, None], marked)
        inner = grid[block]
        colsum[marked] += (factor - 1.0) * inner.sum(axis=0)
    colsum *= t
    if out is None:
        out = np.empty_like(grid)
    np.subtract(colsum, grid, out=out)
    if shift:
        out[block] = factor * colsum[marked] - factor * factor * inner
    np.fill_diagonal(out, 0.0)
    return out.T


def apply_step(state: np.ndarray, config: WalkConfig) -> np.ndarray:
    """One walk step, marked phases included; returns the input's layout, input unmodified."""
    grid = to_grid(state, config.n_vertices)
    packed = np.ndim(state) == 1
    out = step_grid(grid, marked_vertices(config.marked_set), cmath.exp(1j * config.phase),
                    out=grid if packed else None)
    return to_packed(out) if packed else out


def evolve(state: np.ndarray, config: WalkConfig, steps: int) -> np.ndarray:
    """`steps` walk steps on one grid, in place; returns the input's layout (a copy at 0)."""
    steps = check_steps(steps)
    packed = np.ndim(state) == 1
    grid = to_grid(state, config.n_vertices)
    grid = grid if packed else grid.copy()
    marked, factor = marked_vertices(config.marked_set), cmath.exp(1j * config.phase)
    for _ in range(steps):
        grid = step_grid(grid, marked, factor, out=grid)
    return to_packed(grid) if packed else grid


def marked_edge_indices(config: WalkConfig) -> np.ndarray:
    """Packed indices of all directed edges internal to the marked set, ascending."""
    marked = marked_vertices(config.marked_set)
    inside = np.zeros((config.n_vertices,) * 2, dtype=bool)
    inside[marked[:, None], marked] = True
    return np.flatnonzero(to_packed(inside))


def marked_probability(state: np.ndarray, config: WalkConfig) -> float:
    """Probability of measuring the walker on an edge internal to the marked set."""
    grid = to_grid(state, config.n_vertices)
    marked = marked_vertices(config.marked_set)
    return float(np.sum(np.abs(grid[marked[:, None], marked]) ** 2))


def dense_step_operator(config: WalkConfig) -> np.ndarray:
    """Explicit N(N-1) x N(N-1) matrix of one walk step.

    Assembled entry by entry from (t, r), with the marked phase applied as
    diagonal factors on marked in-edges and marked out-edges.  Exists for
    verification: unitarity of this matrix is the operational check on the
    coefficient pair, and it must agree with the matrix-free apply_step.
    Cost O(N^4); intended for small N.
    """
    n = config.n_vertices
    t, r = coefficients(n)
    dim = n_edge_states(n)
    op = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            col = edge_index(n, k, l)
            for m in range(n):
                if m == l:
                    continue
                op[edge_index(n, l, m), col] = -r if m == k else t
    if config.k_marked >= 2 and config.phase != 0.0:
        factor = cmath.exp(1j * config.phase)
        diag = np.ones(dim, dtype=np.complex128)
        diag[marked_edge_indices(config)] = factor
        op = diag[:, None] * op * diag[None, :]
    return op

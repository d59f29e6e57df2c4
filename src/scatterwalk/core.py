"""Full-state engine for the scattering walk on a complete graph.

The walker lives on directed edges of the complete graph on N vertices.
One step scatters every amplitude at its destination vertex with the
Grover-type local unitary (reflection -r back along the incoming edge,
transmission t to every other outgoing edge, t = 2/(N-1), r = 1 - t) and
applies a phase e^{i*phi} whenever the walker enters or leaves an edge
whose endpoints both belong to the marked vertex set.

State layout.  A state is an N x N complex grid, A[m, l] the amplitude
of "traveling from m to l", with a zero diagonal; every function that
steps or reads a state takes a grid only (`check_grid`).  A returned grid
may be a transposed view: indexing is unaffected, only the memory order
alternates.  `dense_step_operator` acts on the cells of `grid.ravel()`.
The packed edge order that a measurement reads belongs to `stats` alone.

Input contract.  Every graph size, vertex, count and step number in the
package is read by `check_int`, defined without numpy in `contract` and
re-exported here, which returns a Python int (so a narrow numpy integer
cannot overflow N(N-1)) and refuses a bool, a float or any other
non-integer, and a value below the bound, with one `ValueError` naming the
parameter (`check_grid` too, at N >= 2).  A marked set is read once, by
`check_marked`, into a frozenset and the sorted, read-only vertex array
`marked` that every marked block and class index derives from, once for a
walk and its oracle: `oracle.OracleFunction` is the search's `WalkConfig`.
A phase is read by `check_phase` into a finite Python float.

The step is matrix-free and O(N^2).  With colsum[l] = sum_k A[k, l] the
unmarked step is out[l, m] = t * colsum[l] - A[m, l], folding the
reflection into the transmission by r + t = 1.  The kernel writes
out^T = t*colsum[None, :] - A, reading A in its own memory order, by one
subtraction per strip, and returns the free view out.  The marked phase
is a diagonal sandwich (e^{i*phi} on every marked edge before and after
scattering, which gives e^{2i*phi} on reflection back into a marked edge
and e^{i*phi} on entry or exit), applied with colsum corrected on the
marked columns and as a K x K block, which is written once, after the
last strip, and then the diagonal is zeroed, both by fancy index, right
in any memory order.  Every step reads finiteness from colsum: a
non-finite amplitude makes its column sum non-finite, and only then is
the grid checked entry by entry, before anything is written.

Every step, and every record of a grid, walks the grid's memory rows in
the strips of `strips`, decided here alone.  A step can be observed in the
pass that makes it: it hands each strip, just before it is written over,
to a reader (`reduced.read_strips`), with the column sums it has taken.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .contract import check_int

__all__ = [
    "WalkConfig",
    "ScatteringCoefficients",
    "coefficients",
    "check_grid",
    "initial_grid",
    "check_int",
    "check_phase",
    "check_marked",
    "strips",
    "step_grid",
    "apply_step",
    "evolve",
    "marked_probability",
    "dense_step_operator",
]


def check_phase(value) -> float:
    """`value` as a finite Python float; refuses a non-real or non-finite one, naming `phase`."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        phase = float(value) if real else math.nan
    except OverflowError:  # an int past the float range
        phase = math.nan
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite and real, got {value!r}")
    return phase


def check_marked(n_vertices: int, vertices) -> tuple[frozenset[int], np.ndarray]:
    """(membership set, sorted read-only intp array) of marked vertices in 0..N-1."""
    members = frozenset(check_int("marked vertex", v, 0) for v in vertices)
    if members and max(members) >= n_vertices:
        raise ValueError(f"marked vertex {max(members)} out of range for N={n_vertices}")
    marked = np.array(sorted(members), dtype=np.intp)
    marked.setflags(write=False)
    return members, marked


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters: graph size N, marked vertex set, edge phase phi.

    The marked set may be empty (unmarked walk) or a singleton, in which
    case no edge is marked and the phase never fires.  Vertices are the
    integers 0..N-1; `marked` is their sorted array.
    """

    n_vertices: int
    marked_set: frozenset[int] = field(default_factory=frozenset)
    phase: float = 0.0
    marked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = check_int("n_vertices", self.n_vertices, 3)
        object.__setattr__(self, "n_vertices", n)
        for name, value in zip(("marked_set", "marked"), check_marked(n, self.marked_set)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "phase", check_phase(self.phase))

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
    t = 2.0 / (check_int("n_vertices", n_vertices, 3) - 1)
    return ScatteringCoefficients(t=t, r=1.0 - t)


def check_grid(state: np.ndarray, n_vertices: int, check_finite: bool = True) -> np.ndarray:
    """`state` as a validated N x N complex grid, returned as given, not copied.

    Refuses other shapes, a packed vector included, and a nonzero diagonal;
    check_finite=False leaves the amplitudes to the caller, as the steps do.
    """
    n_vertices = check_int("n_vertices", n_vertices, 2)
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (n_vertices,) * 2:
        raise ValueError(f"state has shape {state.shape}, expected {(n_vertices,) * 2}")
    if state.diagonal().any():
        raise ValueError("grid state has a nonzero diagonal; no edge (m, m) exists")
    if check_finite:
        _check_finite(state)
    return state


def _check_finite(state: np.ndarray) -> None:
    # read as float64 pairs, which halves the time of a complex isfinite
    if not np.isfinite(state.ravel(order="K").view(np.float64)).all():
        raise ValueError("state contains non-finite amplitudes")


def initial_grid(n_vertices: int) -> np.ndarray:
    """Equal superposition of all N(N-1) directed edge states, as an N x N grid."""
    n_vertices = check_int("n_vertices", n_vertices, 3)
    grid = np.full((n_vertices, n_vertices), 1.0 / np.sqrt(n_vertices * (n_vertices - 1)),
                   dtype=np.complex128)
    np.fill_diagonal(grid, 0.0)
    return grid


def strips(rows: np.ndarray):
    """(start, rows[start:stop]) for every strip of a complex grid's `rows`, in order: 512 KiB,
    109 rows at N=300 and 32 at N=1000, so a strip stays in L2 while it is read and written."""
    height = max(1, 2**19 // (16 * rows.shape[1]))
    for start in range(0, len(rows), height):
        yield start, rows[start:start + height]


def step_grid(
    grid: np.ndarray, marked: np.ndarray, factor: complex = 1.0, out: np.ndarray | None = None,
    *, reader=None,
):
    """One walk step on an N x N grid: the kernel behind every full-state path.

    `marked` is a sorted marked-vertex array, `factor` the phase on edges
    inside it.  Writes out^T into `out` (default: a fresh array laid out
    like `grid`; passing `grid` steps in place) and returns the view out.
    `grid` is not copied or, unless it is `out`, modified.  Before anything
    is written, `grid` is refused if an amplitude is not finite, and `out`
    if it is not a complex N x N array.

    Every step walks out's memory rows in the strips of `strips`.  With a
    `reader`, `grid` is read in the same pass, and the step returns (out,
    reader(grid, colsum, marked, transposed, passes)): colsum is
    grid.sum(axis=0), and `passes` yields each (start, rows) of the grid's
    `strips` (of its columns when `transposed`) just before out is written
    over it; the marked block and the diagonal are written after the last.
    """
    n, k = grid.shape[0], len(marked)
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == grid.shape
                                and out.dtype == np.complex128):
        raise ValueError(f"out must be a complex128 array of shape {grid.shape}, got "
                         f"{getattr(out, 'dtype', type(out).__name__)} of shape {np.shape(out)}")
    colsum = grid.sum(axis=0)
    # a non-finite amplitude makes its column sum, and so their total, non-finite
    if not cmath.isfinite(complex(colsum.sum())):
        _check_finite(grid)  # finite amplitudes whose sum overflows pass
    shift = k >= 2 and factor != 1.0
    scaled = colsum.copy()
    if shift:
        inner = grid[marked[:, None], marked]
        scaled[marked] += (factor - 1.0) * inner.sum(axis=0)
    scaled *= coefficients(n).t
    if shift:
        fixed = factor * scaled[marked] - factor * factor * inner  # out's marked block
    if out is None:
        out = np.empty_like(grid)
    elif out is not grid and np.may_share_memory(out, grid):
        grid = grid.copy()
    # strips run along out's memory rows: its rows when it is row-major, else
    # its columns, where colsum runs down each strip instead of along it
    flip = not out.flags.c_contiguous
    rows, source = (out.T, grid.T) if flip else (out, grid)

    def stepping():
        for start, old in strips(source):
            yield start, old
            stop = start + len(old)
            np.subtract(scaled[start:stop, None] if flip else scaled, old, out=rows[start:stop])

    passes = stepping()
    record = None if reader is None else reader(grid, colsum, marked, flip, passes)
    for _ in passes:  # steps what the reader left unread
        pass
    # every strip has been read: the marked block, then the diagonal, in any layout
    if shift:
        out[marked[:, None], marked] = fixed
    diag = np.arange(n)
    rows[diag, diag] = 0.0
    return out.T if reader is None else (out.T, record)


def apply_step(
    state: np.ndarray, config: WalkConfig, out: np.ndarray | None = None, reader=None
):
    """One walk step, marked phases included, of an N x N grid.

    The result is written into `out` if given (`out=state` steps in place,
    as `walk run` does) and otherwise into a fresh array; `state` is left
    unmodified unless it is `out`.  With a `reader` (see `step_grid`) it
    returns (result, record).
    """
    grid = check_grid(state, config.n_vertices, check_finite=False)
    return step_grid(grid, config.marked, cmath.exp(1j * config.phase), out=out, reader=reader)


def evolve(state: np.ndarray, config: WalkConfig, steps: int) -> np.ndarray:
    """`steps` walk steps of an N x N grid, stepped in place in one copy of it.

    The grid is checked on entry; a step that overflowed into non-finite
    amplitudes is refused by the next one."""
    steps = check_int("steps", steps, 0)
    grid = check_grid(state, config.n_vertices).copy()
    factor = cmath.exp(1j * config.phase)
    for _ in range(steps):
        grid = step_grid(grid, config.marked, factor, out=grid)
    return grid


def marked_probability(state: np.ndarray, config: WalkConfig) -> float:
    """Probability of measuring the walker (a grid) on an edge inside the marked set."""
    grid, marked = check_grid(state, config.n_vertices), config.marked
    return float(np.sum(np.abs(grid[marked[:, None], marked]) ** 2))


def dense_step_operator(config: WalkConfig) -> np.ndarray:
    """Explicit N^2 x N^2 matrix of one walk step on the cells of `grid.ravel()`.

    In-edge (k, l) scatters at l to each out-edge (l, m), by -r back (m = k)
    and t elsewhere; the marked phase is a diagonal sandwich on marked in-
    and out-edges.  The diagonal cells hold no edge: their rows and columns
    are zero.  Exists for verification: unitarity on the edge cells checks
    the coefficient pair, and the matrix must agree with the matrix-free
    apply_step.  Cost O(N^4); intended for small N.
    """
    n = config.n_vertices
    t, r = coefficients(n)
    scatter = np.full((n, n), t, dtype=np.complex128)  # scatter[m, k]: (k, l) -> (l, m)
    np.fill_diagonal(scatter, -r)
    op = np.zeros((n, n, n, n), dtype=np.complex128)  # op[l, m, k, l']: (k, l') -> (l, m)
    vertex = np.arange(n)
    op[vertex, :, :, vertex] = scatter
    op = op.reshape(n * n, n * n)
    loops = vertex * (n + 1)  # the diagonal cells (m, m)
    op[loops] = 0.0
    op[:, loops] = 0.0
    if config.k_marked >= 2 and config.phase != 0.0:
        marked = config.marked
        phases = np.ones((n, n), dtype=np.complex128)
        phases[marked[:, None], marked] = cmath.exp(1j * config.phase)
        diag = phases.ravel()
        op = diag[:, None] * op * diag[None, :]
    return op

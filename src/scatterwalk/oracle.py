"""Oracle-circuit formulation of the walk step and query accounting.

The membership oracle answers f(k, l) = 1 iff both vertices belong to the
marked set.  Its quantum form acts on |k> (x) |l> (x) |m> with m in a
four-dimensional ancilla register, adding f(k, l) to m modulo four.  With
the ancilla prepared in the phase-graded state

    (1/2) * sum_q e^{-i pi q / 2} |q>

the modular addition kicks back a global phase e^{i pi f / 2} and leaves
every register exactly as it was, so one oracle call applies the
phase-pi/2 marked-edge shift to the whole edge register at once.  A full
walk step is then: kickback, unmarked scattering, kickback, i.e. exactly
two oracle calls per step, tallied in a QueryLedger and compared with
the expected queries of a classical pair scan.

Composite states are kept in the factored form that actually occurs in
the circuit (a basis edge, two vertex labels or blanks, a 4-amplitude
ancilla); the full tensor product only ever needs to be materialized in
verification suites.  `oracle_step` steps an N x N grid only, and
`conjugated_oracle` names its basis edge by its (source, target) pair,
which `prepare_composite` checks.  Sizes, vertices and queries are read by
`core.check_int`.  An `OracleFunction` is the `core.WalkConfig` of the
phase-pi/2 walk it drives, so the marked set is read once, by
`core.check_marked`, for the walk and its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb, pi

import numpy as np

from . import core

__all__ = [
    "OracleFunction",
    "CompositeState",
    "QueryLedger",
    "kickback_ancilla",
    "prepare_composite",
    "copy_endpoints",
    "uncopy_endpoints",
    "apply_oracle",
    "conjugated_oracle",
    "oracle_step",
    "classical_query_baseline",
]

BLANK = None  # empty vertex register, distinct from every vertex label


@dataclass(frozen=True)
class OracleFunction(core.WalkConfig):
    """Boolean pair-membership oracle over vertices 0..N-1, and the walk it drives.

    f(k, l) = 1 iff both k and l are marked; symmetric, and defined on the
    diagonal by the same rule even though walk paths never query it.  As a
    `core.WalkConfig` it is the search walk: its phase is pi/2, the marked-edge
    shift its kickback applies, and N and the marked set are read as the walk's.
    """

    phase: float = field(default=pi / 2, init=False, repr=False)

    def __call__(self, k: int, l: int) -> int:
        k, l = core.check_int("k", k, 0), core.check_int("l", l, 0)
        if k >= self.n_vertices or l >= self.n_vertices:
            raise ValueError(f"query ({k}, {l}) out of range for N={self.n_vertices}")
        return int(k in self.marked_set and l in self.marked_set)


@dataclass
class QueryLedger:
    """Running total of oracle calls spent by quantum searches."""

    quantum_calls: int = 0


@dataclass
class CompositeState:
    """Walker basis edge with the two vertex registers and the ancilla.

    vertex_a / vertex_b hold vertex labels after the copy gate and BLANK
    otherwise; the ancilla is a 4-component complex vector.
    """

    edge: tuple[int, int]
    vertex_a: int | None
    vertex_b: int | None
    ancilla: np.ndarray

    @property
    def registers_blank(self) -> bool:
        return self.vertex_a is BLANK and self.vertex_b is BLANK


def kickback_ancilla() -> np.ndarray:
    """The phase-graded ancilla state (1/2) sum_q e^{-i pi q/2} |q>.

    All four amplitudes are exact binary fractions (+-1/2, +-i/2), so
    kickback phases come out exactly, not merely to rounding.
    """
    return np.array([0.5, -0.5j, -0.5, 0.5j], dtype=np.complex128)


def prepare_composite(n_vertices: int, edge: tuple[int, int]) -> CompositeState:
    """Composite state for one basis edge, registers blank, ancilla ready.

    `edge` is a (source, target) pair of distinct vertices in 0..N-1.
    """
    n = core.check_int("n_vertices", n_vertices, 2)
    source, target = edge
    source, target = core.check_int("source", source, 0), core.check_int("target", target, 0)
    if source == target:
        raise ValueError(f"no edge state ({source}, {target}): endpoints coincide")
    if source >= n or target >= n:
        raise ValueError(f"endpoints ({source}, {target}) out of range for N={n}")
    return CompositeState(edge=(source, target), vertex_a=BLANK, vertex_b=BLANK,
                          ancilla=kickback_ancilla())


def copy_endpoints(state: CompositeState) -> CompositeState:
    """Copy gate: load the edge endpoints into the blank vertex registers."""
    if not state.registers_blank:
        raise ValueError("vertex registers already populated; copy gate needs blanks")
    source, target = state.edge
    return replace(state, vertex_a=source, vertex_b=target, ancilla=state.ancilla.copy())


def uncopy_endpoints(state: CompositeState) -> CompositeState:
    """Inverse copy gate: clear vertex registers that mirror the edge."""
    if (state.vertex_a, state.vertex_b) != state.edge:
        raise ValueError(
            f"registers {(state.vertex_a, state.vertex_b)} do not mirror edge {state.edge}"
        )
    return replace(state, vertex_a=BLANK, vertex_b=BLANK, ancilla=state.ancilla.copy())


def apply_oracle(state: CompositeState, f: OracleFunction) -> CompositeState:
    """Oracle call: shift the ancilla by f(a, b) modulo four.

    Acts on populated vertex registers only; |m> goes to |m + f mod 4>,
    extended linearly over the ancilla amplitudes.
    """
    if state.registers_blank:
        raise ValueError("oracle requires populated vertex registers")
    return replace(state, ancilla=np.roll(state.ancilla, f(state.vertex_a, state.vertex_b)))


def conjugated_oracle(edge: tuple[int, int], f: OracleFunction) -> complex:
    """Phase e^{i pi f/2} produced by copy -> oracle -> uncopy on one edge.

    `edge` is a (source, target) pair, refused if its endpoints coincide
    or leave 0..N-1.  Runs the three gates on a composite state with the
    ready ancilla and checks that the machinery disentangles: registers
    return to blank and the ancilla returns to the ready state times the
    reported phase, exactly.  The returned phase is the per-edge diagonal
    factor of the phase-pi/2 walk step.
    """
    state = prepare_composite(f.n_vertices, edge)
    state = uncopy_endpoints(apply_oracle(copy_endpoints(state), f))
    phase = 1j ** f(*state.edge)
    if not state.registers_blank:
        raise AssertionError("vertex registers failed to disentangle")
    if not np.array_equal(state.ancilla, phase * kickback_ancilla()):
        raise AssertionError("ancilla failed to return to the ready state")
    return phase


def oracle_step(
    state: np.ndarray, f: OracleFunction, ledger: QueryLedger, out: np.ndarray | None = None,
    reader=None,
):
    """One oracle-driven walk step of an N x N grid: kickback, scatter, kickback.

    The result is written into `out` if given (`out=state` steps in place)
    and otherwise into a fresh array, and with a `reader` (see
    `core.step_grid`) it returns (result, record).  Spends exactly two
    oracle calls, recorded on the ledger whether or not any edge is
    marked.  The marked-edge phase is the oracle's own kickback
    e^{i pi f/2}, so the step equals the phase-pi/2 walk step without being
    built from it.
    """
    grid, marked = core.check_grid(state, f.n_vertices, check_finite=False), f.marked
    kickback = 1j ** f(marked[0], marked[1]) if f.k_marked >= 2 else 1.0
    result = core.step_grid(grid, marked, kickback, out=out, reader=reader)
    ledger.quantum_calls += 2
    return result


def classical_query_baseline(n_vertices: int, k_marked: int) -> float:
    """Expected classical queries until the pair oracle first answers 1.

    Exact expectation (M+1)/(G+1) of a fixed-order scan over all
    M = C(N,2) pairs against a uniformly random marked set with G = C(K,2)
    marked pairs.  Querying pairs in a uniformly random order has the same
    law: in both, the marked pairs hold a uniform random G-subset of the M
    positions.  Refuses K < 2, for which no marked pair exists.
    """
    n, k = core.check_int("n_vertices", n_vertices, 2), core.check_int("k_marked", k_marked, 2)
    if k > n:
        raise ValueError(f"k_marked={k} exceeds n_vertices={n}")
    return (comb(n, 2) + 1) / (comb(k, 2) + 1)

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
two oracle calls per step, tallied in a QueryLedger alongside classical
baselines for comparison.

Composite states are kept in the factored form that actually occurs in
the circuit (a basis edge, two vertex labels or blanks, a 4-amplitude
ancilla); the full tensor product only ever needs to be materialized in
verification suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

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
    "marked_phase_vector",
    "oracle_step",
    "classical_query_baseline",
    "worst_case_scan_queries",
]

BLANK = None  # empty vertex register, distinct from every vertex label


@dataclass(frozen=True)
class OracleFunction:
    """Boolean pair-membership oracle over vertices 0..N-1.

    f(k, l) = 1 iff both k and l are marked; symmetric, and defined on the
    diagonal by the same rule even though walk paths never query it.
    """

    n_vertices: int
    marked_set: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        marked = frozenset(int(v) for v in self.marked_set)
        if any(v < 0 or v >= self.n_vertices for v in marked):
            raise ValueError(
                f"marked vertices must lie in 0..{self.n_vertices - 1}: {sorted(marked)}"
            )
        object.__setattr__(self, "marked_set", marked)

    def __call__(self, k: int, l: int) -> int:
        if not (0 <= k < self.n_vertices and 0 <= l < self.n_vertices):
            raise ValueError(f"query ({k}, {l}) out of range for N={self.n_vertices}")
        return int(k in self.marked_set and l in self.marked_set)


@dataclass
class QueryLedger:
    """Running totals of oracle calls spent by quantum and classical searches."""

    quantum_calls: int = 0
    classical_calls: int = 0


@dataclass
class CompositeState:
    """Walker basis edge with the two vertex registers and the ancilla.

    vertex_a / vertex_b hold vertex labels after the copy gate and BLANK
    otherwise; the ancilla is a 4-component complex vector.
    """

    n_vertices: int
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


def prepare_composite(
    n_vertices: int, edge: tuple[int, int], ancilla: np.ndarray | None = None
) -> CompositeState:
    """Composite state for one basis edge, registers blank."""
    source, target = edge
    core.edge_index(n_vertices, source, target)  # validates the pair
    anc = kickback_ancilla() if ancilla is None else np.asarray(ancilla, dtype=np.complex128)
    if anc.shape != (4,):
        raise ValueError(f"ancilla must have shape (4,), got {anc.shape}")
    return CompositeState(
        n_vertices=n_vertices, edge=(source, target), vertex_a=BLANK, vertex_b=BLANK, ancilla=anc
    )


def copy_endpoints(state: CompositeState) -> CompositeState:
    """Copy gate: load the edge endpoints into the blank vertex registers."""
    if not state.registers_blank:
        raise ValueError("vertex registers already populated; copy gate needs blanks")
    return CompositeState(
        n_vertices=state.n_vertices,
        edge=state.edge,
        vertex_a=state.edge[0],
        vertex_b=state.edge[1],
        ancilla=state.ancilla.copy(),
    )


def uncopy_endpoints(state: CompositeState) -> CompositeState:
    """Inverse copy gate: clear vertex registers that mirror the edge."""
    if (state.vertex_a, state.vertex_b) != state.edge:
        raise ValueError(
            f"registers {(state.vertex_a, state.vertex_b)} do not mirror edge {state.edge}"
        )
    return CompositeState(
        n_vertices=state.n_vertices,
        edge=state.edge,
        vertex_a=BLANK,
        vertex_b=BLANK,
        ancilla=state.ancilla.copy(),
    )


def apply_oracle(state: CompositeState, f: OracleFunction) -> CompositeState:
    """Oracle call: shift the ancilla by f(a, b) modulo four.

    Acts on populated vertex registers only; |m> goes to |m + f mod 4>,
    extended linearly over the ancilla amplitudes.
    """
    if state.registers_blank:
        raise ValueError("oracle requires populated vertex registers")
    value = f(state.vertex_a, state.vertex_b)
    return CompositeState(
        n_vertices=state.n_vertices,
        edge=state.edge,
        vertex_a=state.vertex_a,
        vertex_b=state.vertex_b,
        ancilla=np.roll(state.ancilla, value),
    )


def conjugated_oracle(edge_state_index: int, f: OracleFunction) -> complex:
    """Phase e^{i pi f/2} produced by copy -> oracle -> uncopy on one edge.

    Runs the three gates on a composite state with the ready ancilla and
    checks that the machinery disentangles: registers return to blank and
    the ancilla returns to the ready state times the reported phase,
    exactly.  The returned phase is the per-edge diagonal factor of the
    phase-pi/2 walk step.
    """
    endpoints = core.edge_endpoints(f.n_vertices, edge_state_index)
    state = prepare_composite(f.n_vertices, endpoints)
    state = uncopy_endpoints(apply_oracle(copy_endpoints(state), f))
    phase = 1j ** f(*endpoints)
    if not state.registers_blank:
        raise AssertionError("vertex registers failed to disentangle")
    if not np.array_equal(state.ancilla, phase * kickback_ancilla()):
        raise AssertionError("ancilla failed to return to the ready state")
    return phase


def marked_phase_vector(f: OracleFunction) -> np.ndarray:
    """Kickback phases for every packed edge index: i on marked edges, 1 off.

    Equals conjugated_oracle(index, f) entrywise; computed in bulk because
    one oracle call serves the whole register in superposition.
    """
    vec = np.ones(core.n_edge_states(f.n_vertices), dtype=np.complex128)
    vec[core.marked_edge_indices(core.WalkConfig(f.n_vertices, f.marked_set))] = 1j
    return vec


def oracle_step(
    state: np.ndarray, f: OracleFunction, ledger: QueryLedger, out: np.ndarray | None = None
) -> np.ndarray:
    """One walk step driven by the oracle: kickback, scatter, kickback.

    Takes and returns either state layout; a grid result is written into
    `out` if given (`out=state` steps a grid in place).  Spends exactly two
    oracle calls, recorded on the ledger whether or not any edge is marked.
    The marked-edge phase is the oracle's own kickback e^{i pi f/2}, so the
    step equals the phase-pi/2 walk step without being built from it.
    """
    grid = core.to_grid(state, f.n_vertices)
    packed = np.ndim(state) == 1
    marked = core.marked_vertices(f.marked_set)
    kickback = 1j ** f(marked[0], marked[1]) if len(marked) >= 2 else 1.0
    out = core.step_grid(grid, marked, kickback, out=grid if packed else out)
    ledger.quantum_calls += 2
    return core.to_packed(out) if packed else out


def worst_case_scan_queries(n_vertices: int, k_marked: int) -> int:
    """Queries a deterministic pair scan needs in the worst case."""
    if k_marked < 2:
        raise ValueError("no marked pair exists for k_marked < 2")
    return comb(n_vertices, 2) - comb(k_marked, 2) + 1


def classical_query_baseline(
    n_vertices: int,
    k_marked: int,
    strategy: str = "deterministic-scan",
    trials: int = 10000,
    seed: int | None = None,
    ledger: QueryLedger | None = None,
) -> float:
    """Expected classical queries until the pair oracle first answers 1.

    deterministic-scan: exact expectation (M+1)/(G+1) of a fixed-order
    scan over all M = C(N,2) pairs against a uniformly random marked set
    with G = C(K,2) marked pairs.  random-pairs: Monte Carlo over `trials`
    searches that query uniformly random pairs without replacement; the
    first hit in a uniformly shuffled pair order is the minimum of the
    marked pairs' positions, which is what gets sampled.  Queries made by
    the simulated searches are added to the ledger when one is given.
    """
    if k_marked < 2:
        raise ValueError("no marked pair exists for k_marked < 2; search unsatisfiable")
    if k_marked > n_vertices:
        raise ValueError(f"k_marked={k_marked} exceeds n_vertices={n_vertices}")
    total_pairs = comb(n_vertices, 2)
    marked_pairs = comb(k_marked, 2)
    if strategy == "deterministic-scan":
        return (total_pairs + 1) / (marked_pairs + 1)
    if strategy != "random-pairs":
        raise ValueError(f"strategy must be 'deterministic-scan' or 'random-pairs', got {strategy!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    counts = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        positions = rng.choice(total_pairs, size=marked_pairs, replace=False)
        counts[i] = positions.min() + 1
    if ledger is not None:
        ledger.classical_calls += int(counts.sum())
    return float(counts.mean())

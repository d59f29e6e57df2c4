"""Bounded property tests of the grid kernel against the independent oracles.

Random N <= 12, a randomly placed marked set of any size 0..N, a random
phase and chains of 1-3 steps, so that both the row-major grid and the
transposed view a step returns are fed back in.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterwalk import core, oracle, reduced
from scatterwalk.core import WalkConfig
from scatterwalk.oracle import OracleFunction, QueryLedger

from helpers import grid_of, naive_class_basis, naive_dense_operator, random_state

BOUNDED = settings(max_examples=50, deadline=None)


@st.composite
def walks(draw, min_marked=0, phase=None):
    """(config, packed random state, step count)."""
    n = draw(st.integers(max(3, 2 * min_marked), 12))
    k = draw(st.integers(min(min_marked, n), n - min_marked))
    marked = draw(st.permutations(range(n)))[:k]
    if phase is None:
        phase = draw(st.floats(-2 * np.pi, 2 * np.pi))
    seed = draw(st.integers(0, 2**32 - 1))
    state = random_state(np.random.default_rng(seed), n * (n - 1))
    config = WalkConfig(n_vertices=n, marked_set=frozenset(marked), phase=phase)
    return config, state, draw(st.integers(1, 3))


@BOUNDED
@given(walks())
def test_apply_step_matches_naive_operator_on_both_layouts(walk):
    config, state, steps = walk
    n = config.n_vertices
    dense = naive_dense_operator(n, config.marked_set, config.phase)
    expected, packed, grid = state, state, core.to_grid(state, n)
    for _ in range(steps):
        expected = dense @ expected
        packed = core.apply_step(packed, config)
        grid = core.apply_step(grid, config)
        assert packed.shape == (n * (n - 1),) and grid.shape == (n, n)
        assert np.abs(packed - expected).max() < 1e-13
        assert np.abs(grid - grid_of(expected, n)).max() < 1e-13


@BOUNDED
@given(walks())
def test_inputs_are_never_mutated(walk):
    config, state, steps = walk
    f = OracleFunction(config.n_vertices, config.marked_set)
    grid = core.to_grid(state, config.n_vertices)
    for _ in range(steps):
        for current in (state, grid):
            before = current.copy()
            core.apply_step(current, config)
            oracle.oracle_step(current, f, QueryLedger())
            core.evolve(current, config, 2)
            np.testing.assert_array_equal(current, before)
        state, grid = core.apply_step(state, config), core.apply_step(grid, config)


@BOUNDED
@given(walks(phase=np.pi / 2))
def test_oracle_step_agrees_with_walk_step_on_both_layouts(walk):
    config, state, steps = walk
    n = config.n_vertices
    f = OracleFunction(n, config.marked_set)
    ledger = QueryLedger()
    walked, packed, grid = state, state, core.to_grid(state, n)
    buffer = in_place = core.to_grid(state, n)
    for _ in range(steps):
        walked = core.apply_step(walked, config)
        packed = oracle.oracle_step(packed, f, ledger)
        grid = oracle.oracle_step(grid, f, ledger)
        in_place = oracle.oracle_step(in_place, f, ledger, out=in_place)
        assert np.abs(packed - walked).max() < 1e-13
        assert np.abs(grid - grid_of(walked, n)).max() < 1e-13
        np.testing.assert_array_equal(in_place, grid)
        assert np.shares_memory(in_place, buffer)
    assert ledger.quantum_calls == 6 * steps


@BOUNDED
@given(walks(min_marked=2))
def test_grid_projection_matches_packed_and_naive_basis(walk):
    config, state, steps = walk
    n = config.n_vertices
    basis = naive_class_basis(n, config.marked_set)
    grid = core.to_grid(state, n)
    for _ in range(steps):
        state, grid = core.apply_step(state, config), core.apply_step(grid, config)
        comps, residual = reduced.project(grid, config)
        packed_comps, packed_residual = reduced.project(state, config)
        naive = basis.conj().T @ state
        assert np.abs(comps - packed_comps).max() < 1e-13
        assert np.abs(comps - naive).max() < 1e-13
        assert abs(residual - packed_residual) < 1e-13
        assert abs(residual - np.linalg.norm(state - basis @ naive)) < 1e-13
        # the marked edges are the support of the w4 class vector
        marked_mass = np.sum(np.abs(state[basis[:, 3] != 0]) ** 2)
        p_grid = core.marked_probability(grid, config)
        assert abs(p_grid - core.marked_probability(state, config)) < 1e-14
        assert abs(p_grid - marked_mass) < 1e-14

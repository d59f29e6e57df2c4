"""Bounded property tests of the grid kernel against the independent oracles.

Random N <= 12, a randomly placed marked set of any size 0..N, a random
phase and chains of 1-3 steps, so that both the row-major grid and the
transposed view a step returns are fed back in.  The observation of a grid
is checked on random states up to N = 70, with marked vertices placed at
the edges of its row strips.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scatterwalk import core, oracle, reduced
from scatterwalk.core import WalkConfig
from scatterwalk.oracle import OracleFunction, QueryLedger

from helpers import (
    grid_of,
    naive_class_basis,
    naive_dense_operator,
    random_state,
    relabel_state,
)

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
    buffer = in_place = core.to_grid(state, n)
    for _ in range(steps):
        expected = dense @ expected
        packed = core.apply_step(packed, config)
        grid = core.apply_step(grid, config)
        in_place = core.apply_step(in_place, config, out=in_place)
        assert packed.shape == (n * (n - 1),) and grid.shape == (n, n)
        assert np.abs(packed - expected).max() < 1e-13
        assert np.abs(grid - grid_of(expected, n)).max() < 1e-13
        np.testing.assert_array_equal(in_place, grid)
        assert np.shares_memory(in_place, buffer)


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


@BOUNDED
@given(walks(min_marked=2), st.integers(0, 15))
def test_full_evolution_matches_the_reduced_engine(walk, steps):
    config, _, _ = walk
    n, k = config.n_vertices, config.k_marked
    comps, residual = reduced.project(core.evolve(core.initial_state(n), config, steps), config)
    op = reduced.reduced_operator(n, k, config.phase)
    expected = reduced.evolve_reduced(reduced.reduced_initial_state(n, k), op, steps)
    assert np.abs(comps - expected).max() < 1e-12
    assert residual <= 1e-12


@BOUNDED
@given(walks(), st.integers(0, 2**32 - 1))
def test_random_steps_preserve_norms_and_inner_products(walk, seed):
    config, state, steps = walk
    n = config.n_vertices
    other = random_state(np.random.default_rng(seed), n * (n - 1))
    overlap = np.vdot(state, other)
    packed, grid = (state, other), (core.to_grid(state, n), core.to_grid(other, n))
    for _ in range(steps):
        packed = tuple(core.apply_step(s, config) for s in packed)
        grid = tuple(core.apply_step(g, config) for g in grid)
        for a, b in (packed, tuple(core.to_packed(g) for g in grid)):
            assert abs(np.linalg.norm(a) - 1.0) < 1e-13
            assert abs(np.linalg.norm(b) - 1.0) < 1e-13
            assert abs(np.vdot(a, b) - overlap) < 1e-13


@BOUNDED
@given(walks(), st.randoms(use_true_random=False))
def test_relabelling_vertices_commutes_with_the_step(walk, random):
    config, state, steps = walk
    n = config.n_vertices
    perm = list(range(n))
    random.shuffle(perm)
    relabelled = WalkConfig(n, frozenset(perm[v] for v in config.marked_set), config.phase)
    moved = core.to_grid(relabel_state(state, n, perm), n)
    for _ in range(steps):
        state = core.apply_step(state, config)
        moved = core.apply_step(moved, relabelled)
        assert np.abs(core.to_packed(moved) - relabel_state(state, n, perm)).max() < 1e-13


#: strip boundaries of `reduced.observe` and the vertices on either side of them
STRIP_EDGES = (0, 1, 30, 31, 32, 33, 63, 64, 65, 69)


@st.composite
def observations(draw):
    """(N, marked vertices, state seed, layout) with N <= 70, marked near strip edges."""
    n = draw(st.one_of(st.sampled_from((31, 32, 33, 64, 65)), st.integers(4, 70)))
    near = [v for v in STRIP_EDGES + (n - 2, n - 1) if v < n]
    marked = set(draw(st.lists(st.sampled_from(near), min_size=1, max_size=4)))
    marked |= set(draw(st.lists(st.integers(0, n - 1), max_size=4)))
    marked.add(min(set(range(n)) - marked))  # K >= 2
    marked = sorted(marked)[: n - 2]
    seed = draw(st.integers(0, 2**32 - 1))
    return n, tuple(marked), seed, draw(st.sampled_from(("rows", "transposed", "strided")))


@BOUNDED
@given(observations())
@example((20, (0, 19), 1, "rows"))
@example((32, (0, 31), 2, "transposed"))
@example((33, (31, 32), 3, "rows"))
@example((70, (31, 32, 63, 64, 69), 4, "transposed"))
@example((65, (0, 64), 5, "strided"))
def test_observe_matches_the_naive_class_basis(case):
    n, marked, seed, layout = case
    state = random_state(np.random.default_rng(seed), n * (n - 1))
    grid = grid_of(state, n)
    if layout == "transposed":
        grid = grid.T.copy().T
    elif layout == "strided":
        wide = np.zeros((n, 2 * n), dtype=complex)
        wide[:, ::2] = grid
        grid = wide[:, ::2]
    basis = naive_class_basis(n, marked)
    expected = basis.conj().T @ state
    comps, residual, p_marked, norm = reduced.observe(grid, np.array(marked))
    assert np.abs(comps - expected).max() < 1e-12
    assert abs(residual - np.linalg.norm(state - basis @ expected)) < 1e-12
    assert abs(p_marked - np.sum(np.abs(state[basis[:, 3] != 0]) ** 2)) < 1e-12
    assert abs(norm - np.linalg.norm(state)) < 1e-12
    assert residual > 0.5  # a random state lies mostly outside the subspace

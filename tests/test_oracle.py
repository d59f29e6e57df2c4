"""Oracle circuit: kickback machinery, step equivalence, query accounting.

Includes a small-N suite that materializes the full walker (x) vertex
(x) vertex (x) ancilla tensor product and checks that the composed
copy/oracle/uncopy permutation acts as the marked-edge phase on the edge
register while returning every ancillary register to its exact initial
state, which is what justifies the factored representation used
everywhere else.
"""

import dataclasses
from math import comb

import numpy as np
import pytest

from scatterwalk import core, oracle
from scatterwalk.core import WalkConfig
from scatterwalk.oracle import (
    OracleFunction,
    QueryLedger,
    apply_oracle,
    classical_query_baseline,
    conjugated_oracle,
    copy_endpoints,
    kickback_ancilla,
    oracle_step,
    prepare_composite,
    uncopy_endpoints,
)

from helpers import (
    edge_endpoint_arrays,
    grid_of,
    marked_phase_vector,
    operator_of,
    packed_of,
    random_state,
)


class TestOracleFunction:
    def test_membership_rule(self):
        f = OracleFunction(n_vertices=6, marked_set=frozenset({1, 4}))
        assert f(1, 4) == 1 and f(4, 1) == 1
        assert f(1, 2) == 0 and f(0, 5) == 0

    def test_diagonal_follows_same_rule(self):
        f = OracleFunction(n_vertices=6, marked_set=frozenset({1, 4}))
        assert f(1, 1) == 1 and f(2, 2) == 0

    def test_symmetric_everywhere(self):
        f = OracleFunction(n_vertices=5, marked_set=frozenset({0, 2, 3}))
        for k in range(5):
            for l in range(5):
                assert f(k, l) == f(l, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleFunction(n_vertices=4, marked_set=frozenset({0, 4}))
        f = OracleFunction(n_vertices=4, marked_set=frozenset({0, 1}))
        with pytest.raises(ValueError):
            f(0, 4)

    def test_refuses_non_integer_sizes_vertices_and_queries(self):
        # each was accepted before: 10.5 as N, {1.5, 2.7} as {1, 2}, f(1.5, 2) as 0
        for n, name in ((10.5, "n_vertices"), (2, "n_vertices"), (True, "n_vertices")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= 3"):
                OracleFunction(n, frozenset({0, 1}))
        for marked in ({1.5, 2.7}, {True, 3}):
            with pytest.raises(ValueError, match="^marked vertex must be an integer >= 0"):
                OracleFunction(10, marked)
        f = OracleFunction(np.int16(10), frozenset({np.int64(3), 1}))
        assert type(f.n_vertices) is int and f.marked.tolist() == [1, 3]
        with pytest.raises(ValueError, match=r"^k must be an integer >= 0, got 1\.5$"):
            f(1.5, 2)
        with pytest.raises(ValueError, match=r"^l must be an integer >= 0, got True$"):
            f(1, True)


class TestKickback:
    def test_ready_ancilla_is_exact(self):
        anc = kickback_ancilla()
        assert np.array_equal(anc, np.array([0.5, -0.5j, -0.5, 0.5j]))
        assert np.linalg.norm(anc) == pytest.approx(1.0, abs=1e-16)

    def test_oracle_shifts_basis_ancilla_mod_four(self):
        f = OracleFunction(n_vertices=5, marked_set=frozenset({0, 1}))
        state = dataclasses.replace(prepare_composite(5, (0, 1)), ancilla=np.eye(4)[3])
        state = apply_oracle(copy_endpoints(state), f)
        assert np.array_equal(state.ancilla, np.eye(4)[0])  # 3 + 1 mod 4

    def test_oracle_leaves_unmarked_untouched(self):
        f = OracleFunction(n_vertices=5, marked_set=frozenset({0, 1}))
        state = copy_endpoints(prepare_composite(5, (2, 3)))
        out = apply_oracle(state, f)
        assert np.array_equal(out.ancilla, kickback_ancilla())
        assert (out.vertex_a, out.vertex_b) == (2, 3)

    def test_marked_query_kicks_back_exact_i(self):
        # ready ancilla turns the modular shift into a global factor of i
        f = OracleFunction(n_vertices=5, marked_set=frozenset({0, 1}))
        state = apply_oracle(copy_endpoints(prepare_composite(5, (1, 0))), f)
        assert np.array_equal(state.ancilla, 1j * kickback_ancilla())

    def test_apply_oracle_requires_populated_registers(self):
        f = OracleFunction(n_vertices=5, marked_set=frozenset({0, 1}))
        with pytest.raises(ValueError, match="populated"):
            apply_oracle(prepare_composite(5, (0, 1)), f)

    def test_copy_uncopy_round_trip_and_errors(self):
        state = prepare_composite(6, (4, 2))
        copied = copy_endpoints(state)
        assert (copied.vertex_a, copied.vertex_b) == (4, 2)
        back = uncopy_endpoints(copied)
        assert back.registers_blank
        with pytest.raises(ValueError):
            copy_endpoints(copied)
        with pytest.raises(ValueError):
            uncopy_endpoints(state)


class TestPrepareComposite:
    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError, match=r"^no edge state \(2, 2\): endpoints coincide$"):
            prepare_composite(5, (2, 2))
        # float and bool endpoints are refused; numpy integers are endpoints
        with pytest.raises(ValueError, match=r"^source must be an integer >= 0, got 1\.5$"):
            prepare_composite(5, (1.5, 2))
        for bad in ((True, 2), (2, False), (np.float64(1), 2), (1, np.bool_(True))):
            with pytest.raises(ValueError, match="(source|target) must be an integer >= 0"):
                prepare_composite(5, bad)
        edge = prepare_composite(5, (np.int64(1), np.uint8(2))).edge
        assert edge == (1, 2) and all(type(v) is int for v in edge)
        with pytest.raises(ValueError, match=r"^endpoints \(0, 5\) out of range for N=5$"):
            prepare_composite(5, (0, 5))


class TestConjugatedOracle:
    def test_phases_are_exact(self):
        f = OracleFunction(n_vertices=6, marked_set=frozenset({0, 3}))
        assert conjugated_oracle((0, 3), f) == 1j
        assert conjugated_oracle((1, 2), f) == 1 + 0j

    def test_double_application_gives_reflection_phase(self):
        f = OracleFunction(n_vertices=6, marked_set=frozenset({0, 3}))
        assert conjugated_oracle((3, 0), f) * conjugated_oracle((3, 0), f) == -1 + 0j

    def test_matches_bulk_phase_vector(self):
        f = OracleFunction(n_vertices=7, marked_set=frozenset({1, 2, 5}))
        bulk = marked_phase_vector(7, f.marked_set)
        sources, targets = edge_endpoint_arrays(7)
        for idx, edge in enumerate(zip(sources.tolist(), targets.tolist())):
            assert bulk[idx] == conjugated_oracle(edge, f)

    @pytest.mark.parametrize("edge", [(3, 3), (0, 0), (0, 6), (6, 2), (-1, 2)])
    def test_a_loop_or_an_out_of_range_edge_is_refused(self, edge):
        f = OracleFunction(n_vertices=6, marked_set=frozenset({0, 3}))
        with pytest.raises(ValueError):
            conjugated_oracle(edge, f)


BLANK = -1  # full-tensor tests encode the blank register as label N


def _composite_dims(n):
    return n * (n - 1), n + 1, n + 1, 4


def _tensor_permutation(n, rule):
    """Build a permutation array over the composite basis from an index rule."""
    de, da, db, dm = _composite_dims(n)
    perm = np.empty(de * da * db * dm, dtype=np.intp)
    i = 0
    for e in range(de):
        for a in range(da):
            for b in range(db):
                for m in range(dm):
                    e2, a2, b2, m2 = rule(e, a, b, m)
                    perm[i] = ((e2 * da + a2) * db + b2) * dm + m2
                    i += 1
    return perm


class TestFullTensorProduct:
    """Materialized composite space at N=5 (2880 basis states)."""

    N = 5

    def _operators(self, f):
        n = self.N
        blank = n  # register value N encodes "empty"
        sources, targets = edge_endpoint_arrays(n)

        def copy_rule(e, a, b, m):
            k, l = sources[e], targets[e]
            if (a, b) == (blank, blank):
                return e, k, l, m
            if (a, b) == (k, l):
                return e, blank, blank, m
            return e, a, b, m

        def oracle_rule(e, a, b, m):
            if a == blank or b == blank:
                return e, a, b, m
            return e, a, b, (m + f(a, b)) % 4

        return _tensor_permutation(n, copy_rule), _tensor_permutation(n, oracle_rule)

    def _lift(self, edge_vec, ancilla):
        n = self.N
        reg = np.zeros(n + 1, dtype=complex)
        reg[n] = 1.0  # blank
        return np.kron(np.kron(np.kron(edge_vec, reg), reg), ancilla)

    def test_composed_gates_apply_phase_and_disentangle_exactly(self):
        n = self.N
        f = OracleFunction(n_vertices=n, marked_set=frozenset({0, 2}))
        copy_perm, oracle_perm = self._operators(f)

        rng = np.random.default_rng(99)
        edge_vec = random_state(rng, n * (n - 1))
        psi = self._lift(edge_vec, kickback_ancilla())

        out = np.empty_like(psi)
        out[copy_perm] = psi                      # copy endpoints
        mid = np.empty_like(out)
        mid[oracle_perm] = out                    # controlled modular add
        final = np.empty_like(mid)
        final[copy_perm] = mid                    # copy is an involution

        expected = self._lift(marked_phase_vector(n, f.marked_set) * edge_vec, kickback_ancilla())
        assert np.array_equal(final, expected)

    def test_gates_are_permutations(self):
        f = OracleFunction(n_vertices=self.N, marked_set=frozenset({0, 2}))
        for perm in self._operators(f):
            assert np.array_equal(np.sort(perm), np.arange(len(perm)))


class TestOracleStep:
    @pytest.mark.parametrize("n, k", [(5, 2), (8, 3), (10, 2)])
    def test_equals_half_pi_walk_step(self, n, k):
        cfg = WalkConfig(n_vertices=n, marked_set=frozenset(range(k)), phase=np.pi / 2)
        f = OracleFunction(n_vertices=n, marked_set=cfg.marked_set)
        rng = np.random.default_rng(n)
        ledger = QueryLedger()
        for _ in range(5):
            state = grid_of(random_state(rng, n * (n - 1)), n)
            got = oracle_step(state, f, ledger)
            want = core.apply_step(state, cfg)
            assert np.abs(got - want).max() < 1e-13

    def test_operator_level_equality(self):
        n = 10
        cfg = WalkConfig(n_vertices=n, marked_set=frozenset({0, 1}), phase=np.pi / 2)
        f = OracleFunction(n_vertices=n, marked_set=cfg.marked_set)
        ledger = QueryLedger()
        dim = n * (n - 1)
        circuit = operator_of(lambda c: packed_of(oracle_step(grid_of(c, n), f, ledger)), dim)
        walk = operator_of(lambda c: packed_of(core.apply_step(grid_of(c, n), cfg)), dim)
        assert np.abs(circuit - walk).max() < 1e-13

    def test_ledger_counts_two_calls_per_step(self):
        f = OracleFunction(n_vertices=6, marked_set=frozenset({0, 1}))
        ledger = QueryLedger()
        state = core.initial_grid(6)
        for n in range(1, 8):
            state = oracle_step(state, f, ledger)
            assert ledger.quantum_calls == 2 * n

    def test_unmarked_oracle_still_spends_calls(self):
        f = OracleFunction(n_vertices=7, marked_set=frozenset())
        ledger = QueryLedger()
        state = core.initial_grid(7)
        out = oracle_step(state, f, ledger)
        np.testing.assert_allclose(out, core.apply_step(state, WalkConfig(7)), atol=1e-15)
        assert ledger.quantum_calls == 2


class TestClassicalBaseline:
    def test_every_pair_marked_takes_one_query(self):
        assert classical_query_baseline(4, 4) == pytest.approx(1.0)

    def test_exact_expectation_n10_k2(self):
        # single marked pair among 45: first-hit position is uniform on 1..45
        expected = sum(range(1, 46)) / 45
        assert expected == 23.0
        assert classical_query_baseline(10, 2) == pytest.approx(23.0, abs=1e-12)

    def test_monte_carlo_agrees_with_exact(self):
        # searches querying uniformly random pairs without replacement: the
        # first hit is the smallest position the marked pairs take in a
        # uniformly shuffled pair order
        rng = np.random.default_rng(5)
        total_pairs, marked_pairs, trials = comb(10, 2), comb(2, 2), 4000
        queries = [
            rng.choice(total_pairs, size=marked_pairs, replace=False).min() + 1
            for _ in range(trials)
        ]
        mc = float(np.mean(queries))
        assert abs(mc - classical_query_baseline(10, 2)) < 1.0  # 3 sigma of the mean is ~0.6

    def test_quadratic_scaling(self):
        ratio = classical_query_baseline(1000, 2) / classical_query_baseline(500, 2)
        assert 3.9 < ratio < 4.1

    def test_rejects_unsatisfiable_search(self):
        with pytest.raises(ValueError):
            classical_query_baseline(10, 1)

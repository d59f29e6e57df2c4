"""Independent reference implementations used as oracles by the tests.

Everything here is written the slow, obvious way (explicit loops over the
local scattering rules) and deliberately shares no kernel code with the
package, so agreement between the two is a meaningful check rather than a
tautology.
"""

from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np


def edge_index(n, source, target):
    return source * (n - 1) + (target if target < source else target - 1)


def edge_endpoint_arrays(n):
    """(sources, targets) of every packed edge index, in index order."""
    sources = np.empty(n * (n - 1), dtype=np.intp)
    targets = np.empty(n * (n - 1), dtype=np.intp)
    for m in range(n):
        for l in range(n):
            if m != l:
                sources[edge_index(n, m, l)] = m
                targets[edge_index(n, m, l)] = l
    return sources, targets


def marked_phase_vector(n, marked):
    """Kickback phase of every packed edge index: i where both endpoints
    are marked, 1 elsewhere."""
    marked = set(marked)
    vec = np.ones(n * (n - 1), dtype=complex)
    for m in marked:
        for l in marked:
            if m != l:
                vec[edge_index(n, m, l)] = 1j
    return vec


def scan_optimal_steps(matrix, state, horizon):
    """First step n <= horizon that maximises |c4(n)|^2, found by applying
    the 4x4 step matrix to the reduced state one step at a time."""
    best, best_p = 0, abs(state[3]) ** 2
    for n in range(1, horizon + 1):
        state = matrix @ state
        if abs(state[3]) ** 2 > best_p:
            best, best_p = n, abs(state[3]) ** 2
    return best


def coverage_by_enumeration(k, runs):
    """Law of the number of distinct marked vertices seen after `runs` ideal runs.

    Every one of the C(K,2)^runs equally likely sequences of marked pairs
    is counted, run by run, grouped by the set of vertices its prefix has
    revealed (a bit mask).  Exact fractions keyed by count in increasing
    order, counts of probability zero left out.
    """
    pair_bits = [(1 << a) | (1 << b) for a, b in combinations(range(k), 2)]
    sequences = {0: 1}  # revealed-vertex mask -> number of pair sequences
    for _ in range(runs):
        extended = {}
        for mask, count in sequences.items():
            for bits in pair_bits:
                extended[mask | bits] = extended.get(mask | bits, 0) + count
        sequences = extended
    total = len(pair_bits) ** runs
    assert sum(sequences.values()) == total
    by_count = {}
    for mask, count in sequences.items():
        seen = bin(mask).count("1")
        by_count[seen] = by_count.get(seen, 0) + count
    return {j: Fraction(c, total) for j, c in sorted(by_count.items())}


def coverage_by_replay(k, runs, trials, seed, p_success):
    """(probabilities, success rate) of the reduced Monte Carlo, replayed.

    Redraws the reduced engine's stream from `seed`, all `trials` x `runs`
    uniforms against `p_success` and then all marked-pair indices into
    combinations(range(k), 2), and counts each trial's discovered vertices
    with a Python set, one run at a time.
    """
    pairs = list(combinations(range(k), 2))
    rng = np.random.default_rng(seed)
    success = rng.random((trials, runs)) < p_success
    pair = rng.integers(0, len(pairs), size=(trials, runs))
    counts, successes = {}, 0
    for t in range(trials):
        seen = set()
        for r in range(runs):
            if success[t, r]:
                seen.update(pairs[pair[t, r]])
                successes += 1
        counts[len(seen)] = counts.get(len(seen), 0) + 1
    probabilities = {j: c / trials for j, c in sorted(counts.items())}
    return probabilities, successes / (trials * runs)


def naive_dense_operator(n, marked, phi):
    """Step operator assembled column by column from the local rules.

    Each incoming edge (k, l) scatters at l into -r on the reversed edge
    and t elsewhere; the phase e^{i phi} is attached inline to marked
    in-edges and marked out-edges, following the per-edge description
    rather than a diagonal sandwich.
    """
    t = 2.0 / (n - 1)
    r = 1.0 - t
    marked = set(marked)
    dim = n * (n - 1)
    op = np.zeros((dim, dim), dtype=complex)
    entry_phase = np.exp(1j * phi)
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            col = edge_index(n, k, l)
            pre = entry_phase if (k in marked and l in marked) else 1.0
            for m in range(n):
                if m == l:
                    continue
                post = entry_phase if (l in marked and m in marked) else 1.0
                amp = -r if m == k else t
                op[edge_index(n, l, m), col] += pre * amp * post
    return op


def naive_class_basis(n, marked):
    """The four class vectors as columns of a dim x 4 matrix."""
    marked = set(marked)
    selectors = [
        lambda j, k: j not in marked and k in marked,
        lambda j, k: j in marked and k not in marked,
        lambda j, k: j not in marked and k not in marked,
        lambda j, k: j in marked and k in marked,
    ]
    dim = n * (n - 1)
    basis = np.zeros((dim, 4), dtype=complex)
    for col, keep in enumerate(selectors):
        for j in range(n):
            for k in range(n):
                if j != k and keep(j, k):
                    basis[edge_index(n, j, k), col] = 1.0
        basis[:, col] /= np.linalg.norm(basis[:, col])
    return basis


def relabel_state(state, n, perm):
    """Apply a vertex relabeling to a packed edge state."""
    out = np.zeros_like(state)
    for m in range(n):
        for l in range(n):
            if m != l:
                out[edge_index(n, perm[m], perm[l])] = state[edge_index(n, m, l)]
    return out


def grid_of(state, n):
    """Packed edge state -> N x N grid with grid[m, l] = amplitude(m -> l)."""
    grid = np.zeros((n, n), dtype=complex)
    for m in range(n):
        for l in range(n):
            if m != l:
                grid[m, l] = state[edge_index(n, m, l)]
    return grid


def packed_of(grid):
    """N x N grid -> packed edge state, the inverse of grid_of."""
    sources, targets = edge_endpoint_arrays(len(grid))
    return np.asarray(grid)[sources, targets]


def random_state(rng, dim):
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def operator_of(apply_fn, dim):
    """Materialize a linear map as a dense matrix by applying it to the basis."""
    return np.column_stack([apply_fn(col) for col in np.eye(dim, dtype=complex).T])


def mp_search_components(n, k, steps, phase=None, dps=50):
    """Class components (c1..c4) after `steps` search steps, in mpmath.

    The 4x4 class operator is summed from the local rules of one
    representative edge per class: a walker on (j, l) moves to (l, m) with
    amplitude -r if m == j and t otherwise, and picks up e^{i phi} on
    entering and on leaving an edge internal to the marked set.  `phase` is
    taken as the exact value of the float given; None is pi/2, e^{i phi} = i
    exactly.  The power is taken by repeated squaring at `dps` decimal
    digits, and the components are returned as Python complex numbers.
    """
    with mpmath.workdps(dps):
        e = mpmath.mpc(0, 1) if phase is None else mpmath.expj(mpmath.mpf(phase))
        t = mpmath.mpf(2) / (n - 1)
        r = 1 - t
        # classes (w1..w4) by whether the source and target are marked
        classes = ((False, True), (True, False), (False, False), (True, True))
        sizes = (k * (n - k), k * (n - k), (n - k) * (n - k - 1), k * (k - 1))
        op = mpmath.matrix(4, 4)
        for a, (j_marked, l_marked) in enumerate(classes):
            pre = e if j_marked and l_marked else 1
            for b, (source_marked, m_marked) in enumerate(classes):
                if source_marked != l_marked:
                    continue  # a successor of (j, l) starts at l
                group = (k if m_marked else n - k) - (l_marked == m_marked)  # m != l
                amp = t * group - (1 if j_marked == m_marked else 0)  # m == j gives -r, not t
                post = e if l_marked and m_marked else 1
                op[b, a] = mpmath.sqrt(mpmath.mpf(sizes[a]) / sizes[b]) * amp * pre * post
        state = mpmath.matrix([mpmath.sqrt(mpmath.mpf(s) / (n * (n - 1))) for s in sizes])
        while steps:
            if steps & 1:
                state = op * state
            op = op * op
            steps >>= 1
        return [complex(c) for c in state]

"""Independent reference implementations used as oracles by the tests.

Everything here is written the slow, obvious way (explicit loops over the
local scattering rules) and deliberately shares no kernel code with the
package, so agreement between the two is a meaningful check rather than a
tautology.
"""

import numpy as np


def edge_index(n, source, target):
    return source * (n - 1) + (target if target < source else target - 1)


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


def random_state(rng, dim):
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


def operator_of(apply_fn, dim):
    """Materialize a linear map as a dense matrix by applying it to the basis."""
    return np.column_stack([apply_fn(col) for col in np.eye(dim, dtype=complex).T])

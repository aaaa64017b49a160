"""Earlier forms of the library's unit-sized bookkeeping, kept as references.

The library runs the assignment search of ``diagnostics._assignment`` on
Python floats and the sign rule of ``cp_decomp._finalize`` as one pass over
all columns, because at k = d_h numpy's per-call cost outweighs the
arithmetic.  The forms below are the numpy array search and the per-column
loop they replaced; the tests require the library to return their exact
bits, tie rule included.
"""

from __future__ import annotations

import numpy as np

from spectral_rnn.cp_decomp import RANK_TOL


def assignment(cost: np.ndarray) -> np.ndarray:
    """perm with perm[i] the column of row i, minimising sum_i cost[i, perm[i]]:
    Jonker & Volgenant's shortest augmenting paths as whole-row numpy
    updates, ties taken at the lowest column index (np.argmin).  Row and
    column 0 are virtual; match[j] is the row (1-based) on column j."""
    k = cost.shape[0]
    padded = np.pad(cost, ((1, 0), (1, 0)))
    u, v, match = np.zeros(k + 1), np.zeros(k + 1), np.zeros(k + 1, dtype=int)
    for i in range(1, k + 1):
        match[0], j0 = i, 0
        dist, way = np.full(k + 1, np.inf), np.zeros(k + 1, dtype=int)
        used = np.zeros(k + 1, dtype=bool)
        while match[j0]:
            used[j0] = True
            reduced = padded[match[j0]] - u[match[j0]] - v
            closer = ~used & (reduced < dist)
            dist[closer], way[closer] = reduced[closer], j0
            j0 = int(np.argmin(np.where(used, np.inf, dist)))
            delta = dist[j0]
            u[match[used]] += delta
            v[used] -= delta
            dist[~used] -= delta
        while j0:
            match[j0] = match[way[j0]]
            j0 = way[j0]
    return np.argsort(match[1:])


def finalize(weights, mode1, factor, rank_tol=RANK_TOL, sig_tol=1e-8):
    """Rank cut, one sign decision per factor column in a loop, then the
    stable sort by decreasing weight."""
    if weights.size == 0 or np.max(weights) == 0.0:
        d1, d = mode1.shape[0], factor.shape[0]
        return np.zeros(0), np.zeros((d1, 0)), np.zeros((d, 0))
    keep = weights >= rank_tol * np.max(weights)
    weights, mode1, factor = weights[keep], mode1[:, keep], factor[:, keep]
    for r in range(weights.shape[0]):
        col = factor[:, r]
        sig = np.nonzero(np.abs(col) > sig_tol * np.max(np.abs(col)))[0]
        if sig.size and col[sig[0]] < 0:
            factor[:, r] = -col
    order = np.argsort(-weights, kind="stable")
    return weights[order], mode1[:, order], factor[:, order]

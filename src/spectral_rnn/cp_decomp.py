"""Low-rank CP decomposition of order-3 moment tensors.

Every tensor here is pair-symmetric, T = sum_r w_r b_r (x) c_r (x) c_r with
modes 2 and 3 sharing the factor c_r.  The quadratic pipelines produce it
with b_r the output row; the scalar-output cubic model produces the fully
symmetric sum_r w_r c_r^(x)3, which is the case b_r = +-c_r.

One path: Jennrich's simultaneous diagonalization (Leurgans, Ross & Abel,
SIAM J. Matrix Anal. Appl. 1993) in the signal subspace.  T is projected
once onto the top-k left singular vectors V of the shared-mode unfolding, so
inverses act on k x k matrices and never amplify the d - k noise directions.
Any two slice combinations M_1, M_2 of that core share the eigenvectors
V^T c_r, read off M_1 M_2^-1 and mapped back by V; mode-1 factors and
weights are then fit to T by least squares.  One random pair can be nearly
degenerate, so several pairs are tried and the lowest-residual fit is kept;
each fit is scored on the design of its least squares, not rebuilt.
The pairs are small (k x k pencils, d^2 x k designs), so they run as one
stacked pass of numpy calls rather than one loop iteration each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence_models import AssumptionError

CANDIDATES = 8
DEFAULT_TOL = 1e-10
RANK_TOL = 1e-10


@dataclass
class CpDecomposition:
    """Rank-k fit T ~ sum_r weights[r] * mode1[:, r] (x) factor[:, r] (x) factor[:, r].

    Columns of mode1 and factor have unit norm, the weights are nonnegative
    and components are sorted by decreasing weight; mode1 carries the signs.
    Each factor column has its first significant entry made positive (the
    flip is invisible to the squared pair).  For a fully symmetric tensor
    mode1[:, r] = +-factor[:, r], and that sign is the sign of the term.
    failed is how many of decompose's candidates were skipped.
    """

    weights: np.ndarray
    mode1: np.ndarray
    factor: np.ndarray
    failed: int = 0

    @property
    def rank(self) -> int:
        return self.weights.shape[0]

    def reconstruct(self) -> np.ndarray:
        return np.einsum("r,ar,ir,jr->aij", self.weights, self.mode1,
                         self.factor, self.factor)

    def residual(self, T: np.ndarray) -> float:
        """||T - reconstruct()|| / ||T||, summed over the column-major
        unfolding of T that decompose reads, so the bits depend only on T's
        values."""
        T = np.asfortranarray(np.reshape(T, (np.shape(T)[0], -1)))
        nT = np.linalg.norm(T)
        if nT == 0:
            return 0.0
        return float(np.linalg.norm(T - self.reconstruct().reshape(T.shape)) / nT)


def _finalize(weights, mode1, factor, rank_tol=RANK_TOL, sig_tol=1e-8):
    """Sign convention, rank detection, and sorting of nonnegative weights.

    A factor column is negated when its first entry above sig_tol of its
    largest magnitude is negative; a column of zeros or with a NaN has no such
    entry and keeps its sign.  There are k = d_h columns, so one pass over all
    of them replaces a loop of small numpy calls per column; each column gets
    the same comparisons and the same negation.
    """
    if weights.size == 0 or np.max(weights) == 0.0:
        d1, d = mode1.shape[0], factor.shape[0]
        return np.zeros(0), np.zeros((d1, 0)), np.zeros((d, 0))
    keep = np.flatnonzero(weights >= rank_tol * np.max(weights))
    order = keep[np.argsort(-weights[keep], kind="stable")]
    weights, mode1, factor = weights[order], mode1[:, order], factor[:, order]
    size = np.abs(factor)
    sig = size > sig_tol * size.max(axis=0)
    first = factor[np.argmax(sig, axis=0), np.arange(order.size)]
    np.negative(factor, out=factor, where=sig.any(axis=0) & (first < 0))
    return weights, mode1, factor


def _fit_residuals(unfolded, weights, mode1, G):
    """||T - fit_c|| of each candidate c, T given as its d1 x d^2 unfolding:
    fit_c = (mode1_c * weights_c) G_c^T on the stacked designs G (c x d^2 x
    k, column r the vec of factor_r factor_r^T) that the mode-1 least
    squares already formed, so factor (x) factor is not rebuilt."""
    fit = (mode1 * weights[:, None, :]) @ G.transpose(0, 2, 1)
    return np.linalg.norm((unfolded - fit).reshape(len(fit), -1), axis=1)


def decompose(T: np.ndarray, k: int, seed: int = 0) -> CpDecomposition:
    """Rank-k pair-symmetric CP decomposition of an order-3 tensor.

    All CANDIDATES slice pairs are drawn at once from default_rng(seed), as
    standard_normal((CANDIDATES, 2, 1, d1)): candidate c's two slice vectors
    are the stream's draws 2c and 2c + 1, so the result is deterministic
    given the seed.  The candidates then run as one stacked pass: one product
    forms every slice matrix (a 1 x d1 row against the d1 x k^2 core each,
    the product a single slice would make), one inv and one eig give every
    pencil's factors, and one SVD of the stacked d^2 x k designs fits every
    mode-1 least squares, with lstsq's rank rule.  That least squares reads
    one column-major unfolding of T whatever T's memory layout, so the bits
    depend only on T's values.  A candidate whose pencil
    is singular or whose factors are rank deficient is skipped, and the
    result's failed counts the skipped; the first candidate with the lowest
    residual is returned, each scored on the designs its least squares
    formed (_fit_residuals), components below the weight cut left out.  If
    every candidate is skipped, or a stacked LAPACK call fails,
    AssumptionError (stage "stage1") is raised.
    Components with weight below 1e-10 of the largest are dropped (a zero
    tensor yields rank 0).
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 3 or T.shape[1] != T.shape[2]:
        raise ValueError("expected an order-3 tensor with equal trailing modes")
    d1, d = T.shape[0], T.shape[1]
    if not 1 <= k <= d:
        raise ValueError("rank must be between 1 and the trailing dimension")
    if np.linalg.norm(T) == 0.0:
        return CpDecomposition(weights=np.zeros(0), mode1=np.zeros((d1, 0)),
                               factor=np.zeros((d, 0)))
    V = np.linalg.svd(T.transpose(1, 0, 2).reshape(d, -1), full_matrices=False)[0][:, :k]
    # T(., V, V) as the two reshaped products np.tensordot forms, on its operands
    TV = T.transpose(0, 2, 1).reshape(d1 * d, d) @ V
    core = TV.reshape(d1, d, k).transpose(0, 2, 1).reshape(d1 * k, d) @ V
    theta = np.random.default_rng(seed).standard_normal((CANDIDATES, 2, 1, d1))
    M = (theta @ core.reshape(d1, k * k)).reshape(CANDIDATES, 2, k, k)
    M = 0.5 * (M + M.swapaxes(2, 3))
    M = M[np.linalg.slogdet(M[:, 1])[0] != 0]  # inv raises exactly where slogdet's sign is 0
    try:
        # shared factors: the pencil's eigenvectors, mapped back by V
        C = V @ np.real(np.linalg.eig(M[:, 0] @ np.linalg.inv(M[:, 1]))[1])
        norms = np.linalg.norm(C, axis=1)
        live = np.all(norms >= DEFAULT_TOL, axis=1)
        factor = C[live] / norms[live, None, :]
        # mode-1 least squares of T against the c_r c_r^T basis
        G = (factor[:, :, None, :] * factor[:, None, :, :]).reshape(-1, d * d, k)
        W, s, Vh = np.linalg.svd(G, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise AssumptionError(f"stage 1: the stacked candidate solve failed: {exc}",
                              stage="stage1") from None
    live = np.all(s > np.finfo(float).eps * max(d * d, k) * s[:, :1], axis=1)
    factor, G, W, s, Vh = factor[live], G[live], W[live], s[live], Vh[live]
    if not live.any():
        raise AssumptionError(f"rank deficiency: none of {CANDIDATES} candidates fits; "
                              "check full-rank assumption", stage="stage1")
    unfolded = np.asfortranarray(T.reshape(d1, -1))  # the moment kernel's layout
    B = (unfolded @ W / s[:, None, :]) @ Vh  # c x d1 x k, lstsq's solution
    weights = np.linalg.norm(B, axis=1)
    mode1 = np.divide(B, weights[:, None, :], out=np.zeros_like(B),
                      where=weights[:, None, :] > 0)
    kept = weights * (weights >= RANK_TOL * weights.max(axis=1, keepdims=True))
    best = int(np.argmin(_fit_residuals(unfolded, kept, mode1, G)))
    return CpDecomposition(*_finalize(weights[best], mode1[best], factor[best]),
                           failed=CANDIDATES - len(B))

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
degenerate, so several pairs are tried and the lowest-residual fit is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence_models import AssumptionError
from .tensor_core import multilinear

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
    """

    weights: np.ndarray
    mode1: np.ndarray
    factor: np.ndarray

    @property
    def rank(self) -> int:
        return self.weights.shape[0]

    def reconstruct(self) -> np.ndarray:
        return np.einsum("r,ar,ir,jr->aij", self.weights, self.mode1,
                         self.factor, self.factor)

    def residual(self, T: np.ndarray) -> float:
        nT = np.linalg.norm(T)
        if nT == 0:
            return 0.0
        return float(np.linalg.norm(T - self.reconstruct()) / nT)


def _slice_matrix(T: np.ndarray, theta: np.ndarray) -> np.ndarray:
    M = np.tensordot(theta, T, axes=(0, 0))
    return 0.5 * (M + M.T)


def _finalize(weights, mode1, factor, rank_tol=RANK_TOL, sig_tol=1e-8):
    """Sign convention, rank detection, and sorting of nonnegative weights."""
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


def _fit_mode1(T: np.ndarray, factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares mode-1 coefficients of T against the c_r c_r^T basis."""
    d1 = T.shape[0]
    k = factor.shape[1]
    G = np.stack([np.outer(factor[:, r], factor[:, r]).ravel()
                  for r in range(k)], axis=1)
    B, _, grank, _ = np.linalg.lstsq(G, T.reshape(d1, -1).T, rcond=None)
    if grank < k:
        raise AssumptionError("rank deficiency; check full-rank assumption", stage="stage1")
    B = B.T  # d1 x k
    weights = np.linalg.norm(B, axis=0)
    mode1 = np.divide(B, weights, out=np.zeros_like(B), where=weights > 0)
    return weights, mode1


def _candidate(T: np.ndarray, core: np.ndarray, V: np.ndarray,
               rng: np.random.Generator) -> CpDecomposition:
    """One fit from the pencil of two random slice combinations of the core.

    The shared factors are the eigenvectors of M_1 M_2^-1, mapped back to
    the shared mode by V; mode-1 factors and weights follow by least squares.
    """
    d1 = T.shape[0]
    M1 = _slice_matrix(core, rng.standard_normal(d1))
    M2 = _slice_matrix(core, rng.standard_normal(d1))
    C = V @ np.real(np.linalg.eig(M1 @ np.linalg.inv(M2))[1])
    norms = np.linalg.norm(C, axis=0)
    if np.any(norms < DEFAULT_TOL):
        raise AssumptionError("rank deficiency; check full-rank assumption", stage="stage1")
    factor = C / norms
    weights, mode1 = _fit_mode1(T, factor)
    return CpDecomposition(*_finalize(weights, mode1, factor))


def decompose(T: np.ndarray, k: int, seed: int = 0) -> CpDecomposition:
    """Rank-k pair-symmetric CP decomposition of an order-3 tensor.

    CANDIDATES candidates (_candidate) draw their slice pairs from one
    default_rng(seed) stream, and the first with the lowest residual(T) is
    returned, so the result is deterministic given the seed.  A candidate
    whose pencil is singular or whose factors are rank deficient is skipped;
    if every one is, AssumptionError (stage "stage1") is raised.  Components
    with weight below 1e-10 of the largest are dropped (a zero tensor yields
    rank 0).
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
    core = multilinear(T, None, V, V)
    rng = np.random.default_rng(seed)
    fits = []
    for _ in range(CANDIDATES):
        try:
            fits.append(_candidate(T, core, V, rng))
        except (AssumptionError, np.linalg.LinAlgError):
            # bind no exception: its traceback would tie the callers' frames,
            # and their arrays, into a reference cycle
            continue
    if not fits:
        raise AssumptionError(f"rank deficiency: none of {CANDIDATES} candidates fits; "
                              "check full-rank assumption", stage="stage1")
    return min(fits, key=lambda cp: cp.residual(T))

"""Parameter recovery from score cross-moments.

Stage 1 decomposes the second-order cross-moment
    T2 = 2 sum_k A2[k] (x) a_k (x) a_k
to read off the input rows a_k (unit norm by convention) and the output rows
A2[k] with their scale.  Stage 2 recovers the recurrence from the reshaped
fourth-order cross-moment, whose per-unit blocks are pair-symmetrizations of
H_k = 2 sum_j U_kj a_j a_j^T, fit row by row by least squares.  Bidirectional
models add a mirrored backward stage; cubic units (scalar output only) use the
symmetric third-order moment instead; the linear model is handled in closed
form from lagged first-order blocks, given its input map.

Row signs of even-degree units are not identifiable (flipping an input row
together with its recurrence row leaves the unit invariant), so recovered rows
follow the sign convention of the decomposition and recurrence entries are
determined up to matching row sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cp_decomp import CpDecomposition, decompose, decompose_symmetric
from .sequence_models import AssumptionError
from .tensor_core import pinv

NO_RECURRENCE_RATIO = 0.1


@dataclass
class RnnEstimate:
    A1: np.ndarray
    A2: np.ndarray
    U: np.ndarray | None
    l: int
    no_recurrence: bool = False


@dataclass
class BrnnEstimate:
    A1: np.ndarray
    B1: np.ndarray
    A2: np.ndarray
    U: np.ndarray | None
    V: np.ndarray | None
    no_recurrence: bool = False


def _check_rank(cp: CpDecomposition, k: int) -> None:
    """Stage 1 must keep every requested component (decompose drops small ones)."""
    if cp.rank < k:
        raise AssumptionError(f"stage 1: rank deficiency, kept {cp.rank} of {k} components")


def _stage1_factors(
    T2: np.ndarray, k: int, seed: int, cp: CpDecomposition | None = None,
) -> tuple[np.ndarray, np.ndarray, CpDecomposition]:
    """Input rows (unit) and output rows with scale from the quadratic moment.

    cp, if given, is decompose(T2, k=k, seed=seed), already computed.
    """
    if cp is None:
        cp = decompose(T2, k=k, seed=seed)
    _check_rank(cp, k)
    A1 = cp.factor.T                      # k x d_x, unit rows
    A2 = (cp.mode1 * (cp.weights / 2.0)).T  # k x d_y
    return A1, A2, cp


def _unit_blocks(T4: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """Per-unit d^2 x d^2 blocks Q_k from mode-1 coefficients A2[k]."""
    d_y, D, _ = T4.shape
    k = A2.shape[0]
    T4mat = T4.reshape(d_y, D * D)
    Q = pinv(A2.T) @ T4mat
    return Q.reshape(k, D, D)


def _pairings(Ha: np.ndarray, Hb: np.ndarray) -> np.ndarray:
    """Three index pairings of two symmetric matrices, flattened to d^2 x d^2."""
    d = Ha.shape[0]
    P = (np.einsum("ij,kl->ijkl", Ha, Hb)
         + np.einsum("ik,jl->ijkl", Ha, Hb)
         + np.einsum("il,jk->ijkl", Ha, Hb))
    return P.reshape(d * d, d * d)


def fit_recurrence_row(Q_k: np.ndarray, A1: np.ndarray) -> np.ndarray:
    """One recurrence row from its fourth-order block, given the input rows.

    The block is quadratic in the row u through H(u) = 2 sum_j u_j a_j a_j^T,
    so it is linear in the outer product u u^T.  Fit that outer product by
    least squares over a symmetric basis, then take the dominant eigenvector.
    The row sign is not determined by the block.
    """
    k = A1.shape[0]
    H = [2.0 * np.outer(A1[p], A1[p]) for p in range(k)]
    cols = []
    index = []
    for p in range(k):
        for q in range(p, k):
            if p == q:
                block = 2.0 * _pairings(H[p], H[p])
            else:
                block = 2.0 * (_pairings(H[p], H[q]) + _pairings(H[q], H[p]))
            cols.append(block.ravel())
            index.append((p, q))
    G = np.stack(cols, axis=1)
    coef = np.linalg.lstsq(G, Q_k.ravel(), rcond=None)[0]
    X = np.zeros((k, k))
    for (p, q), c in zip(index, coef):
        X[p, q] = c
        X[q, p] = c
    vals, vecs = np.linalg.eigh(X)
    i = int(np.argmax(np.abs(vals)))
    return np.sqrt(abs(vals[i])) * vecs[:, i]


def recover_recurrence(
    T4: np.ndarray,
    A1: np.ndarray,
    A2: np.ndarray,
) -> np.ndarray:
    """Recurrence matrix from the reshaped fourth-order cross-moment.

    Each unit block is fit by least squares against the quadratic pattern
    in its recurrence row (fit_recurrence_row); row signs are indeterminate.
    """
    Q = _unit_blocks(T4, A2)
    return np.stack([fit_recurrence_row(Q[r], A1) for r in range(A1.shape[0])])


def recover_quadratic(
    T2: np.ndarray,
    d_h: int,
    T4: np.ndarray | None = None,
    seed: int = 0,
    *,
    stage1: CpDecomposition | None = None,
) -> RnnEstimate:
    """Recover quadratic-unit model parameters from score cross-moments.

    stage1, if given, is decompose(T2, k=d_h, seed=seed) computed earlier;
    it is used instead of decomposing again.
    """
    A1, A2, cp = _stage1_factors(T2, d_h, seed, stage1)
    U = None
    no_rec = False
    if T4 is not None:
        if np.linalg.norm(T4) < NO_RECURRENCE_RATIO * np.linalg.norm(T2):
            U = np.zeros((d_h, d_h))
            no_rec = True
        else:
            U = recover_recurrence(T4, A1, A2)
    return RnnEstimate(A1=A1, A2=A2, U=U, l=2, no_recurrence=no_rec)


def recover_scalar(
    T3: np.ndarray,
    d_h: int,
    l: int = 3,
    seed: int = 0,
) -> RnnEstimate:
    """Recover cubic units with scalar output from the symmetric third-order moment.

    T3 = 6 sum_k a2_k a_k^(x)3, so factors give the input rows and signed
    weights give the output coefficients.  Odd degree makes row signs
    identifiable here.
    """
    if l < 3:
        raise ValueError("scalar output requires l >= 3")
    cp = decompose_symmetric(T3, k=d_h, seed=seed)
    _check_rank(cp, d_h)
    A1 = cp.factor.T
    a2 = cp.weights / 6.0  # signed weights; third derivative of z^3 is 6
    return RnnEstimate(A1=A1, A2=a2.reshape(-1, 1), U=None, l=l)


def recover_brnn(
    T2: np.ndarray,
    d_h: int,
    T4_back: np.ndarray | None = None,
    T4_fwd: np.ndarray | None = None,
    seed: int = 0,
    *,
    stage1: CpDecomposition | None = None,
) -> BrnnEstimate:
    """Recover a bidirectional quadratic model.

    Stage 1 yields all 2*d_h direction rows jointly; the shifted fourth-order
    moments (output against the score one step back or one step forward)
    separate forward from backward units when recurrences are present.  With
    both shifted moments absent or negligible the split falls back to weight
    order and the recurrences are reported as zero.  stage1, if given, is
    decompose(T2, k=2 * d_h, seed=seed) computed earlier; it is used instead
    of decomposing again.
    """
    if T2.shape[0] < 2 * d_h:
        raise ValueError("output dimension insufficient for BRNN identifiability")
    C, A2, cp = _stage1_factors(T2, 2 * d_h, seed, stage1)
    n2 = np.linalg.norm(T2)

    back_rows = np.zeros(2 * d_h)
    fwd_rows = np.zeros(2 * d_h)
    Qb = Qf = None
    if T4_back is not None and np.linalg.norm(T4_back) >= NO_RECURRENCE_RATIO * n2:
        Qb = _unit_blocks(T4_back, A2)
        back_rows = np.linalg.norm(Qb.reshape(2 * d_h, -1), axis=1)
    if T4_fwd is not None and np.linalg.norm(T4_fwd) >= NO_RECURRENCE_RATIO * n2:
        Qf = _unit_blocks(T4_fwd, A2)
        fwd_rows = np.linalg.norm(Qf.reshape(2 * d_h, -1), axis=1)

    if Qb is None and Qf is None:
        fwd = np.arange(d_h)
        bwd = np.arange(d_h, 2 * d_h)
        return BrnnEstimate(A1=C[fwd], B1=C[bwd], A2=np.vstack([A2[fwd], A2[bwd]]),
                            U=None, V=None, no_recurrence=True)

    # forward units respond to the backward-shifted score and vice versa
    score_diff = back_rows - fwd_rows
    order = np.argsort(-score_diff, kind="stable")
    fwd = np.sort(order[:d_h])
    bwd = np.sort(order[d_h:])

    A1, B1 = C[fwd], C[bwd]
    U = np.zeros((d_h, d_h))
    V = np.zeros((d_h, d_h))
    if Qb is not None:
        for i, r in enumerate(fwd):
            U[i] = fit_recurrence_row(Qb[r], A1)
    if Qf is not None:
        for i, r in enumerate(bwd):
            V[i] = fit_recurrence_row(Qf[r], B1)
    return BrnnEstimate(A1=A1, B1=B1, A2=np.vstack([A2[fwd], A2[bwd]]),
                        U=U, V=V)


def recover_linear(
    C0: np.ndarray,
    C1: np.ndarray | None = None,
    A1_known: np.ndarray | None = None,
    tol: float = 1e-10,
) -> RnnEstimate:
    """Recover a linear model from lagged first-order blocks C_k = A2^T U^k A1.

    Without a known A1 the factors are not separable (any invertible mixing
    between A2 and A1 fits), so only the blocks themselves are identified; in
    that case A1 is reported as the identity and the blocks fold into A2, U.
    """
    if A1_known is None:
        A2t = C0
        A1 = np.eye(C0.shape[1])
        U = None
        if C1 is not None:
            U = pinv(A2t, tol=tol) @ C1
        return RnnEstimate(A1=A1, A2=A2t.T, U=U, l=1)
    A1_inv = pinv(A1_known, tol=tol)
    A2t = C0 @ A1_inv
    U = None
    if C1 is not None:
        U = pinv(A2t, tol=tol) @ C1 @ A1_inv
    return RnnEstimate(A1=A1_known, A2=A2t.T, U=U, l=1)


# ---------------------------------------------------------------------------
# data-level pipelines
# ---------------------------------------------------------------------------


def quadratic_moments(data, spec, d_h, burn_in=10, seed=0, with_recurrence=True):
    """Moments of a quadratic model from a sequence: (T2, T4, stage1).

    stage1 is decompose(T2, k=d_h, seed=seed).  T4 (None without the
    recurrence) subtracts the no-recurrence prediction implied by the
    stage-1 input and output weights.  That prediction depends on the
    current input only, so its cross-moment with the lagged score is zero
    and the subtraction only reduces variance.
    """
    from .moments import cross_moment_s2, cross_moment_s4_reshaped
    from .score import centered_scores

    s = centered_scores(spec, data.x)
    T2 = cross_moment_s2(spec, data, burn_in=burn_in, scores=s).value
    A1, A2, cp = _stage1_factors(T2, d_h, seed)
    T4 = None
    if with_recurrence:
        baseline = A2.T @ (A1 @ data.x) ** 2
        T4 = cross_moment_s4_reshaped(spec, data, shift=-1, burn_in=burn_in,
                                      baseline=baseline, scores=s).value
    return T2, T4, cp


def train_quadratic(data, spec, d_h, burn_in=10, seed=0,
                    with_recurrence=True) -> RnnEstimate:
    """Full quadratic pipeline from a sequence: quadratic_moments then recovery."""
    T2, T4, cp = quadratic_moments(data, spec, d_h, burn_in, seed, with_recurrence)
    return recover_quadratic(T2, d_h, T4=T4, seed=seed, stage1=cp)


def train_brnn(data, spec, d_h, burn_in=10, seed=0, with_recurrence=True) -> BrnnEstimate:
    from .moments import cross_moment_s2, cross_moment_s4_reshaped
    from .score import centered_scores

    s = centered_scores(spec, data.x)
    T2 = cross_moment_s2(spec, data, burn_in=burn_in, scores=s).value
    T4b = T4f = cp = None
    if with_recurrence:
        C, A2, cp = _stage1_factors(T2, 2 * d_h, seed)
        baseline = A2.T @ (C @ data.x) ** 2
        T4b = cross_moment_s4_reshaped(spec, data, shift=-1, burn_in=burn_in,
                                       baseline=baseline, scores=s).value
        T4f = cross_moment_s4_reshaped(spec, data, shift=+1, burn_in=burn_in,
                                       baseline=baseline, scores=s).value
    return recover_brnn(T2, d_h, T4_back=T4b, T4_fwd=T4f, seed=seed, stage1=cp)


def train_scalar(data, spec, d_h, l=3, burn_in=10, seed=0) -> RnnEstimate:
    from .moments import cross_moment_s3_scalar

    if l < 3:
        raise ValueError("scalar output requires l >= 3")
    T3 = cross_moment_s3_scalar(spec, data, burn_in=burn_in).value
    return recover_scalar(T3, d_h, l=l, seed=seed)


def train_linear(data, spec, max_lag=1, A1_known=None, burn_in=10) -> RnnEstimate:
    """Linear pipeline from lagged Toeplitz blocks C_k = A2^T U^k A1.

    The blocks identify A2 and U only given the input map, so A1_known is
    declared side information; without it see recover_linear.
    """
    from .moments import toeplitz_blocks

    blocks = toeplitz_blocks(spec, data, max_lag=max(max_lag, 1), burn_in=burn_in)
    return recover_linear(blocks[0].value, blocks[1].value, A1_known=A1_known)

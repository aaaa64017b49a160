"""Cross-moments of observed outputs with sequence score tensors.

Empirical estimators average y_t (x) S_m(t + shift) over interior positions of a
single long chain, after a burn-in.  The s^(x)m parts of S_2, S_3 and S_4 are
output-weighted sums of symmetric polynomials in the score vector s, so one
kernel accumulates them with BLAS products over the d(d+1)/2 unique pair
products s_i s_j (i <= j), block by block along the aligned positions, and
expands the result to every index through a pair-index map.  The order-4
moment is returned in its reshaped d_y x d_x^2 x d_x^2 form.

The population oracle evaluates the same moments in closed form for a known
model; the polynomial activations have constant high-order derivatives in the
relevant input, so these values are exact and serve as ground truth in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .score import centered_scores, precision_matrix
from .sequence_models import BrnnParams, MarkovChainSpec, RnnParams, SequenceData

DEFAULT_BURN_IN = 10

# Aligned positions per block of the moment kernel, so the pair products and
# their output-weighted copies stay in cache.
_MOMENT_BLOCK = 1024


@dataclass(frozen=True)
class MomentTensor:
    value: np.ndarray
    kind: str        # "S1-matrix", "S2-order3", "S3-order4-scalar", "S4-reshaped-order3", ...
    n_used: int
    shift: int = 0


def _aligned_slices(n: int, shift: int, burn_in: int) -> tuple[slice, slice]:
    """0-based output positions t, and score positions t + shift, such that
    t + shift is an interior score position."""
    lo = max(1, 1 - shift) + burn_in
    hi = min(n - 2, n - 2 - shift)
    if hi < lo:
        raise ValueError("sequence too short for the requested shift and burn-in")
    return slice(lo, hi + 1), slice(lo + shift, hi + 1 + shift)


def _output_matrix(data: SequenceData) -> np.ndarray:
    return np.atleast_2d(np.asarray(data.y, dtype=float))


def _centered_pairs(spec, data, shift, burn_in, scores=None, baseline=None):
    """Centered outputs Y (d_y x N) and the scores S (d_x x N) aligned with them.

    Centering leaves every S_m cross-moment (m >= 1) unchanged in expectation,
    since E[S_m] = 0, and removes the variance of the mean output against
    score fluctuations.  scores, if given, are centered_scores(spec, data.x).
    """
    if scores is None:
        scores = centered_scores(spec, data.x)
    scores = np.asarray(scores, dtype=float)
    if scores.shape != data.x.shape:
        raise ValueError(f"scores must have the shape of x {data.x.shape}, got {scores.shape}")
    out, sc = _aligned_slices(data.n, shift, burn_in)
    Y = _output_matrix(data)[:, out]
    if baseline is not None:
        Y = Y - np.asarray(baseline, dtype=float)[:, out]
    Y = Y - Y.mean(axis=1, keepdims=True)
    return Y, scores[:, sc]


def _compact_positions(d: int, order: int) -> np.ndarray:
    """Position in the kernel's compact sums of every full index, row-major.

    The compact layouts are pair (order 2), pair x k (order 3) and
    pair x pair (order 4), with pairs i <= j in np.triu_indices order; the
    map sends (i, j) and (j, i) to the same pair.
    """
    iu, ju = np.triu_indices(d)
    pair = np.empty((d, d), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(iu.size)
    idx = np.indices((d,) * order).reshape(order, -1)
    pos = pair[idx[0], idx[1]]
    if order == 3:
        pos = pos * d + idx[2]
    elif order == 4:
        pos = pos * iu.size + pair[idx[2], idx[3]]
    return pos


def _score_power_means(
    Y: np.ndarray, S: np.ndarray, order: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Means over t of Y[:, t] (x) s_t^(x)2 and, for order 3 or 4, of
    Y[:, t] (x) s_t^(x)order, from one pass over the positions.

    Each block forms the unique pair products P = s_i s_j (i <= j) once:
    Y P^T gives the order-2 sums, and (P * Y_a) R^T per output a gives the
    higher order, with R = S for order 3 and R = P for order 4.  Both results
    come back as full d_y x d^m arrays, the order-2 one exactly symmetric in
    its score indices.  The second result is None for order 2.
    """
    d_y, N = Y.shape
    d = S.shape[0]
    iu, ju = np.triu_indices(d)
    low = np.zeros((d_y, iu.size))
    high = np.zeros((d_y, iu.size, d if order == 3 else iu.size))
    for start in range(0, N, _MOMENT_BLOCK):
        Sb = S[:, start:start + _MOMENT_BLOCK]
        Yb = Y[:, start:start + _MOMENT_BLOCK]
        P = Sb[iu] * Sb[ju]
        low += Yb @ P.T
        if order > 2:
            R = Sb if order == 3 else P
            for a in range(d_y):
                high[a] += (P * Yb[a]) @ R.T

    def expand(sums, m):
        full = sums.reshape(d_y, -1)[:, _compact_positions(d, m)] / N
        return full.reshape((d_y,) + (d,) * m)

    return expand(low, 2), (expand(high, order) if order > 2 else None)


def cross_moment_s1(
    spec: MarkovChainSpec,
    data: SequenceData,
    shift: int = 0,
    burn_in: int = DEFAULT_BURN_IN,
) -> MomentTensor:
    """E[y_t (x) S_1(t + shift)] as a d_y x d_x matrix."""
    y = _output_matrix(data)
    s = centered_scores(spec, data.x)
    out, sc = _aligned_slices(data.n, shift, burn_in)
    Y = y[:, out]
    val = Y @ s[:, sc].T / Y.shape[1]
    return MomentTensor(value=val, kind="S1-matrix", n_used=Y.shape[1], shift=shift)


def cross_moment_s2(
    spec: MarkovChainSpec,
    data: SequenceData,
    shift: int = 0,
    burn_in: int = DEFAULT_BURN_IN,
    *,
    scores: np.ndarray | None = None,
) -> MomentTensor:
    """E[y_t (x) S_2(t + shift)] as a d_y x d_x x d_x tensor.

    Uses S_2 = s s^T - Lambda.  The output is centered first, which also makes
    the Lambda term vanish from the average.  scores, if given, are
    centered_scores(spec, data.x), passed so one dataset computes them once.
    """
    Y, S = _centered_pairs(spec, data, shift, burn_in, scores=scores)
    val, _ = _score_power_means(Y, S, 2)
    return MomentTensor(value=val, kind="S2-order3", n_used=Y.shape[1], shift=shift)


def cross_moment_s3(
    spec: MarkovChainSpec,
    data: SequenceData,
    shift: int = 0,
    burn_in: int = DEFAULT_BURN_IN,
) -> MomentTensor:
    """E[y_t (x) S_3(t + shift)] as a d_y x d_x x d_x x d_x tensor."""
    Lam = precision_matrix(spec)
    Y, S = _centered_pairs(spec, data, shift, burn_in)
    N = Y.shape[1]
    _, val = _score_power_means(Y, S, 3)
    ys = Y @ S.T / N  # E[y (x) s]
    val -= (np.einsum("ai,jk->aijk", ys, Lam)
            + np.einsum("aj,ik->aijk", ys, Lam)
            + np.einsum("ak,ij->aijk", ys, Lam))
    return MomentTensor(value=val, kind="S3-order4", n_used=N, shift=shift)


def cross_moment_s3_scalar(
    spec: MarkovChainSpec,
    data: SequenceData,
    shift: int = 0,
    burn_in: int = DEFAULT_BURN_IN,
) -> MomentTensor:
    """E[y_t S_3(t + shift)] for scalar outputs, a d_x x d_x x d_x tensor."""
    if _output_matrix(data).shape[0] != 1:
        raise ValueError("third-order moment path expects a scalar output")
    full = cross_moment_s3(spec, data, shift=shift, burn_in=burn_in)
    return MomentTensor(value=full.value[0], kind="S3-order4-scalar",
                        n_used=full.n_used, shift=shift)


def cross_moment_s4_reshaped(
    spec: MarkovChainSpec,
    data: SequenceData,
    shift: int = -1,
    burn_in: int = DEFAULT_BURN_IN,
    baseline: np.ndarray | None = None,
    *,
    scores: np.ndarray | None = None,
) -> MomentTensor:
    """E[y_t (x) S_4(t + shift)] reshaped to d_y x d_x^2 x d_x^2.

    Index grouping: mode 1 is the output, mode 2 flattens score indices (1,2)
    and mode 3 flattens (3,4), both row-major.  The output is centered first
    (E[S_4] = 0 leaves the expectation unchanged).  One kernel pass gives the
    s^(x)4 average, as output-weighted Gram matrices of the unique pair
    products s_i s_j (i <= j), and the s (x) s average the Lambda corrections
    are built from.

    baseline, if given, is a d_y x n array of per-step predictions that depend
    on x_t only; it is subtracted from the output before averaging.  The score
    at t + shift has zero conditional mean given the other positions, so any
    function of x_t alone has zero cross-moment with it and the subtraction
    changes nothing in expectation while removing most of the variance.
    scores, if given, are centered_scores(spec, data.x).
    """
    Lam = precision_matrix(spec)
    Y, S = _centered_pairs(spec, data, shift, burn_in, scores=scores, baseline=baseline)
    d_y, N = Y.shape
    d = S.shape[0]
    M, T = _score_power_means(Y, S, 4)  # M = E[(y - mean) (x) s (x) s]

    # The centered output makes the Lambda (x) Lambda terms vanish, so only
    # the six s (x) s placements remain.
    T -= (np.einsum("aij,kl->aijkl", M, Lam)
          + np.einsum("aik,jl->aijkl", M, Lam)
          + np.einsum("ail,jk->aijkl", M, Lam)
          + np.einsum("ajk,il->aijkl", M, Lam)
          + np.einsum("ajl,ik->aijkl", M, Lam)
          + np.einsum("akl,ij->aijkl", M, Lam))
    val = T.reshape(d_y, d * d, d * d)
    return MomentTensor(value=val, kind="S4-reshaped-order3", n_used=N, shift=shift)


def toeplitz_blocks(
    spec: MarkovChainSpec,
    data: SequenceData,
    max_lag: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> list[MomentTensor]:
    """[C_0, ..., C_max_lag] with C_k = E[y_t (x) S_1(t - k)]."""
    return [cross_moment_s1(spec, data, shift=-k, burn_in=burn_in)
            for k in range(max_lag + 1)]


# ---------------------------------------------------------------------------
# exact population values
# ---------------------------------------------------------------------------


def _pair_sym4(H: np.ndarray) -> np.ndarray:
    """H_ij H_kl + H_ik H_jl + H_il H_jk for a symmetric matrix H."""
    return (np.einsum("ij,kl->ijkl", H, H)
            + np.einsum("ik,jl->ijkl", H, H)
            + np.einsum("il,jk->ijkl", H, H))


def population_moment_oracle(
    params: RnnParams | BrnnParams,
    kind: str,
    shift: int = 0,
) -> np.ndarray:
    """Exact expected cross-moment for a known model.

    Supported kinds:
      "S2-order3"         quadratic units; 2 sum_k A2[k] (x) a_k (x) a_k, where
                          for the bidirectional model the input rows run over
                          both directions.
      "S4-reshaped-order3" quadratic units, shift -1 (forward recurrence) or
                          +1 (backward recurrence); the relevant output block
                          is a quartic with constant fourth derivative
                          2 * pair-symmetrization of H_k = 2 sum_j R_kj r_j r_j^T.
      "S3-order4-scalar"  cubic units, scalar output; 6 sum_k a2_k a_k^(x)3.
      "S1-matrix"         linear units at lag -shift: A2^T U^(-shift) A1.
    """
    if kind == "S2-order3":
        if isinstance(params, BrnnParams):
            C = np.vstack([params.A1, params.B1])
        else:
            C = params.A1
        A2 = params.A2
        return 2.0 * np.einsum("ka,ki,kj->aij", A2, C, C)

    if kind == "S4-reshaped-order3":
        if shift not in (-1, 1):
            raise ValueError("fourth-order oracle is defined at shift -1 or +1")
        if isinstance(params, BrnnParams):
            d_h = params.d_h
            if shift == -1:
                R, rows, A2 = params.U, params.A1, params.A2[:d_h]
            else:
                R, rows, A2 = params.V, params.B1, params.A2[d_h:]
        else:
            if shift != -1:
                raise ValueError("a forward model has no backward fourth-order moment")
            R, rows, A2 = params.U, params.A1, params.A2
        d = rows.shape[1]
        d_y = A2.shape[1]
        out = np.zeros((d_y, d, d, d, d))
        for k in range(R.shape[0]):
            H = 2.0 * np.einsum("j,ji,jl->il", R[k], rows, rows)
            out += np.multiply.outer(A2[k], 2.0 * _pair_sym4(H))
        return out.reshape(d_y, d * d, d * d)

    if kind == "S3-order4":
        if not isinstance(params, RnnParams) or params.l != 3:
            raise ValueError("third-order oracle needs cubic forward units")
        return 6.0 * np.einsum("ka,ki,kj,kl->aijl", params.A2,
                               params.A1, params.A1, params.A1)

    if kind == "S3-order4-scalar":
        if not isinstance(params, RnnParams) or params.l < 3:
            raise ValueError("third-order oracle needs cubic forward units")
        a2 = params.A2[:, 0]
        return 6.0 * np.einsum("k,ki,kj,kl->ijl", a2, params.A1, params.A1, params.A1)

    if kind == "S1-matrix":
        if not isinstance(params, RnnParams) or params.l != 1:
            raise ValueError("lagged first-order oracle needs linear units")
        lag = -shift
        if lag < 0:
            raise ValueError("lag must be nonnegative")
        return params.A2.T @ np.linalg.matrix_power(params.U, lag) @ params.A1

    raise ValueError(f"unknown moment kind: {kind!r}")

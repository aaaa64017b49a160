"""Cross-moments of observed outputs with sequence score tensors.

Empirical estimators average y_t (x) S_m(t + shift) over interior positions of a
single long chain, after a burn-in.  The order-4 moment is accumulated directly
in its reshaped d_y x d_x^2 x d_x^2 form through per-output Gram products so the
cost stays at BLAS level.

The population oracle evaluates the same moments in closed form for a known
model; the polynomial activations have constant high-order derivatives in the
relevant input, so these values are exact and serve as ground truth in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .score import centered_scores, precision_matrix
from .sequence_models import (BrnnParams, MarkovChainSpec, RnnParams, SequenceData,
                              _unroll)

DEFAULT_BURN_IN = 10


@dataclass(frozen=True)
class MomentTensor:
    value: np.ndarray
    kind: str        # "S1-matrix", "S2-order3", "S3-order4-scalar", "S4-reshaped-order3", ...
    n_used: int
    shift: int = 0


def _aligned_indices(n: int, shift: int, burn_in: int) -> np.ndarray:
    """0-based output positions t such that t + shift is an interior score position."""
    lo = max(1, 1 - shift) + burn_in
    hi = min(n - 2, n - 2 - shift)
    if hi < lo:
        raise ValueError("sequence too short for the requested shift and burn-in")
    return np.arange(lo, hi + 1)


def _output_matrix(data: SequenceData) -> np.ndarray:
    return np.atleast_2d(np.asarray(data.y, dtype=float))


def cross_moment_s1(
    spec: MarkovChainSpec,
    data: SequenceData,
    shift: int = 0,
    burn_in: int = DEFAULT_BURN_IN,
) -> MomentTensor:
    """E[y_t (x) S_1(t + shift)] as a d_y x d_x matrix."""
    y = _output_matrix(data)
    s = centered_scores(spec, data.x)
    idx = _aligned_indices(data.n, shift, burn_in)
    val = y[:, idx] @ s[:, idx + shift].T / idx.size
    return MomentTensor(value=val, kind="S1-matrix", n_used=idx.size, shift=shift)


def cross_moment_s2(
    spec: MarkovChainSpec,
    data: SequenceData,
    shift: int = 0,
    burn_in: int = DEFAULT_BURN_IN,
) -> MomentTensor:
    """E[y_t (x) S_2(t + shift)] as a d_y x d_x x d_x tensor.

    Uses S_2 = s s^T - Lambda.  The output is centered first: E[S_2] = 0, so
    subtracting the mean leaves the expectation unchanged and removes the
    variance contributed by the mean output against score fluctuations.
    """
    y = _output_matrix(data)
    s = centered_scores(spec, data.x)
    Lam = precision_matrix(spec)
    idx = _aligned_indices(data.n, shift, burn_in)
    Y = y[:, idx]
    Y = Y - Y.mean(axis=1, keepdims=True)
    S = s[:, idx + shift]
    val = np.einsum("at,it,jt->aij", Y, S, S) / idx.size
    return MomentTensor(value=val, kind="S2-order3", n_used=idx.size, shift=shift)


def cross_moment_s3(
    spec: MarkovChainSpec,
    data: SequenceData,
    shift: int = 0,
    burn_in: int = DEFAULT_BURN_IN,
) -> MomentTensor:
    """E[y_t (x) S_3(t + shift)] as a d_y x d_x x d_x x d_x tensor."""
    y = _output_matrix(data)
    s = centered_scores(spec, data.x)
    Lam = precision_matrix(spec)
    idx = _aligned_indices(data.n, shift, burn_in)
    Y = y[:, idx]
    Y = Y - Y.mean(axis=1, keepdims=True)
    S = s[:, idx + shift]
    val = np.einsum("at,it,jt,kt->aijk", Y, S, S, S) / idx.size
    ys = Y @ S.T / idx.size  # E[y (x) s]
    val -= (np.einsum("ai,jk->aijk", ys, Lam)
            + np.einsum("aj,ik->aijk", ys, Lam)
            + np.einsum("ak,ij->aijk", ys, Lam))
    return MomentTensor(value=val, kind="S3-order4", n_used=idx.size, shift=shift)


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
    chunk: int = 20000,
    baseline: np.ndarray | None = None,
) -> MomentTensor:
    """E[y_t (x) S_4(t + shift)] reshaped to d_y x d_x^2 x d_x^2.

    Index grouping: mode 1 is the output, mode 2 flattens score indices (1,2)
    and mode 3 flattens (3,4), both row-major.  The output is centered first
    (E[S_4] = 0 leaves the expectation unchanged), then the s^(x)4 part is
    accumulated as weighted Gram matrices of the columns of s (x) s, in
    chunks, and the Lambda corrections are subtracted from low-order averages.

    baseline, if given, is a d_y x n array of per-step predictions that depend
    on x_t only; it is subtracted from the output before averaging.  The score
    at t + shift has zero conditional mean given the other positions, so any
    function of x_t alone has zero cross-moment with it and the subtraction
    changes nothing in expectation while removing most of the variance.
    """
    y = _output_matrix(data)
    s = centered_scores(spec, data.x)
    Lam = precision_matrix(spec)
    idx = _aligned_indices(data.n, shift, burn_in)
    d_y = y.shape[0]
    d = s.shape[0]
    Y = y[:, idx]
    if baseline is not None:
        Y = Y - np.asarray(baseline, dtype=float)[:, idx]
    Y = Y - Y.mean(axis=1, keepdims=True)
    S = s[:, idx + shift]
    N = idx.size

    gram = np.zeros((d_y, d * d, d * d))
    for start in range(0, N, chunk):
        Sc = S[:, start:start + chunk]
        Yc = Y[:, start:start + chunk]
        K = (Sc[:, None, :] * Sc[None, :, :]).reshape(d * d, Sc.shape[1])
        for a in range(d_y):
            gram[a] += (K * Yc[a]) @ K.T
    gram /= N

    M = np.einsum("at,it,jt->aij", Y, S, S) / N  # E[(y - mean) (x) s (x) s]

    # The centered output makes the Lambda (x) Lambda terms vanish, so only
    # the six s (x) s placements remain.
    T = gram.reshape(d_y, d, d, d, d)
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


def measured_activation_scale(params: RnnParams, data: SequenceData, order: int = 2) -> np.ndarray:
    """Trajectory average of the order-th derivative of each unit's activation.

    For monomial units z^l the derivative is l!/(l-order)! z^(l-order)
    evaluated at the pre-activations, so the average is measurable from a
    simulated trajectory even when no closed form exists (U nonzero).
    """
    l = params.l
    if order > l:
        return np.zeros(params.d_h)
    h = _unroll(params.A1, params.U, l, data.x).T
    pre = params.A1 @ data.x + params.U @ np.hstack([np.zeros((params.d_h, 1)), h[:, :-1]])
    coeff = 1.0
    for j in range(order):
        coeff *= (l - j)
    return coeff * np.mean(pre ** (l - order), axis=1)


def save_moment(path: str, moment: MomentTensor) -> None:
    """SPT1 tensor plus a sidecar text record (kind, n_used, shift)."""
    from . import spt1

    spt1.write_tensor(path, moment.value)
    with open(f"{path}.meta", "w", encoding="utf-8") as fh:
        fh.write(f"kind = {moment.kind}\n"
                 f"n_used = {moment.n_used}\n"
                 f"shift = {moment.shift}\n")


def load_moment(path: str) -> MomentTensor:
    from . import spt1

    value = spt1.read_tensor(path)
    meta = {}
    with open(f"{path}.meta", "r", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, raw = line.split("=", 1)
                meta[key.strip()] = raw.strip()
    return MomentTensor(value=value, kind=meta.get("kind", "unknown"),
                        n_used=int(meta.get("n_used", 0)),
                        shift=int(meta.get("shift", 0)))

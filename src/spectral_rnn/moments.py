"""Cross-moments of observed outputs with sequence score tensors.

Empirical estimators average y_t (x) S_m(t + shift) over interior positions of a
single long chain, after a burn-in.  The s^(x)m parts of S_2, S_3 and S_4 are
output-weighted sums of the unique monomials s_i1 ... s_im (i1 <= ... <= im)
of the score vector s, so one kernel sums them with one BLAS product per
block of positions and expands the sums to every index.  The order-4 moment
is reshaped to d_y x d^2 x d^2, in the input coordinates or those of
orthonormal rows B: S_4 is multilinear in s and Lambda, so contracting each
score mode with B gives S_4 of the scores B s with precision B Lambda B^T.

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


def _scores_of(spec, data, scores=None):
    """scores if given, checked to have the shape of x, else centered_scores(spec, data.x)."""
    if scores is None:
        return centered_scores(spec, data.x)
    scores = np.asarray(scores, dtype=float)
    if scores.shape != data.x.shape:
        raise ValueError(f"scores must have the shape of x {data.x.shape}, got {scores.shape}")
    return scores


def _centered_pairs(spec, data, shift, burn_in, scores=None, baseline=None):
    """Centered outputs Y (d_y x N) and the scores S (d_x x N) aligned with them.

    Centering leaves every S_m cross-moment (m >= 1) unchanged in expectation,
    since E[S_m] = 0, and removes the variance of the mean output against
    score fluctuations.  scores, if given, are centered_scores(spec, data.x).
    """
    scores = _scores_of(spec, data, scores)
    out, sc = _aligned_slices(data.n, shift, burn_in)
    Y = _output_matrix(data)[:, out]
    if baseline is not None:
        Y = Y - np.asarray(baseline, dtype=float)[:, out]
    Y = Y - Y.mean(axis=1, keepdims=True)
    return Y, scores[:, sc]


def _monomials(d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tuples i1 <= ... <= im in lexicographic order (m x count), and
    the position among them of every full index, row-major: the position of
    its sorted tuple.  At m = 2 the tuples are np.triu_indices(d)."""
    full = np.indices((d,) * m).reshape(m, -1)
    keep = np.all(full[:-1] <= full[1:], axis=0)
    rank = np.cumsum(keep) - 1
    return full[:, keep], rank[np.ravel_multi_index(np.sort(full, axis=0), (d,) * m)]


def _score_power_means(
    Y: np.ndarray, S: np.ndarray, order: int, basis: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Means over t of Y[:, t] (x) s_t^(x)2 and, for order 3 or 4, of
    Y[:, t] (x) s_t^(x)order, from one pass over the positions, with s_t the
    columns of S or, given basis, of basis @ S (projected block by block).

    Each block forms the unique pair products P = s_i s_j (i <= j) once, and
    Y P^T gives the order-2 sums; the unique higher-order monomials M are
    gathered as P times s_k (order 3) or P times P (order 4), and Y M^T gives
    theirs.  Both results come back as full d_y x d^m arrays, exactly
    symmetric in their score indices; the second is None for order 2.
    """
    d_y, N = Y.shape
    d = S.shape[0] if basis is None else basis.shape[0]
    (iu, ju), pair = _monomials(d, 2)
    mono, pos = _monomials(d, order)
    head = pair[mono[0] * d + mono[1]]
    tail = mono[2] if order == 3 else pair[mono[-2] * d + mono[-1]]
    low = np.zeros((d_y, iu.size))
    high = np.zeros((d_y, mono.shape[1]))
    for start in range(0, N, _MOMENT_BLOCK):
        Sb = S[:, start:start + _MOMENT_BLOCK]
        Sb = Sb if basis is None else basis @ Sb
        Yb = Y[:, start:start + _MOMENT_BLOCK]
        P = Sb[iu] * Sb[ju]
        low += Yb @ P.T
        if order > 2:
            high += Yb @ (P[head] * (Sb if order == 3 else P)[tail]).T

    def expand(sums, positions, m):
        return (sums[:, positions] / N).reshape((d_y,) + (d,) * m)

    return expand(low, pair, 2), (expand(high, pos, order) if order > 2 else None)


def cross_moment_s1(
    spec: MarkovChainSpec,
    data: SequenceData,
    shift: int = 0,
    burn_in: int = DEFAULT_BURN_IN,
    *,
    scores: np.ndarray | None = None,
) -> MomentTensor:
    """E[y_t (x) S_1(t + shift)] as a d_y x d_x matrix.  scores, if given,
    are centered_scores(spec, data.x), passed so one dataset computes them once."""
    y = _output_matrix(data)
    s = _scores_of(spec, data, scores)
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
    basis: np.ndarray | None = None,
) -> MomentTensor:
    """E[y_t (x) S_4(t + shift)] reshaped to d_y x d_x^2 x d_x^2.

    Index grouping: mode 1 is the output, mode 2 flattens score indices (1,2)
    and mode 3 flattens (3,4), both row-major.  The output is centered first
    (E[S_4] = 0 leaves the expectation unchanged).  One kernel pass gives the
    s^(x)4 average and the s (x) s average the Lambda corrections are built
    from.

    baseline, if given, is a d_y x n array of per-step predictions that depend
    on x_t only; it is subtracted from the output before averaging.  The score
    at t + shift has zero conditional mean given the other positions, so any
    function of x_t alone has zero cross-moment with it and the subtraction
    changes nothing in expectation while removing most of the variance.
    scores, if given, are centered_scores(spec, data.x).  basis, if given, is
    a k x d_x matrix B with orthonormal rows; the result is then the moment
    with every score mode contracted with B, d_y x k^2 x k^2.
    """
    Lam = precision_matrix(spec)
    if basis is not None:
        Lam = basis @ Lam @ basis.T
    Y, S = _centered_pairs(spec, data, shift, burn_in, scores=scores, baseline=baseline)
    d_y, N = Y.shape
    d = Lam.shape[0]
    M, T = _score_power_means(Y, S, 4, basis)  # M = E[(y - mean) (x) s (x) s]

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
    """[C_0, ..., C_max_lag] with C_k = E[y_t (x) S_1(t - k)], from one score pass."""
    scores = centered_scores(spec, data.x)
    return [cross_moment_s1(spec, data, shift=-k, burn_in=burn_in, scores=scores)
            for k in range(max_lag + 1)]


# ---------------------------------------------------------------------------
# exact population values
# ---------------------------------------------------------------------------


def _pair_sym4(Ha: np.ndarray, Hb: np.ndarray) -> np.ndarray:
    """Ha_ij Hb_kl + Ha_ik Hb_jl + Ha_il Hb_jk for symmetric matrices Ha, Hb,
    or pairwise over stacks of them (leading axes broadcast)."""
    return (np.einsum("...ij,...kl->...ijkl", Ha, Hb)
            + np.einsum("...ik,...jl->...ijkl", Ha, Hb)
            + np.einsum("...il,...jk->...ijkl", Ha, Hb))


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
            out += np.multiply.outer(A2[k], 2.0 * _pair_sym4(H, H))
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

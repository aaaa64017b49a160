"""Cross-moments of observed outputs with sequence score tensors.

Empirical estimators average y_t (x) S_m(t + shift) over interior positions of
a single long chain, after a burn-in.  cross_moment serves every order m: the
patterns of score.score_patterns(m) write S_m as s^(x)m plus Lambda
contractions of lower powers of the score vector s, and the s^(x)r parts are
output-weighted sums of the unique monomials s_i1 ... s_ir (i1 <= ... <= ir).
One kernel forms them block by block, each as a row times a run of rows,
sums them with one BLAS product per block and expands the sums to every
index.  One sweep serves several shifts: its blocks sit on one grid anchored
at score position 1 + burn_in, so each shift gets the bits of a sweep for it
alone, and the shifts' moments stack along the output mode.  The moments can
be taken in the input coordinates or those of orthonormal rows B: S_m is
multilinear in s and Lambda, so contracting each score mode with B gives S_m
of the scores B s with precision B Lambda B^T.  cross_moment_s2 and
cross_moment_s4_reshaped (d_y x d^2 x d^2) are the orders the quadratic
pipelines read.  n_used is the number of aligned positions,
n - 2 - burn_in - |shift|.

The population oracle evaluates the same moments in closed form for a known
model; the polynomial activations have constant high-order derivatives in the
relevant input, so these values are exact and serve as ground truth in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .score import centered_scores, precision_matrix, score_patterns
from .sequence_models import BrnnParams, MarkovChainSpec, RnnParams, SequenceData

DEFAULT_BURN_IN = 10

# Aligned positions per block of the moment kernel, and the bytes of monomial
# rows a block may hold, so they stay in cache.
_MOMENT_BLOCK, _MOMENT_WORKSPACE = 4096, 2 << 20

# Kernel rows start on a cache line, so no 64-byte vector load or store of a
# row straddles two lines; rows of at least _ROW_PAD[0] positions get
# _ROW_PAD[1] more columns of stride (see _moment_means for the measurement).
_ROW_ALIGN, _ROW_PAD = 64, (4096, 8)


@dataclass(frozen=True)
class MomentTensor:
    value: np.ndarray
    n_used: int


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


def _monomials(d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tuples i1 <= ... <= im in lexicographic order (m x count), and
    the position among them of every full index, row-major: the position of
    its sorted tuple.  At m = 2 the tuples are np.triu_indices(d)."""
    full = np.indices((d,) * m).reshape(m, -1)
    keep = np.all(full[:-1] <= full[1:], axis=0)
    rank = np.cumsum(keep) - 1
    return full[:, keep], rank[np.ravel_multi_index(np.sort(full, axis=0), (d,) * m)]


@lru_cache(maxsize=None)
def _suffix_plan(d: int, orders: tuple[int, ...]):
    """(mono, offsets, steps) of the kernel's workspace: rows of the scores,
    the pairs unless every order is 1 (each higher order is built from
    them), and each higher order that orders need (m needs m - 2), each in
    _monomials(d, m) order from row offsets[m] (offsets[0]: the row count).
    Step (head, tail, dest) sets rows dest to row head times rows tail, a
    suffix: the order-(m - h) monomials from the head's last index on.
    Cached, so it is read-only."""
    mono = {m: _monomials(d, m) for m in sorted(
        {1, min(2, max(orders))}.union(*(range(2 - m % 2, m + 1, 2) for m in orders)))}
    for arrays in mono.values():
        for a in arrays:
            a.flags.writeable = False
    offsets = dict(zip([*mono, 0], [0, *np.cumsum([mono[m][0].shape[1] for m in mono]).tolist()]))
    steps = []
    for m in list(mono)[1:]:
        h, dest = 1 if m == 2 else 2, offsets[m]
        firsts, end = mono[m - h][0][0], offsets[m - h] + mono[m - h][0].shape[1]
        for j, last in enumerate(mono[h][0][-1]):
            lo = offsets[m - h] + int(np.searchsorted(firsts, last))
            steps.append((offsets[h] + j, slice(lo, end), slice(dest, dest + end - lo)))
            dest += end - lo
    return MappingProxyType(mono), MappingProxyType(offsets), tuple(steps)


def _row_stride(cols: int) -> int:
    """Columns from one _aligned_rows row of cols positions to the next: cols
    rounded up to a cache line, plus the pad from _ROW_PAD[0] columns on."""
    line = _ROW_ALIGN // 8
    return -(-cols // line) * line + (_ROW_PAD[1] if cols >= _ROW_PAD[0] else 0)


def _aligned_rows(rows: int, cols: int) -> np.ndarray:
    """An uninitialised rows x cols float view of one allocation, each row
    starting on a _ROW_ALIGN-byte boundary, _row_stride(cols) apart."""
    stride, line = _row_stride(cols), _ROW_ALIGN // 8
    raw = np.empty(rows * stride + line - 1)
    skip = -raw.ctypes.data % _ROW_ALIGN // 8
    return raw[skip:skip + rows * stride].reshape(rows, stride)[:, :cols]


def _moment_means(
    y: np.ndarray,
    scores: np.ndarray,
    shifts: tuple[int, ...],
    burn_in: int,
    orders: tuple[int, ...],
    basis: np.ndarray | None = None,
) -> list[tuple[int, list[np.ndarray]]]:
    """Per shift, the count N of its aligned positions t and, for each m in
    orders (ascending), the mean over them of Y[:, t] (x) s^(x)m, with s the
    score column t + shift or, given basis, basis @ it (projected block by
    block).  Each mean is a full d_y x d^m array, exactly symmetric in its
    score indices.  Y is y centered over the shift's own positions;
    centering leaves every S_m cross-moment (m >= 1) unchanged in
    expectation, since E[S_m] = 0, and removes the variance of the mean
    output against score fluctuations.

    One sweep walks the union of the shifts' score windows in blocks of
    _MOMENT_BLOCK positions, halved until the call's buffer fits
    _MOMENT_WORKSPACE bytes, and fills its workspace rows with the scores
    and their monomials (_suffix_plan, no gathers); each shift centers its
    block of y into the buffer's last d_y rows and takes one GEMM with the
    requested orders' rows, so no full-length array is formed.

    The buffer is one allocation per call (_aligned_rows): every row starts
    on a 64-byte boundary, and 4096-wide rows are 4104 columns apart.  The
    monomial steps are one-row-by-many broadcast products, bound by vector
    loads and stores.  With BLAS on one thread, median CPU per call
    (Xeon, AVX-512, 48 KiB L1d): at 4096 positions, S2 at d_x = 6, d_y = 6
    and n = 3e5 took 7.8 ms on rows 8-48 bytes off a cache line (np.empty
    gives 16 bytes off), 5.7 ms aligned and 4.6 ms aligned and padded, and
    the two-shift S4 of 4 unit outputs in a 4-row basis 18.2, 13.7 and 11.5
    ms; at 2048 and 1024 positions (S3 at d_x = 6, full-coordinate S4) the
    same pad made the call 1.35-1.67x slower than aligned alone, so those
    rows are not padded.  The layout moves no sum: every mean has the same
    bits on any layout.
    """
    windows = [_aligned_slices(y.shape[1], shift, burn_in) for shift in shifts]
    means = [y[:, out].mean(axis=1, keepdims=True) for out, _ in windows]

    d = scores.shape[0] if basis is None else basis.shape[0]
    mono, offsets, steps = _suffix_plan(d, orders)
    r0 = offsets[orders[0]]  # the rows of every requested order: r0 to the end
    sums = [np.zeros((y.shape[0], offsets[0] - r0)) for _ in shifts]

    lo, hi = min(sc.start for _, sc in windows), max(sc.stop for _, sc in windows)
    rows, block = offsets[0] + y.shape[0], _MOMENT_BLOCK
    while block > 1 and rows * _row_stride(block) * 8 + _ROW_ALIGN > _MOMENT_WORKSPACE:
        block //= 2
    buf = _aligned_rows(rows, min(block, hi - lo))
    work, Yc = buf[:offsets[0]], buf[offsets[0]:]
    prod = np.empty((y.shape[0], offsets[0] - r0))
    S, full = work[:d], [(work[h], work[t], work[o]) for h, t, o in steps]
    for start in range(lo - (lo - 1 - burn_in) % block, hi, block):  # grid anchored at 1 + burn_in
        a, b = max(start, lo), min(start + block, hi)
        if basis is None:
            np.copyto(S[:, :b - a], scores[:, a:b])
        else:
            np.matmul(basis, scores[:, a:b], out=S[:, :b - a])
        for x, t, o in full if b - a == work.shape[1] else [
                (x[:b - a], t[:, :b - a], o[:, :b - a]) for x, t, o in full]:
            np.multiply(x, t, out=o)
        for shift, (_, sc), mean, total in zip(shifts, windows, means, sums):
            p, q = max(a, sc.start), min(b, sc.stop)
            if p >= q:
                continue
            Yb = np.subtract(y[:, p - shift:q - shift], mean, out=Yc[:, :q - p])
            total += np.matmul(Yb, work[r0:, p - a:q - a].T, out=prod)

    result = []
    for (out, _), total in zip(windows, sums):
        N = out.stop - out.start
        result.append((N, [(total[:, offsets[m] - r0 + mono[m][1]] / N)
                           .reshape((y.shape[0],) + (d,) * m) for m in orders]))
    return result


@lru_cache(maxsize=None)
def _pattern_plan(m: int):
    """(orders, groups) of S_m: the kernel orders its score patterns need,
    and its Lambda corrections, one group (r, coeff, subscripts) per count
    r < m of s factors, r descending.  Each term of a group is the einsum of
    the order-r mean with its Lambda factors, in the lexicographic order of
    its s modes; patterns with no s factor are left out (the output is
    centered, so their average is zero)."""
    modes = "ijklmnopqrstuvwxyz"[:m]
    groups: dict[tuple[int, float], list] = {}
    for coeff, (s_modes, pairs) in score_patterns(m):
        if 0 < len(s_modes) < m:
            operands = ["a" + "".join(modes[j] for j in s_modes)]
            operands += [modes[j] + modes[k] for j, k in pairs]
            groups.setdefault((len(s_modes), coeff), []).append(
                (s_modes, pairs, ",".join(operands) + "->a" + modes))
    plan = tuple((r, coeff, tuple(sub for *_, sub in sorted(terms)))
                 for (r, coeff), terms in sorted(groups.items(), reverse=True))
    return tuple(range(2 - m % 2, m + 1, 2)), plan


def cross_moment(
    spec: MarkovChainSpec,
    data: SequenceData,
    m: int,
    shift: int | tuple[int, ...] = 0,
    burn_in: int = DEFAULT_BURN_IN,
    *,
    scores: np.ndarray | None = None,
    basis: np.ndarray | None = None,
) -> MomentTensor:
    """E[y_t (x) S_m(t + shift)] as a d_y x d_x^m tensor, for any order m.

    S_m is expanded by score.score_patterns: the kernel gives the means of
    y (x) s^(x)r for the orders r the patterns need, and each pattern with
    r < m s factors contracts its mean with Lambda at its pairs.  The terms
    with r s factors are summed in the lexicographic order of their s modes
    and the sum is added with the group's sign, groups by descending r.  The
    output is centered first (E[S_m] = 0 leaves the expectation unchanged),
    which makes the patterns with no s factor vanish.

    shift may be a tuple of shifts: one pass over the union of their score
    windows then gives every shift's moment, stacked along the output mode
    in the order given (len(shift) * d_y rows), each block bit for bit the
    moment of a call with that shift alone, since the kernel's blocks sit on
    one grid anchored at score position 1 + burn_in.  n_used is the number
    of aligned positions, n - 2 - burn_in - |shift|; for a tuple, the fewest
    of any of its shifts.

    scores, if given, are centered_scores(spec, data.x), passed so one
    dataset computes them once.  basis, if given, is a k x d_x matrix B with
    orthonormal rows; S_m is multilinear in s and Lambda, so the result is
    the moment with every score mode contracted with B, d_y x k^m, taken
    from the scores B s and the precision B Lambda B^T.
    """
    orders, groups = _pattern_plan(m)
    Lam = precision_matrix(spec)
    if basis is not None:
        Lam = basis @ Lam @ basis.T
    shifts = tuple(int(s) for s in np.atleast_1d(shift))
    parts = _moment_means(_output_matrix(data), _scores_of(spec, data, scores),
                          shifts, burn_in, orders, basis)
    vals = []
    for _, means in parts:
        mean = dict(zip(orders, means))
        val = mean[m]
        for r, coeff, subscripts in groups:
            total = np.einsum(subscripts[0], mean[r], *[Lam] * ((m - r) // 2))
            for sub in subscripts[1:]:
                total += np.einsum(sub, mean[r], *[Lam] * ((m - r) // 2))
            total *= coeff
            val += total
        vals.append(val)
    return MomentTensor(value=np.concatenate(vals) if np.ndim(shift) > 0 else vals[0],
                        n_used=min(N for N, _ in parts))


def cross_moment_s2(
    spec: MarkovChainSpec,
    data: SequenceData,
    burn_in: int = DEFAULT_BURN_IN,
    *,
    scores: np.ndarray | None = None,
) -> MomentTensor:
    """cross_moment at m = 2 and shift 0: E[y_t (x) S_2(t)], d_y x d_x x d_x."""
    return cross_moment(spec, data, 2, 0, burn_in, scores=scores)


def cross_moment_s4_reshaped(
    spec: MarkovChainSpec,
    data: SequenceData,
    shift: int | tuple[int, ...] = -1,
    burn_in: int = DEFAULT_BURN_IN,
    *,
    scores: np.ndarray | None = None,
    basis: np.ndarray | None = None,
) -> MomentTensor:
    """cross_moment at m = 4 reshaped to d_y x d^2 x d^2 (d = d_x, or k with
    basis; a tuple shift stacks its blocks along mode 1).  Mode 2 flattens
    score indices (1,2) and mode 3 flattens (3,4), both row-major."""
    T = cross_moment(spec, data, 4, shift, burn_in, scores=scores, basis=basis)
    d = T.value.shape[1]
    return MomentTensor(value=T.value.reshape(-1, d * d, d * d), n_used=T.n_used)


# ---------------------------------------------------------------------------
# exact population values
# ---------------------------------------------------------------------------


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
      "S3-order4"         cubic units; 6 sum_k A2[k] (x) a_k (x) a_k (x) a_k
                          (d_y x d_x^3; a scalar output reads [0]).
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
        k, d = rows.shape
        d_y = A2.shape[1]
        H = 2.0 * np.einsum("kj,ji,jl->kil", R, rows, rows).reshape(k, d * d)
        # T1[y, i, j, l, m] = sum_k A2[k, y] H_k[i, j] H_k[l, m] in one GEMM; the
        # other two pairings of the four indices are transposes of it
        T1 = ((A2[:, :, None] * H[:, None, :]).reshape(k, -1).T @ H).reshape((d_y,) + (d,) * 4)
        out = T1 + T1.transpose(0, 1, 3, 2, 4)
        out += T1.transpose(0, 1, 3, 4, 2)
        out *= 2.0
        return out.reshape(d_y, d * d, d * d)

    if kind == "S3-order4":
        if not isinstance(params, RnnParams) or params.l != 3:
            raise ValueError("third-order oracle needs cubic forward units")
        return 6.0 * np.einsum("ka,ki,kj,kl->aijl", params.A2,
                               params.A1, params.A1, params.A1)

    if kind == "S1-matrix":
        if not isinstance(params, RnnParams) or params.l != 1:
            raise ValueError("lagged first-order oracle needs linear units")
        lag = -shift
        if lag < 0:
            raise ValueError("lag must be nonnegative")
        return params.A2.T @ np.linalg.matrix_power(params.U, lag) @ params.A1

    raise ValueError(f"unknown moment kind: {kind!r}")

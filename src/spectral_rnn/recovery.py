"""Parameter recovery from score cross-moments.

Stage 1 decomposes the second-order cross-moment
    T2 = 2 sum_k A2[k] (x) a_k (x) a_k
to read off the input rows a_k (unit norm by convention) and the output rows
A2[k] with their scale.  It decomposes in one place, _stage1_factors: the
data pipelines reach it through recover_quadratic and recover_brnn, and the
decompose command calls it.  Stage 2 always fits the recurrence, row by row
by least squares (fit_recurrence_row), from the per-unit blocks of a shifted
reshaped fourth-order cross-moment, pair-symmetrizations of
H_k = 2 sum_j U_kj a_j a_j^T.  A2 has full row rank, so M = pinv(A2^T)
maps the outputs to the units (h = M y): the data pipelines take the moment
of the k unit outputs M y - (A1 x)^2 directly (_moments), while the tensor
entry points (recover_*) unmix a given d_y-row moment with M; both then run
the same fits.  train_quadratic is quadratic_moments (scores, T2, stage 1
and that unit-output moment, which the moments command writes) followed by
the row fits.  The blocks lie in the span of the stage-1 input rows, so the
data pipelines take the moment and the rows in the coordinates of an
orthonormal basis of that span, and every fit, on the full-coordinate
oracle moment too, projects its block onto the span of the rows it is
given: a k^4-row least squares for k rows, never a d^4-row one.
Projecting with orthonormal rows drops only what no design column can
reach, so the fit is the same.  The rows of one direction share their
input rows, so the basis, the projection and the design's factored solve
are built once per direction (_row_fit_plan); each row fit is then the
projection of its block, one product with that solve and a k x k eigh.
Both quadratic families run these two stages; the bidirectional model fits
forward units from the backward shift and backward units from the forward
shift.  Cubic units (scalar output only)
read stage 1 off the symmetric third-order moment
6 sum_k a2_k a_k (x) a_k (x) a_k with the same decomposition; they have no
recurrence stage.  The linear model is realized in closed form from its
lagged first-order blocks (recover_linear), up to a similarity.

Row signs of even-degree units are not identifiable (flipping an input row
together with its recurrence row leaves the unit invariant), so recovered rows
follow the sign convention of the decomposition and recurrence entries are
determined up to matching row sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cp_decomp import CpDecomposition, decompose
from .moments import DEFAULT_BURN_IN
from .sequence_models import AssumptionError, SequenceData

@dataclass
class RnnEstimate:
    A1: np.ndarray
    A2: np.ndarray
    U: np.ndarray | None


@dataclass
class BrnnEstimate:
    A1: np.ndarray
    B1: np.ndarray
    A2: np.ndarray
    U: np.ndarray | None
    V: np.ndarray | None


def _check_rank(cp: CpDecomposition, k: int) -> None:
    """Stage 1 must keep every requested component (decompose drops small ones)."""
    if cp.rank < k:
        raise AssumptionError(f"stage 1: rank deficiency, kept {cp.rank} of {k} components",
                              stage="stage1")


def _stage1_factors(T2: np.ndarray, k: int, seed: int
                    ) -> tuple[np.ndarray, np.ndarray, CpDecomposition]:
    """Input rows (unit) and output rows with scale from the quadratic
    moment, and the decomposition cp = decompose(T2, k=k, seed=seed) they
    are read from: the one place stage 1 decomposes."""
    cp = decompose(T2, k=k, seed=seed)
    _check_rank(cp, k)
    A1 = cp.factor.T                      # k x d_x, unit rows
    A2 = (cp.mode1 * (cp.weights / 2.0)).T  # k x d_y
    return A1, A2, cp


def _output_map(A2: np.ndarray) -> np.ndarray:
    """M = pinv(A2^T), which maps the outputs to the units' activations
    (h = M y).  A2 must have rank k at pinv's relative cut, or the blocks of
    dependent units mix.  One SVD of A2^T gives both the rank and M, built
    as np.linalg.pinv(A2.T, rcond=1e-10) builds it, so M has its bits."""
    k = A2.shape[0]
    u, s, vt = np.linalg.svd(A2.T, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s.max(initial=0.0)))
    if rank < k:
        raise AssumptionError(f"recurrence: A2 rank {rank} of {k}", stage="recurrence")
    return vt.T @ ((1.0 / s)[:, None] * u.T)


def _unit_blocks(T4: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """Per-unit d^2 x d^2 blocks Q_k of a mixed moment, unmixed by _output_map(A2)."""
    d_y, D, _ = T4.shape
    Q = _output_map(A2) @ T4.reshape(d_y, D * D)
    return Q.reshape(A2.shape[0], D, D)


def _design(rows: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The recurrence fit's design for k rows r_p: one m^2 x m^2 column per
    pair (p, q), p <= q, the block of u_p u_q + u_q u_p (of u_p^2 at p = q).
    Each H_p = 2 r_p r_p^T is rank one, so with a = vec(r_p r_p^T),
    b = vec(r_q r_q^T) and s = vec(r_p r_q^T + r_q r_p^T) the column is
    4 w (a b^T + b a^T + s s^T), w = 1 at p = q and 2 otherwise: one stacked
    rank-3 product."""
    k, m = rows.shape
    outer = (rows[:, None, :, None] * rows[None, :, None, :]).reshape(k, k, m * m)
    a, b, s = outer[p, p], outer[q, q], outer[p, q] + outer[q, p]
    w = 4.0 * np.where(p == q, 1.0, 2.0)[:, None, None]
    return (w * np.stack([a, b, s], axis=2)) @ np.stack([b, a, s], axis=1)


@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, q, sym): np.triu_indices(k), the design's column pairs p <= q, and
    the k x k array whose entry (i, j) is the position of the pair
    (min(i, j), max(i, j)) among them.  Cached per k, like
    moments._suffix_plan, so read-only."""
    p, q = np.triu_indices(k)
    sym = np.zeros((k, k), dtype=np.intp)
    sym[p, q] = sym[q, p] = np.arange(p.size)
    for a in (p, q, sym):
        a.flags.writeable = False
    return p, q, sym


def _row_fit_plan(rows: np.ndarray):
    """The part of the recurrence fit that every row of one direction
    shares, built once: (BB, sym, solve).  B has orthonormal rows spanning
    the input rows' (m = min(k, d) of them), BB = B(x)B projects a d^2 x d^2
    block to B's coordinates, solve is the minimum-norm least-squares solve
    of the design (_design, on the rows in B's coordinates, one column per
    pair p <= q), from one SVD with lstsq's rank rule (singular values at
    most eps * max(shape) of the largest are dropped), so a rank-deficient
    design gets lstsq's answer, and sym gathers the k x k symmetric matrix
    from the solution, one entry per pair.  The pairs and sym come from a
    per-k cache (_pairs): k = d_h is small, so np.triu_indices' per-call
    cost would outweigh the work; they are the same pairs in the same
    order."""
    B = np.linalg.qr(rows.T)[0].T
    m, d = B.shape
    BB = (B[:, None, :, None] * B[None, :, None, :]).reshape(m * m, d * d)
    p, q, sym = _pairs(rows.shape[0])
    G = _design(rows @ B.T, p, q).reshape(p.size, -1).T
    W, s, Vh = np.linalg.svd(G, full_matrices=False)
    keep = s > np.finfo(float).eps * max(G.shape) * s.max(initial=0.0)
    solve = (Vh[keep].T / s[keep]) @ W[:, keep].T
    return BB, sym, solve


def fit_recurrence_row(Q_k: np.ndarray, A1: np.ndarray, plan=None) -> np.ndarray:
    """One recurrence row from its fourth-order block, given the input rows.

    The block is quadratic in the row u through H(u) = 2 sum_j u_j a_j a_j^T,
    so it is linear in the outer product u u^T.  Fit that outer product by
    least squares over a symmetric basis, then take the dominant eigenvector.
    The row sign is not determined by the block.  Each H_p is rank one, so
    the design is formed in closed form (_design).

    Every design column lies in span(a_1..a_k)^(x)4, so the fit runs in the
    coordinates of B, orthonormal rows spanning A1's: (B(x)B) Q_k (B(x)B)^T
    against the rows A1 B^T, a least squares of m^4 rows (B has m = min(k, d)
    rows) instead of d^4.  B(x)B has orthonormal rows, so the part of Q_k the
    design cannot reach drops out and the solution is the same.

    plan is _row_fit_plan(A1), built here when not given: B, B(x)B and the
    design's solve depend only on A1, so _recurrence_rows builds them once
    per direction, and a row costs the projection, one product with the
    solve and a k x k eigh.  A non-finite projected block is an
    AssumptionError at stage "recurrence".
    """
    BB, sym, solve = _row_fit_plan(A1) if plan is None else plan
    with np.errstate(all="ignore"):  # a non-finite block is reported below
        block = (BB @ Q_k @ BB.T).ravel()
    if not np.isfinite(block).all():
        raise AssumptionError("recurrence: non-finite unit block", stage="recurrence")
    vals, vecs = np.linalg.eigh((solve @ block)[sym])
    i = int(np.argmax(np.abs(vals)))
    return np.sqrt(abs(vals[i])) * vecs[:, i]


def _recurrence_rows(Q: np.ndarray, A1: np.ndarray, units,
                     basis: np.ndarray | None = None) -> np.ndarray:
    """Recurrence rows of one direction from per-unit blocks Q (ordered as the
    stage-1 rows): the blocks of the direction's units (indices into Q,
    ordered as the rows of A1) are each fit by least squares, one
    fit_recurrence_row call per row on one shared _row_fit_plan.  basis, if
    given, has orthonormal rows spanning those of A1, and Q is in its
    coordinates."""
    rows = A1 if basis is None else A1 @ basis.T
    plan = _row_fit_plan(rows)
    return np.stack([fit_recurrence_row(Q[r], rows, plan) for r in units])


def recover_quadratic(
    T2: np.ndarray,
    d_h: int,
    T4: np.ndarray | None = None,
    seed: int = 0,
) -> RnnEstimate:
    """Recover quadratic-unit model parameters from score cross-moments.

    Stage 1 is decompose(T2, k=d_h, seed=seed) (_stage1_factors).  T4, if
    given, is a mixed reshaped fourth-order moment (d_y rows) in the input
    coordinates, unmixed against all stage-1 output rows A2 once
    (_unit_blocks), then fit as in _recurrence_rows; without it U is None.
    Row signs are indeterminate.
    """
    A1, A2, _ = _stage1_factors(T2, d_h, seed)
    U = None if T4 is None else _recurrence_rows(_unit_blocks(T4, A2), A1, range(d_h))
    return RnnEstimate(A1=A1, A2=A2, U=U)


def recover_scalar(T3: np.ndarray, d_h: int, seed: int = 0) -> RnnEstimate:
    """Recover cubic units with scalar output from the symmetric third-order moment.

    T3 = 6 sum_k a2_k a_k^(x)3 is pair-symmetric with mode1_k = +-a_k, so
    decompose reads it: factors give the input rows, and each weight, signed
    by <mode1_k, factor_k>, gives an output coefficient.  Odd degree makes
    row signs identifiable.
    """
    cp = decompose(T3, k=d_h, seed=seed)
    _check_rank(cp, d_h)
    sign = np.sign(np.sum(cp.mode1 * cp.factor, axis=0))
    a2 = sign * cp.weights / 6.0  # third derivative of z^3 is 6
    return RnnEstimate(A1=cp.factor.T, A2=a2.reshape(-1, 1), U=None)


def recover_brnn(
    T2: np.ndarray,
    d_h: int,
    T4_back: np.ndarray | None = None,
    T4_fwd: np.ndarray | None = None,
    seed: int = 0,
) -> BrnnEstimate:
    """Recover a bidirectional quadratic model from mixed moments (d_y rows,
    input coordinates).

    Stage 1, decompose(T2, k=2 * d_h, seed=seed), yields all 2*d_h direction
    rows jointly, in weight order.  Each given shift is unmixed once
    (_unit_blocks) and _split_brnn reads the directions and their
    recurrences off the unit blocks; a shift not given leaves its recurrence
    None, and with neither the rows stay in weight order.
    """
    if T2.shape[0] < 2 * d_h:
        raise ValueError("output dimension insufficient for BRNN identifiability")
    C, A2, _ = _stage1_factors(T2, 2 * d_h, seed)
    Q_back, Q_fwd = (None if T4 is None else _unit_blocks(T4, A2) for T4 in (T4_back, T4_fwd))
    return _split_brnn(C, A2, Q_back, Q_fwd)


def _split_brnn(C, A2, Q_back, Q_fwd, basis=None) -> BrnnEstimate:
    """Split the 2*d_h stage-1 rows C (output rows A2) into directions and fit
    each from the unit blocks of its shift (None: no recurrence).

    Forward units respond to the score one step back, backward units to the
    score one step ahead, so the d_h units whose block norm in Q_back most
    exceeds that in Q_fwd are forward (a stable sort: equal norms, as at a
    zero moment or with neither shift, give weight order).
    """
    d_h = C.shape[0] // 2

    def block_norms(Q):
        return np.zeros(2 * d_h) if Q is None else np.linalg.norm(Q.reshape(2 * d_h, -1), axis=1)

    order = np.argsort(block_norms(Q_fwd) - block_norms(Q_back), kind="stable")
    fwd = np.sort(order[:d_h])
    bwd = np.sort(order[d_h:])
    A1, B1 = C[fwd], C[bwd]
    U = None if Q_back is None else _recurrence_rows(Q_back, A1, fwd, basis)
    V = None if Q_fwd is None else _recurrence_rows(Q_fwd, B1, bwd, basis)
    return BrnnEstimate(A1=A1, B1=B1, A2=np.vstack([A2[fwd], A2[bwd]]), U=U, V=V)


def recover_linear(C0: np.ndarray, C1: np.ndarray, d_h: int) -> RnnEstimate:
    """Realize a linear model from its lagged blocks C_k = A2^T U^k A1, the
    Markov parameters, which fix it only up to a similarity T (T A1,
    T U T^-1, T^-T A2).  With C0's top-d_h SVD P S Q^T: A2^T = P S^1/2,
    A1 = S^1/2 Q^T and U = pinv(A2^T) C1 pinv(A1) = S^-1/2 P^T C1 Q S^-1/2.
    A C0 of rank below d_h at a 1e-10 relative cut is an AssumptionError at
    stage "realization"; a non-finite one fails the SVD (LinAlgError)."""
    P, s, Qt = np.linalg.svd(C0, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s.max(initial=0.0)))
    if rank < d_h:
        raise AssumptionError(f"realization: C0 rank {rank} of {d_h}", stage="realization")
    P, s, Qt = P[:, :d_h], s[:d_h], Qt[:d_h]
    root = np.sqrt(s)
    return RnnEstimate(A1=root[:, None] * Qt, A2=(P * root).T,
                       U=(P.T @ C1 @ Qt.T) / np.sqrt(np.outer(s, s)))


# ---------------------------------------------------------------------------
# data-level pipelines
# ---------------------------------------------------------------------------


def _second_moment(data, spec, burn_in):
    """(scores, T2) of a dataset: its centered scores and the quadratic
    moment, which stage 1 decomposes."""
    from .moments import cross_moment_s2
    from .score import centered_scores

    s = centered_scores(spec, data.x)
    return s, cross_moment_s2(spec, data, burn_in=burn_in, scores=s).value


def _moments(data, spec, C, A2, shift, burn_in, scores):
    """(basis, {shift: Q}): the per-unit fourth-order blocks of the k stage-1
    units (input rows C, output rows A2), from one cross_moment_s4_reshaped
    call for one shift or a tuple of them.

    The blocks are the moment of the unit outputs Z = M y - (C x)^2, a k x n
    array with M = _output_map(A2) (h = M y), in the coordinates of basis,
    orthonormal rows spanning C's: len(shifts) * k x k^2 x k^2 in all, one
    k-row block per shift.  On noiseless data with the true rows, Z_t is the
    part of h_t that the recurrence adds.  (C x_t)^2 depends on the current
    input only, so its cross-moment with a shifted score is zero and
    subtracting it only reduces variance.
    """
    from .moments import cross_moment_s4_reshaped

    Z = _output_map(A2) @ data.y
    Z -= (C @ data.x) ** 2
    basis = np.linalg.qr(C.T)[0].T
    Q = cross_moment_s4_reshaped(spec, SequenceData(x=data.x, y=Z), shift=shift,
                                 burn_in=burn_in, scores=scores, basis=basis).value
    shifts = np.atleast_1d(shift).tolist()
    return basis, dict(zip(shifts, np.split(Q, len(shifts))))


def quadratic_moments(data, spec, d_h, burn_in=DEFAULT_BURN_IN, seed=0):
    """(T2, est, basis, Q), the front half of train_quadratic: the quadratic
    moment T2, the stage-1 estimate est (recover_quadratic on T2 alone, U
    None), and the shift -1 unit-output moment Q of _moments, d_h x d_h^2 x
    d_h^2 in the coordinates of basis, orthonormal rows spanning est.A1's."""
    s, T2 = _second_moment(data, spec, burn_in)
    est = recover_quadratic(T2, d_h, seed=seed)
    basis, Q = _moments(data, spec, est.A1, est.A2, -1, burn_in, s)
    return T2, est, basis, Q[-1]


def train_quadratic(data, spec, d_h, burn_in=DEFAULT_BURN_IN, seed=0) -> RnnEstimate:
    """Quadratic pipeline from a sequence: quadratic_moments, then the
    recurrence rows fit on its unit blocks (_recurrence_rows)."""
    _, est, basis, Q = quadratic_moments(data, spec, d_h, burn_in, seed)
    est.U = _recurrence_rows(Q, est.A1, range(d_h), basis)
    return est


def train_brnn(data, spec, d_h, burn_in=DEFAULT_BURN_IN, seed=0) -> BrnnEstimate:
    """Bidirectional pipeline: stage 1 (recover_brnn on T2 alone, rows in
    weight order), then the unit blocks of both shifts from one _moments
    pass, split and fit by _split_brnn."""
    s, T2 = _second_moment(data, spec, burn_in)
    first = recover_brnn(T2, d_h, seed=seed)
    C = np.vstack([first.A1, first.B1])
    basis, Q = _moments(data, spec, C, first.A2, (-1, +1), burn_in, s)
    return _split_brnn(C, first.A2, Q[-1], Q[+1], basis)


def train_scalar(data, spec, d_h, l=3, burn_in=DEFAULT_BURN_IN, seed=0) -> RnnEstimate:
    """Cubic units with scalar output: recover_scalar on the third-order
    moment cross_moment(..., 3).value[0]."""
    from .moments import cross_moment

    if l != 3:
        raise ValueError(f"train_scalar fits cubic units (l = 3), got {l}")
    if np.atleast_2d(data.y).shape[0] != 1:
        raise ValueError("third-order moment path expects a scalar output")
    T3 = cross_moment(spec, data, 3, burn_in=burn_in).value[0]
    return recover_scalar(T3, d_h, seed=seed)


def train_linear(data, spec, d_h, burn_in=DEFAULT_BURN_IN) -> RnnEstimate:
    """Linear pipeline: recover_linear on the lagged blocks C_0 and C_1, the
    first-order moments at shifts 0 and -1 from one stacked cross_moment
    call."""
    from .moments import cross_moment

    C0, C1 = np.split(cross_moment(spec, data, 1, shift=(0, -1), burn_in=burn_in).value, 2)
    return recover_linear(C0, C1, d_h)

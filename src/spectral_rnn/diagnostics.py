"""Evaluation utilities: alignment, error bounds and sweeps.

Recovered parameters are only defined up to a hidden-unit permutation and a
per-unit sign.  For even-degree units the sign flips an input row together
with its recurrence row and leaves the unit's output unchanged; for odd
degree it flips the unit's output too, so its output row and its recurrence
column flip with it.  Alignment quotients this group out before computing
errors.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .sequence_models import AssumptionError, RnnParams


@dataclass
class RecoveryReport:
    permutation: np.ndarray          # estimate row permutation[i] matches true row i
    signs: np.ndarray                # +-1 applied to the permuted estimate rows
    A1: np.ndarray                   # aligned estimate
    A2: np.ndarray | None
    U: np.ndarray | None
    per_row_errors: dict             # matrix name -> per-row l2 errors after alignment
    max_error: float
    median_error: float
    u_error: float | None            # max entrywise |.|-gap of recurrences, if compared


def _assignment(cost: np.ndarray) -> np.ndarray:
    """perm with perm[i] the column of row i, minimising sum_i cost[i, perm[i]].

    Shortest augmenting paths with dual potentials u, v (Jonker & Volgenant,
    Computing 1987), O(k^3): rows join in order, each by a Dijkstra search over
    reduced costs that takes ties at the lowest column index.  Column 0 is
    virtual; match[j] is the row (1-based) on column j.  The costs must be
    finite.  k = d_h is small, so numpy's per-call cost would outweigh the
    arithmetic: the search runs on Python floats, with the same operations in
    the same order as the array form, so ties break the same way.
    """
    rows = np.asarray(cost, dtype=float).tolist()
    k = len(rows)
    u, v, match = [0.0] * (k + 1), [0.0] * (k + 1), [0] * (k + 1)
    for i in range(1, k + 1):
        match[0], j0 = i, 0
        dist, way, used = [math.inf] * (k + 1), [0] * (k + 1), [False] * (k + 1)
        while match[j0]:
            used[j0] = True
            row, u0 = rows[match[j0] - 1], u[match[j0]]
            j1, least = 0, math.inf
            for j in range(1, k + 1):
                if not used[j]:
                    reduced = row[j - 1] - u0 - v[j]
                    if reduced < dist[j]:
                        dist[j], way[j] = reduced, j0
                    if dist[j] < least:
                        j1, least = j, dist[j]
            j0, delta = j1, dist[j1]
            for j in range(k + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
        while j0:
            match[j0] = match[way[j0]]
            j0 = way[j0]
    perm = [0] * k
    for j in range(1, k + 1):
        perm[match[j] - 1] = j - 1
    return np.array(perm, dtype=np.intp)


def align(
    A1_est: np.ndarray,
    A1_true: np.ndarray,
    A2_est: np.ndarray | None = None,
    A2_true: np.ndarray | None = None,
    U_est: np.ndarray | None = None,
    U_true: np.ndarray | None = None,
    degree: int = 2,
) -> RecoveryReport:
    """Match estimated units to true units and quotient out the symmetry group.

    The assignment maximizes the summed |cosine| between input rows.  A tie
    goes to the optimum that ``_assignment`` reaches first: true rows join in
    order, and each search step takes the lowest-indexed estimate row among
    those of least reduced cost.  Signs flip aligned A1 rows and the matching
    U rows; for odd degree they also flip A2 rows and U columns, which
    otherwise follow the permutation only.  Errors are not scale-invariant:
    pass the truth in the estimates' unit-input-row convention.
    """
    A1_est = np.asarray(A1_est, dtype=float)
    A1_true = np.asarray(A1_true, dtype=float)
    if A1_est.shape != A1_true.shape:
        raise ValueError("row matrices must have matching shapes")
    k = A1_true.shape[0]
    ne = np.maximum(np.linalg.norm(A1_est, axis=1), 1e-300)
    nt = np.maximum(np.linalg.norm(A1_true, axis=1), 1e-300)
    cos = (A1_true @ A1_est.T) / np.outer(nt, ne)
    if not np.isfinite(cos).all():
        raise ValueError("non-finite rows cannot be aligned")
    perm = _assignment(-np.abs(cos))
    signs = np.sign(cos[np.arange(k), perm])
    signs[signs == 0] = 1.0

    out_signs = signs if degree % 2 else np.ones(k)
    A1a = signs[:, None] * A1_est[perm]
    A2a = out_signs[:, None] * A2_est[perm] if A2_est is not None else None
    Ua = None
    if U_est is not None:
        Ua = signs[:, None] * U_est[np.ix_(perm, perm)] * out_signs

    per_row = {"A1": np.linalg.norm(A1a - A1_true, axis=1)}
    if A2a is not None and A2_true is not None:
        per_row["A2"] = np.linalg.norm(A2a - A2_true, axis=1)
    u_error = None
    if Ua is not None and U_true is not None:
        gap = np.abs(Ua) - np.abs(U_true)
        per_row["U"] = np.linalg.norm(gap, axis=1)
        u_error = float(np.max(np.abs(gap)))
    all_errs = np.concatenate(list(per_row.values()))
    # np.median's value on at most 3k errors without its per-call cost: the
    # middle of the sorted errors, or the mean of the middle two; np.max
    # propagates a NaN, where np.median returns NaN too
    max_error = float(np.max(all_errs))
    errs, mid = sorted(all_errs.tolist()), all_errs.size // 2
    median_error = (max_error if math.isnan(max_error) else
                    errs[mid] if all_errs.size % 2 else (errs[mid - 1] + errs[mid]) / 2)
    return RecoveryReport(
        permutation=perm,
        signs=signs,
        A1=A1a,
        A2=A2a,
        U=Ua,
        per_row_errors=per_row,
        max_error=max_error,
        median_error=median_error,
        u_error=u_error,
    )


def lipschitz_bound(params: RnnParams, s2_norm: float, gamma: float, n: int) -> float:
    """Per-sequence Lipschitz constant of the averaged cross-moment statistic.

    (1/n) ||A2|| ( ||A1|| / (1 - l ||U||) * s2_norm + 3 gamma ).
    """
    a1 = np.linalg.norm(params.A1, 2)
    a2 = np.linalg.norm(params.A2, 2)
    u = np.linalg.norm(params.U, 2)
    if params.l * u >= 1.0:
        raise AssumptionError("contraction assumption violated: l * ||U|| >= 1", stage="bounds")
    return a2 * (a1 / (1.0 - params.l * u) * s2_norm + 3.0 * gamma) / n


def concentration_bound(
    G: float,
    theta: float,
    c: float,
    n: int,
    d1: int,
    d2: int,
    delta: float,
) -> float:
    """High-probability deviation bound for the averaged moment estimator.

    G (1 + 1/(sqrt(8) c n^{3/2})) / (1 - theta) * sqrt(8 c^2 n log((d1 + d2)/delta)).
    """
    if not 0 <= theta < 1:
        raise AssumptionError("geometric mixing requires 0 <= theta < 1", stage="bounds")
    if c <= 0 or not 0 < delta < 1:
        raise ValueError("c must be positive and delta in (0, 1)")
    lead = G * (1.0 + 1.0 / (math.sqrt(8.0) * c * n ** 1.5)) / (1.0 - theta)
    return lead * math.sqrt(8.0 * c * c * n * math.log((d1 + d2) / delta))


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)  # (n, seed, matrix, row, error)
    slope: float = float("nan")
    intercept: float = float("nan")

    def csv_lines(self) -> list[str]:
        out = ["n,seed,matrix,row,error"]
        out += [f"{n},{seed},{matrix},{row},{err:.12g}"
                for n, seed, matrix, row, err in self.rows]
        return out


def sample_sweep(
    run_cell: Callable[[int, int], Iterable[tuple[str, int, float]]],
    ns: Sequence[int],
    seeds: Sequence[int],
    workers: int = 1,
) -> SweepResult:
    """Run recovery cells over an (n, seed) grid and fit the error decay slope.

    run_cell(n, seed) returns (matrix, row, error) triples; a failing cell may
    return an empty iterable.  Cells may run in parallel, and results merge in
    grid order so the output is identical for any worker count.  The slope is
    the log-log fit of the median error against n.
    """
    cells = [(n, seed) for n in ns for seed in seeds]
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(lambda c: list(run_cell(*c)), cells))
    else:
        outputs = [list(run_cell(n, seed)) for n, seed in cells]
    by_cell = dict(zip(cells, outputs))
    rows = []
    medians = []
    kept_ns = []
    for n in ns:
        errs = []
        for seed in seeds:
            for matrix, row, err in by_cell[(n, seed)]:
                rows.append((n, seed, matrix, row, float(err)))
                errs.append(float(err))
        if errs:
            medians.append(np.median(errs))
            kept_ns.append(n)
    if len(kept_ns) < 2:
        return SweepResult(rows=rows)
    slope, intercept = np.polyfit(np.log(np.asarray(kept_ns, dtype=float)),
                                  np.log(np.maximum(medians, 1e-300)), 1)
    return SweepResult(rows=rows, slope=float(slope), intercept=float(intercept))

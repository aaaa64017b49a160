"""Dense multilinear algebra on numpy arrays.

Tensors are plain ``numpy.ndarray`` objects in C (row-major) layout, so the
*last* mode varies fastest in memory.  All mode indices in the public API are
1-based.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

ModeGrouping = Sequence[Sequence[int]]


def outer(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Outer product of one or more vectors; order equals len(vectors)."""
    if len(vectors) == 0:
        raise ValueError("empty outer product")
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    for v in vecs:
        if v.ndim != 1:
            raise ValueError("outer expects 1-d vectors")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite entries in outer product input")
    return reduce(np.multiply.outer, vecs)


def _check_grouping(order: int, groups: ModeGrouping) -> None:
    seen: set[int] = set()
    for g in groups:
        if len(g) == 0:
            raise ValueError("empty mode group")
        for m in g:
            if not 1 <= m <= order:
                raise ValueError(f"mode {m} out of range for order-{order} tensor")
            if m in seen:
                raise ValueError(f"mode {m} appears in more than one group")
            seen.add(m)
    if len(seen) != order:
        missing = sorted(set(range(1, order + 1)) - seen)
        raise ValueError(f"grouping does not cover modes {missing}")


def reshape(T: np.ndarray, groups: ModeGrouping) -> np.ndarray:
    """Regroup tensor modes; within a group the last listed mode varies fastest.

    ``reshape(T, [[1], [2, 3]])`` is the mode-1 unfolding of an order-3
    tensor, ``T(i,j,l) -> M(i, l + (j-1) d3)`` (1-based): mode 2 is the slow
    column index and mode 3 the fast one.
    """
    T = np.asarray(T)
    _check_grouping(T.ndim, groups)
    perm = [m - 1 for g in groups for m in g]
    new_dims = [int(np.prod([T.shape[m - 1] for m in g])) for g in groups]
    return np.transpose(T, perm).reshape(new_dims)


def inverse_reshape(T2: np.ndarray, original_dims: Sequence[int], groups: ModeGrouping) -> np.ndarray:
    """Undo :func:`reshape`: recover the tensor with ``original_dims``."""
    _check_grouping(len(original_dims), groups)
    perm = [m - 1 for g in groups for m in g]
    split_dims = [original_dims[m - 1] for g in groups for m in g]
    inv = np.argsort(perm)
    return np.transpose(np.asarray(T2).reshape(split_dims), inv)


def multilinear(T: np.ndarray, *matrices: np.ndarray | None) -> np.ndarray:
    """Multilinear form T(M_1, ..., M_m): contract mode i with M_i's rows.

    ``None`` leaves a mode untouched.  Each M_i must have as many rows as the
    corresponding mode of T; the output mode dim is M_i's column count.
    """
    T = np.asarray(T)
    if len(matrices) != T.ndim:
        raise ValueError(f"expected {T.ndim} matrix arguments, got {len(matrices)}")
    out = T
    for mode, M in enumerate(matrices):
        if M is None:
            continue
        M = np.asarray(M, dtype=float)
        if M.ndim == 1:
            M = M[:, None]
        if M.shape[0] != out.shape[mode]:
            raise ValueError(
                f"mode {mode + 1} has dim {out.shape[mode]} but matrix has {M.shape[0]} rows"
            )
        out = np.moveaxis(np.tensordot(out, M, axes=([mode], [0])), -1, mode)
    return out


def pinv(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with singular values below tol*sigma_max truncated."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("non-finite matrix")
    return np.linalg.pinv(M, rcond=tol)

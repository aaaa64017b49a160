"""Dense multilinear algebra on numpy arrays.

Tensors are plain ``numpy.ndarray`` objects in C (row-major) layout, so the
*last* mode varies fastest in memory.  Mode numbers in error messages are
1-based.
"""

from __future__ import annotations

import numpy as np


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

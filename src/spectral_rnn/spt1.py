"""SPT1 binary tensor files.

Layout: magic ``b"SPT1"``, u32 order, order x u64 dims, then the f64 payload
little-endian in C order (last mode fastest).
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SPT1"


class Spt1Error(OSError, ValueError):
    """A file that is not a well-formed SPT1 tensor: an I/O error and a bad value."""


def write_tensor(path: str | Path, T: np.ndarray) -> None:
    """Write T's C-order buffer itself, copying only a T that is not
    C-contiguous little-endian f8; a 0-d tensor keeps order 0."""
    T = np.asarray(T, dtype="<f8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", T.ndim))
        for d in T.shape:
            f.write(struct.pack("<Q", d))
        f.write(np.ascontiguousarray(T).reshape(-1).view(np.uint8))


def read_tensor(path: str | Path) -> np.ndarray:
    """Read an SPT1 file, checking its header and its exact size before the
    payload, which is read into the returned array with no other copy."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if head[:4] != MAGIC:
            raise Spt1Error(f"{path}: not an SPT1 file (magic {head[:4]!r})")
        if len(head) < 8:
            raise Spt1Error(f"{path}: truncated header")
        (order,) = struct.unpack("<I", head[4:])
        if size < 8 + 8 * order:
            raise Spt1Error(f"{path}: truncated header for order {order}")
        dims = struct.unpack(f"<{order}Q", f.read(8 * order))
        expected = 8 + 8 * order + 8 * math.prod(dims)
        if size != expected:
            raise Spt1Error(f"{path}: {size} bytes, expected {expected} for dims {dims}")
        data = np.empty(dims, dtype="<f8")
        if f.readinto(data.reshape(-1).view(np.uint8)) != data.nbytes:
            raise Spt1Error(f"{path}: payload shorter than {data.nbytes} bytes")
    return data.astype(float, copy=False)

"""Dense multi-way arrays and the index algebra the rest of the package uses.

A tensor here is a plain float64, C-contiguous ``numpy.ndarray`` of order
(ndim) >= 1 with every extent >= 1. One convention is fixed once and relied
on everywhere: row-major layout with the last index fastest. The mode-``m``
unfolding places mode ``m`` on the rows and enumerates the remaining axes in
row-major order along the columns; ``fold`` inverts it bit-exactly. There is
no broadcasting: any shape mismatch is a hard error.

The module also reads/writes the ``TNS1`` container: magic ``b"TNS1"``,
little-endian u32 order, u32 extents, then float64 little-endian data in
row-major order.
"""

from __future__ import annotations

import numpy as np

from ._io import Writer, reading
from .errors import ShapeError

__all__ = [
    "as_tensor",
    "unfold",
    "fold",
    "mode_product",
    "frobenius_norm",
    "khatri_rao",
    "save_tensor",
    "load_tensor",
    "TNS_MAGIC",
]

TNS_MAGIC = b"TNS1"


def as_tensor(a) -> np.ndarray:
    """Coerce to a float64 C-order array; reject order-0 arrays and empty extents."""
    t = np.ascontiguousarray(a, dtype=np.float64)
    if t.ndim < 1:
        raise ShapeError("tensor order must be >= 1")
    if any(e < 1 for e in t.shape):
        raise ShapeError(f"tensor extents must all be >= 1, got {t.shape}")
    return t


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding: shape[mode] rows, remaining axes enumerated row-major.

    Column j of the result walks the non-mode indices with the last one
    fastest, matching the memory order of the input.
    """
    t = as_tensor(t)
    if not 0 <= mode < t.ndim:
        raise IndexError(f"mode {mode} out of range for order-{t.ndim} tensor")
    return np.ascontiguousarray(np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1))


def fold(m: np.ndarray, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold`; bit-exact round trip for every mode."""
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise IndexError(f"mode {mode} out of range for shape {shape}")
    m = np.ascontiguousarray(m, dtype=np.float64)
    lead = (shape[mode],) + shape[:mode] + shape[mode + 1 :]
    if m.shape != (shape[mode], int(np.prod(lead[1:], dtype=np.int64))):
        raise ShapeError(f"matrix {m.shape} does not fold into {shape} at mode {mode}")
    return np.ascontiguousarray(np.moveaxis(m.reshape(lead), 0, mode))


def mode_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Multiply ``t`` along ``mode`` by the matrix ``m`` (rows replace that extent)."""
    t = as_tensor(t)
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"mode_product needs a matrix, got order {m.ndim}")
    if not 0 <= mode < t.ndim:
        raise IndexError(f"mode {mode} out of range for order-{t.ndim} tensor")
    if m.shape[1] != t.shape[mode]:
        raise ShapeError(
            f"matrix has {m.shape[1]} columns, tensor extent at mode {mode} is {t.shape[mode]}"
        )
    return np.ascontiguousarray(np.moveaxis(np.tensordot(m, t, axes=(1, mode)), 0, mode))


def frobenius_norm(t) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64).ravel()))


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product: column r is kron(a[:, r], b[:, r]).

    Leading axes are batch axes: stacks of (I, R) and (J, R) matrices with
    the same leading shape give a stack of (I*J, R) products.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if min(a.ndim, b.ndim) < 2 or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"khatri_rao takes two matrices or equal stacks of them, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"column counts differ: {a.shape[-1]} vs {b.shape[-1]}")
    *lead, i, r = a.shape
    return (a[..., :, None, :] * b[..., None, :, :]).reshape(*lead, i * b.shape[-2], r)


def save_tensor(t: np.ndarray, path: str) -> None:
    """Write ``t`` as a TNS1 file (atomically)."""
    t = as_tensor(t)
    w = Writer(TNS_MAGIC)
    w.u32(t.ndim, *t.shape)
    w.array(t, "<f8")
    w.save(path)


def load_tensor(path: str) -> np.ndarray:
    """Read a TNS1 file, failing loudly on truncation or bad extents."""
    with reading(path, TNS_MAGIC) as r:
        order = r.u32("tensor order")
        if order < 1:
            raise ShapeError("tensor order must be >= 1")
        shape = r.u32s(order, "tensor extents")
        if any(e < 1 for e in shape):
            raise ShapeError(f"tensor extents must all be >= 1, got {shape}")
        data = r.array("<f8", shape, "tensor data")
    return as_tensor(data)

"""Small dense matrix kernels backing the decompositions.

Everything here runs on matrices of at most a few hundred rows/columns, so
the LAPACK routines behind numpy are more than adequate; the contracts that
matter (reconstruction and orthogonality tolerances, pseudo-inverse cutoff)
are enforced by the test suite rather than by reimplementing the kernels.
Both kernels refuse non-finite input before LAPACK sees it: an infinite
entry can leave LAPACK's SVD iterating without end.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ShapeError

__all__ = ["svd", "lstsq_gram", "PINV_CUTOFF"]

# Relative eigenvalue cutoff below which a gram matrix direction is treated
# as exactly singular. Degenerate factor matrices must not crash the solves.
PINV_CUTOFF = 1e-12


def _check_finite(m: np.ndarray, what: str) -> None:
    if not np.isfinite(m).all():
        raise NumericalError(f"{what} input holds a non-finite value")


def svd(m: np.ndarray):
    """Thin SVD: returns (U, s, V) with m == U @ diag(s) @ V.T.

    Singular values are non-negative and non-increasing; U and V have
    orthonormal columns.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"svd needs a matrix, got order {m.ndim}")
    _check_finite(m, "SVD")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD did not converge within the LAPACK iteration cap: {exc}"
        ) from exc
    return u, s, vt.T


def lstsq_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solve of gram @ X = rhs for symmetric PSD gram.

    Eigenvalues below PINV_CUTOFF times the largest are treated as zero, so
    a singular gram yields the pseudo-inverse solution instead of an error.
    Leading axes are batch axes: a stack of grams is solved against a stack
    of right-hand sides, each gram with its own cutoff.
    """
    gram = np.ascontiguousarray(gram, dtype=np.float64)
    rhs = np.ascontiguousarray(rhs, dtype=np.float64)
    if gram.ndim < 2 or gram.shape[-1] != gram.shape[-2]:
        raise ShapeError(f"gram must be square, got {gram.shape}")
    if rhs.shape[:-1] != gram.shape[:-1]:
        raise ShapeError(f"rhs of shape {rhs.shape} does not match gram of shape {gram.shape}")
    _check_finite(gram, "gram solve")
    w, v = np.linalg.eigh((gram + gram.swapaxes(-1, -2)) / 2.0)
    wmax = np.maximum(w.max(axis=-1, keepdims=True), 0.0)
    keep = w > PINV_CUTOFF * wmax
    inv = np.where(keep, 1.0, 0.0) / np.where(keep, w, 1.0)
    return v @ (inv[..., None] * (v.swapaxes(-1, -2) @ rhs))

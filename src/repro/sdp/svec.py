"""Symmetric vectorization (svec) utilities.

``svec`` maps a symmetric ``n x n`` matrix to a vector of length
``n (n + 1) / 2`` with off-diagonal entries scaled by ``sqrt(2)`` so that the
Frobenius inner product becomes an ordinary dot product:

    <A, B> = svec(A) . svec(B).

Constraint data lives in svec coordinates (:class:`SDPProblem` rows are
svecs); the interior-point solver's Schur assembly expands it to full
``n x n`` coordinates with :func:`smat_stack` and :func:`svec_positions`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

_SQRT2 = float(np.sqrt(2.0))


def svec_dim(n: int) -> int:
    """Length of the svec of an ``n x n`` symmetric matrix."""
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def _triu_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n)


@lru_cache(maxsize=None)
def _svec_scale(n: int) -> np.ndarray:
    rows, cols = _triu_indices(n)
    scale = np.where(rows == cols, 1.0, _SQRT2)
    return scale


def svec_positions(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each svec coordinate of an ``n x n`` matrix: its flat index
    ``r * n + c`` in the upper triangle, ``c * n + r`` in the lower
    (equal on the diagonal), and its scale (``sqrt(2)`` off the
    diagonal), so ``smat(v).ravel()[upper] == v / scale``."""
    rows, cols = _triu_indices(n)
    return rows * n + cols, cols * n + rows, _svec_scale(n)


def svec(mat: np.ndarray) -> np.ndarray:
    """Symmetric vectorization of one matrix ``(n, n)`` or a batch ``(m, n, n)``."""
    mat = np.asarray(mat, dtype=float)
    batched = mat.ndim == 3
    if not batched:
        mat = mat[None]
    n = mat.shape[-1]
    if mat.shape[-2] != n:
        raise ValueError("svec expects square matrices")
    rows, cols = _triu_indices(n)
    out = mat[:, rows, cols] * _svec_scale(n)
    return out if batched else out[0]


def smat(vec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`svec`: rebuild the symmetric matrix."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (svec_dim(n),):
        raise ValueError(
            f"svec vector for n={n} must have length {svec_dim(n)}, got {vec.shape}"
        )
    rows, cols = _triu_indices(n)
    mat = np.zeros((n, n))
    vals = vec / _svec_scale(n)
    mat[rows, cols] = vals
    mat[cols, rows] = vals
    return mat


def smat_batch(vecs: np.ndarray, n: int) -> np.ndarray:
    """Batched :func:`smat`: rebuild ``(m, n, n)`` matrices from ``(m, s)``.

    A view of :func:`smat_stack` with the batch index first; each
    ``[j]`` is bitwise ``smat(vecs[j], n)``.
    """
    return smat_stack(vecs, n).transpose(2, 0, 1)


def smat_stack(vecs: np.ndarray, n: int) -> np.ndarray:
    """Batched :func:`smat` with the batch index last: ``(n, n, m)`` from
    ``(m, s)``, entry ``[r, c, j] = smat(vecs[j], n)[r, c]`` (bitwise:
    the same division by the same scale vector, the same placements).
    One fancy-index scatter of whole rows of ``vecs.T``.
    """
    vecs = np.asarray(vecs, dtype=float)
    if vecs.ndim != 2 or vecs.shape[1] != svec_dim(n):
        raise ValueError(
            f"svec batch for n={n} must have shape (m, {svec_dim(n)}), "
            f"got {vecs.shape}"
        )
    rows, cols = _triu_indices(n)
    vals = (vecs / _svec_scale(n)).T
    out = np.zeros((n, n, vecs.shape[0]))
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


def sym(mat: np.ndarray) -> np.ndarray:
    """Symmetric part ``(M + M^T) / 2``."""
    return 0.5 * (mat + mat.T)

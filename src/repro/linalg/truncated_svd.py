"""Truncated singular value decomposition of matrices (2-d backend tensors).

This is the "explicit" factorization used by the baseline BMPS contraction
and by the QR-SVD evolution algorithm: contract, matricize, SVD, truncate.
Truncation is by a maximum ``rank`` alone.  The factors are returned
isometric; callers that want the singular values on a factor absorb them
themselves (``einsumsvd`` splits them evenly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.backends.interface import Backend


@dataclass
class TruncatedSVDResult:
    """Factors of a truncated SVD along with truncation diagnostics."""

    u: object
    s: np.ndarray
    vh: object
    rank: int
    truncation_error: float


def truncate_spectrum(s: np.ndarray, rank: Optional[int] = None) -> Tuple[int, float]:
    """Decide how many singular values to keep.

    Parameters
    ----------
    s:
        Singular values in descending order.
    rank:
        Keep at most this many values (``None`` = no limit).

    Returns
    -------
    (kept, error):
        The number of retained singular values — ``min(rank, n)`` (all ``n``
        without a rank), at least 1 of a nonempty spectrum even for
        ``rank=0`` — and the relative Frobenius truncation error
        ``sqrt(sum(discarded^2) / sum(all^2))``, 0 for an all-zero spectrum.
    """
    s = np.asarray(s, dtype=float)
    n = len(s)
    if n == 0:
        return 0, 0.0
    keep = n
    if rank is not None:
        keep = min(keep, int(rank))
    keep = max(keep, 1)
    # np.add.reduce is np.sum's kernel (same pairwise order, same bits)
    # without its dispatch; keeping everything discards nothing.
    total = float(np.add.reduce(s * s))
    if total == 0.0 or keep == n:
        return keep, 0.0
    tail = s[keep:]
    return keep, math.sqrt(float(np.add.reduce(tail * tail)) / total)


def truncated_svd(backend: Backend, matrix, rank: Optional[int] = None) -> TruncatedSVDResult:
    """Compute a truncated SVD of a matrix tensor.

    Parameters
    ----------
    backend:
        Tensor backend providing ``svd``.
    matrix:
        A 2-d backend tensor.
    rank:
        Keep at most this many singular values (``None`` = all; see
        :func:`truncate_spectrum`).

    Returns
    -------
    TruncatedSVDResult
        With isometric backend tensors ``u`` (shape ``(m, k)``) and ``vh``
        (shape ``(k, n)``), the retained singular values as a NumPy vector,
        the retained rank and the relative truncation error.
    """
    # ``rank`` bounds the kept vectors, so the backend may skip forming the
    # rest; the spectrum it returns is complete either way.
    u, s, vh = backend.svd(matrix, rank=rank)
    s_local = np.asarray(backend.to_local(s), dtype=float)
    keep, error = truncate_spectrum(s_local, rank=rank)

    return TruncatedSVDResult(
        u=backend.from_local(backend.asarray(u)[:, :keep]),
        s=s_local[:keep],
        vh=backend.from_local(backend.asarray(vh)[:keep, :]),
        rank=keep,
        truncation_error=error,
    )

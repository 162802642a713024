"""Truncated singular value decomposition of matrices (2-d backend tensors).

This is the "explicit" factorization used by the baseline BMPS contraction
and by the QR-SVD evolution algorithm: contract, matricize, SVD, truncate.
Truncation can be limited by a maximum ``rank``, a relative singular-value
``cutoff``, or both; singular values can be absorbed into the left factor,
the right factor, or split evenly (the convention used for PEPS bonds).
"""

from __future__ import annotations

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


def truncate_spectrum(
    s: np.ndarray,
    rank: Optional[int] = None,
    cutoff: Optional[float] = None,
) -> Tuple[int, float]:
    """Decide how many singular values to keep.

    Parameters
    ----------
    s:
        Singular values in descending order.
    rank:
        Keep at most this many values (``None`` = no limit).
    cutoff:
        Discard values with ``s[i] < cutoff * s[0]`` (``None`` = no cutoff).

    Returns
    -------
    (kept, error):
        The number of retained singular values (at least 1 when any are
        nonzero) and the relative Frobenius truncation error
        ``sqrt(sum(discarded^2) / sum(all^2))``.
    """
    s = np.asarray(s, dtype=float)
    n = len(s)
    if n == 0:
        return 0, 0.0
    keep = n
    if cutoff is not None and s[0] > 0:
        keep = int(np.count_nonzero(s >= cutoff * s[0]))
    if rank is not None:
        keep = min(keep, int(rank))
    keep = max(keep, 1) if s[0] > 0 else max(keep, 1)
    keep = min(keep, n)
    total = float(np.sum(s**2))
    if total == 0.0:
        return keep, 0.0
    discarded = float(np.sum(s[keep:] ** 2))
    return keep, float(np.sqrt(discarded / total))


def truncated_svd(
    backend: Backend,
    matrix,
    rank: Optional[int] = None,
    cutoff: Optional[float] = None,
    absorb: str = "even",
) -> TruncatedSVDResult:
    """Compute a truncated SVD of a matrix tensor.

    Parameters
    ----------
    backend:
        Tensor backend providing ``svd``.
    matrix:
        A 2-d backend tensor.
    rank, cutoff:
        Truncation controls (see :func:`truncate_spectrum`).
    absorb:
        Where to put the singular values: ``"left"`` (U <- U @ diag(s)),
        ``"right"`` (Vh <- diag(s) @ Vh), ``"even"`` (sqrt(s) on both sides)
        or ``"none"`` (keep the factors isometric).

    Returns
    -------
    TruncatedSVDResult
        With backend tensors ``u`` (shape ``(m, k)``) and ``vh`` (shape
        ``(k, n)``), the retained singular values as a NumPy vector, the
        retained rank and the relative truncation error.
    """
    if absorb not in ("left", "right", "even", "none"):
        raise ValueError(f"unknown absorb mode {absorb!r}")
    # ``rank`` bounds the kept vectors, so the backend may skip forming the
    # rest; the spectrum it returns is complete either way.
    u, s, vh = backend.svd(matrix, rank=rank)
    s_local = np.asarray(backend.to_local(s), dtype=float)
    keep, error = truncate_spectrum(s_local, rank=rank, cutoff=cutoff)

    u_arr = backend.asarray(u)[:, :keep]
    vh_arr = backend.asarray(vh)[:keep, :]
    s_kept = s_local[:keep]

    if absorb == "left":
        u_arr = u_arr * s_kept[np.newaxis, :]
    elif absorb == "right":
        vh_arr = s_kept[:, np.newaxis] * vh_arr
    elif absorb == "even":
        sqrt_s = np.sqrt(s_kept)
        u_arr = u_arr * sqrt_s[np.newaxis, :]
        vh_arr = sqrt_s[:, np.newaxis] * vh_arr

    return TruncatedSVDResult(
        u=backend.from_local(u_arr),
        s=s_kept,
        vh=backend.from_local(vh_arr),
        rank=keep,
        truncation_error=error,
    )

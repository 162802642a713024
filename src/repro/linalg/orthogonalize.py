"""Orthogonalization of tensor operators.

Two strategies are provided for producing an isometry ``Q`` (and optionally
the triangular-like factor ``R``) from a tall tensor operator
``A : C^{n1 x ... x nt} -> C^{m1 x ... x ms}`` with ``prod(m) >> prod(n)``:

``"qr"``
    Matricize ``A`` into a ``prod(m) x prod(n)`` matrix and run a reduced QR.
    Cheap sequentially, but on a distributed backend the matricization
    (reshape) forces a data redistribution.

``"gram"``
    The paper's Algorithm 5 (*reshape-avoiding orthogonalization*): form the
    small Gram matrix ``G = A* A`` with a tensor contraction that needs no
    reshape of the large tensor, move only ``G`` to local memory,
    eigendecompose it there, and obtain ``R = sqrt(L) X*`` and
    ``Q = A R^{-1}`` with one more large-but-distributed contraction.

Both strategies are exposed through :func:`tensor_qr`, which returns both
factors: the QR-SVD evolution algorithm uses the pair, the randomized-SVD
iterations only the isometry.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Tuple

import numpy as np

from repro.backends.interface import Backend
from repro.tensornetwork.einsum_spec import symbols

#: Relative eigenvalue threshold below which Gram-matrix directions are
#: treated as numerically rank deficient.
_GRAM_RELATIVE_EPS = 1e-12


@lru_cache(maxsize=1024)
def _qr_layout(shape: Tuple[int, ...], n_row_axes: int) -> Tuple[tuple, tuple, int, int, int]:
    """``(rows, cols, m, n, k)`` of a tensor QR: the row and column dims,
    their products and the new bond ``k = min(m, n)``."""
    ndim = len(shape)
    if not (0 < n_row_axes < ndim):
        raise ValueError(
            f"n_row_axes must split the tensor into two non-empty groups, "
            f"got {n_row_axes} for a {ndim}-mode tensor"
        )
    shape = tuple(int(s) for s in shape)
    rows, cols = shape[:n_row_axes], shape[n_row_axes:]
    m, n = prod(rows), prod(cols)
    return rows, cols, m, n, min(m, n)


@lru_cache(maxsize=64)
def _gram_specs(s: int, t: int) -> Tuple[str, str]:
    """The Gram contraction ``conj(A) A -> G`` over ``s`` row modes and the
    isometry contraction ``A P -> Q`` of Algorithm 5, for ``t`` column modes."""
    labels = symbols(s + 2 * t)
    rows, cols, colp = labels[:s], labels[s : s + t], labels[s + t :]
    gram = "".join(rows + colp) + "," + "".join(rows + cols) + "->" + "".join(colp + cols)
    bond = labels[s + t]  # any label outside rows + cols
    q = "".join(rows + cols) + "," + "".join(cols) + bond + "->" + "".join(rows) + bond
    return gram, q


def tensor_qr(
    backend: Backend,
    tensor,
    n_row_axes: int,
    method: str = "qr",
):
    """QR-like factorization of a tensor operator.

    Returns ``(Q, R)`` where ``Q`` has the shape of ``tensor`` with its
    column group replaced by a single bond of size ``k = prod(column dims)``
    ... more precisely:

    * ``Q`` has shape ``rows + (k,)`` and orthonormal columns,
    * ``R`` has shape ``(k,) + cols`` and satisfies
      ``tensor ≈ Q ·_k R`` (contraction over the new bond).

    ``method`` selects the matricize+QR path or the Gram-matrix path
    (Algorithm 5).  ``"auto"`` picks Gram for non-NumPy backends, mirroring
    the paper's finding that it pays exactly when reshapes are expensive.
    """
    rows, cols, m, n, k = _qr_layout(backend.shape(tensor), n_row_axes)

    if method == "auto":
        method = "gram" if backend.name != "numpy" else "qr"

    if method == "qr":
        q_mat, r_mat = backend.qr(backend.reshape(tensor, (m, n)))
        return backend.reshape(q_mat, rows + (k,)), backend.reshape(r_mat, (k,) + cols)

    if method == "gram":
        return _gram_tensor_qr(backend, tensor, rows, cols)

    raise ValueError(f"unknown orthogonalization method {method!r}")


def _gram_tensor_qr(backend: Backend, tensor, rows: Tuple[int, ...], cols: Tuple[int, ...]):
    """Algorithm 5: reshape-avoiding orthogonalization via a local Gram matrix."""
    n = prod(cols)
    gram_spec, q_spec = _gram_specs(len(rows), len(cols))

    # G = A* A contracted over the (large) row group: indices
    #   conj(A)[rows, cols'] * A[rows, cols] -> [cols', cols]
    gram = backend.einsum(gram_spec, backend.conj(tensor), tensor)

    # The Gram matrix is small (n x n); move it to local memory, reshape and
    # eigendecompose there (steps 2-6 of Algorithm 5).
    g_local = np.asarray(backend.to_local(gram)).reshape(n, n)
    # Hermitize against round-off before the eigendecomposition.
    g_local = 0.5 * (g_local + g_local.conj().T)
    evals, evecs = np.linalg.eigh(g_local)
    # Ascending order from eigh; flip so the dominant directions come first.
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    floor = max(evals[0], 0.0) * _GRAM_RELATIVE_EPS
    safe = np.sqrt(np.clip(evals, floor, None)) if evals[0] > 0 else np.ones_like(evals)
    r_local = safe[:, np.newaxis] * evecs.conj().T          # R = sqrt(L) X*
    p_local = evecs * (1.0 / safe)[np.newaxis, :]           # P = X sqrt(L)^{-1} = R^{-1}

    # Fold R and P back into tensors and return to distributed memory
    # (steps 7-9); the large contraction Q = A P stays distributed (step 10).
    r_tensor = backend.from_local(r_local.reshape((n,) + cols))
    p_tensor = backend.from_local(p_local.reshape(cols + (n,)))
    q_tensor = backend.einsum(q_spec, tensor, p_tensor)
    return q_tensor, r_tensor

"""Randomized SVD with an implicitly applied operator (paper's Algorithm 4).

Given an operator ``A : C^{cols} -> C^{rows}`` accessed only through
``A @ Q`` and ``A* @ P`` products, the algorithm computes an approximate
rank-``r`` truncated SVD:

1. draw a random probe ``Q`` with ``r`` (plus oversampling) columns,
2. ``P = orth(A Q)``,
3. a few rounds of subspace (power) iteration
   ``Q = orth(A* P)``, ``P = orth(A Q)``,
4. ``B = P* A`` (computed as ``(A* P)*``), SVD of the small matrix ``B``,
5. ``U = P @ U_tilde``.

The orthogonalization step can use either matricize+QR or the Gram-matrix
method of Algorithm 5, which is what makes the routine usable on the
distributed backend without expensive reshapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.interface import Backend, dense_svd
from repro.linalg.implicit_op import ImplicitOperator
from repro.linalg.orthogonalize import tensor_qr
from repro.linalg.truncated_svd import truncate_spectrum
from repro.telemetry.trace import TRACER as _TRACER
from repro.tensornetwork.einsum_spec import symbols
from repro.utils.checks import nonnegative_int
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class RandomizedSVDResult:
    """Factors of the randomized truncated SVD.

    ``u`` has shape ``row_shape + (rank,)``; ``vh`` has shape
    ``(rank,) + col_shape``; ``s`` is the retained (approximate) spectrum.
    """

    u: object
    s: np.ndarray
    vh: object
    rank: int


def sketch_size(rank: int, oversample: int, max_rank: int) -> int:
    """Columns of Algorithm 4's random probe: ``rank + oversample``, capped at
    ``max_rank = min(rows, cols)`` (never more than the operator can support),
    and at least 1.

    A sketch of ``max_rank`` columns covers the operator's short side: the
    range finder then captures the whole range, and the randomized SVD is an
    exact one (``einsumsvd`` runs the explicit SVD instead).
    """
    return max(min(rank + oversample, max_rank), 1)


def _orth(backend: Backend, tensor, method: str):
    """Orthogonalize a probe block: trailing mode is the sketch dimension."""
    ndim = len(backend.shape(tensor))
    q, _ = tensor_qr(backend, tensor, ndim - 1, method=method)
    return q


def randomized_svd(
    backend: Backend,
    operator: ImplicitOperator,
    rank: int,
    niter: int = 1,
    oversample: int = 0,
    orth_method: str = "auto",
    rng: SeedLike = None,
) -> RandomizedSVDResult:
    """Approximate truncated SVD of an implicit operator (Algorithm 4).

    Step 4's SVD is a local factorization of the ``sketch x prod(cols)``
    ndarray ``B`` by :func:`~repro.backends.interface.dense_svd`, which for a
    wide enough sketch forms only the ``rank`` vectors kept.  Like the Gram
    eigendecomposition of Algorithm 5, it is not charged to the backend's
    flop count.

    Parameters
    ----------
    backend:
        Tensor backend.
    operator:
        The implicit operator (e.g. a :class:`TensorNetworkOperator`).
    rank:
        Target rank of the truncation.
    niter:
        Number of power-iteration refinement rounds (``k`` in the paper's
        Algorithm 4), at least 0.  One round is usually sufficient for the
        rapidly-decaying spectra appearing in PEPS truncations.
    oversample:
        Extra sketch columns (at least 0) carried through the iteration and
        discarded at the end; improves accuracy for nearly-flat spectra.
    orth_method:
        ``"qr"``, ``"gram"`` or ``"auto"`` (Gram on non-NumPy backends).
    rng:
        Seed or generator for the random probe.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    niter = nonnegative_int(niter, "niter")
    oversample = nonnegative_int(oversample, "oversample")
    rng = ensure_rng(rng)
    col_shape = operator.col_shape
    row_shape = operator.row_shape
    sketch = sketch_size(rank, oversample, min(operator.row_size, operator.col_size))

    # Step 1: random probe on the column group; complex entries whose real
    # and imaginary parts are each uniform on [-1, 1).
    probe = backend.random_uniform(tuple(col_shape) + (sketch,), -1.0, 1.0, rng=rng)

    # Step 2: P = orth(A Q).
    p = _orth(backend, operator.apply(probe), orth_method)

    # Step 3: power iteration.
    for _ in range(niter):
        q = _orth(backend, operator.apply_adjoint(p), orth_method)
        p = _orth(backend, operator.apply(q), orth_method)

    # Step 4: B = P* A, computed without forming A as B = (A* P)^H.
    apstar = operator.apply_adjoint(p)          # shape: cols + (sketch,)
    # Matricize (cols..., k) -> (k, prod(cols)) by conjugate transpose.
    b_cols = backend.reshape(apstar, (operator.col_size, backend.shape(apstar)[-1]))
    b_local = np.asarray(backend.to_local(b_cols))
    b = b_local.conj().T                        # (sketch, prod(cols))

    # Factor the wide B itself, never the tall A* P: the SVD of A* P is the
    # same in exact arithmetic, but LAPACK then fixes other singular-vector
    # phases, and the next seeded sketch sees another gauge.
    with _TRACER.span("randomized_svd.sketch_svd", shape=b.shape):
        u_tilde, s, vh = dense_svd(b, rank=min(rank, b.shape[0]))
    keep, _ = truncate_spectrum(s, rank=min(rank, len(s)))
    u_tilde = u_tilde[:, :keep]
    s = s[:keep]
    vh = vh[:keep, :]

    # Step 5: U = P @ U_tilde, contracted over the sketch mode.
    s_rows = len(row_shape)
    labels = symbols(s_rows + 2)
    rows, kk, rr = labels[:s_rows], labels[s_rows], labels[s_rows + 1]
    spec = "".join(rows + [kk]) + "," + kk + rr + "->" + "".join(rows + [rr])
    u = backend.einsum(spec, p, backend.from_local(u_tilde))

    vh_tensor = backend.from_local(vh.reshape((keep,) + tuple(col_shape)))
    return RandomizedSVDResult(u=u, s=np.asarray(s, dtype=float), vh=vh_tensor, rank=keep)

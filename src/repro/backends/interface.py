"""Abstract tensor-backend protocol.

Every high-level routine in the library (PEPS updates and contractions, the ``einsumsvd`` implementations, the driver applications)
manipulates tensors exclusively through this interface, mirroring the
``tensorbackends`` abstraction used by the Koala library from the paper.
Backends operate on *backend-native* tensor objects: plain
:class:`numpy.ndarray` for the NumPy backend, :class:`DistTensor` for the
simulated distributed backend.  Native tensors are expected to support
multiplication by a scalar (``*``) and expose ``shape``/``ndim``/``dtype``
attributes.
"""

from __future__ import annotations

import abc
import functools
import string
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from repro.utils.rng import SeedLike, ensure_rng

Tensor = Any  # backend-native tensor object


class BackendExecutionError(RuntimeError):
    """A backend lost the ability to execute work (e.g. a worker pool died).

    Raised by executors when a compute resource fails unrecoverably — after
    transparent restarts have been exhausted — so that drivers can stop
    cleanly, keep the last consistent checkpoint, and surface the failure
    instead of hanging or silently corrupting state.
    """


def parse_batched_subscripts(
    subscripts: str, shapes: Sequence[Tuple[int, ...]]
) -> Tuple[List[str], str, List[int], int]:
    """Validate a batched einsum call and describe its batch structure.

    ``subscripts`` is a *plain* (non-batched, explicit ``->``) einsum string;
    every operand carries one extra **leading batch axis** of size ``B`` or
    ``1`` (size-1 axes broadcast against the batch).  Returns
    ``(input_specs, output_spec, batch_dims, B)``.
    """
    if "->" not in subscripts:
        raise ValueError(
            f"einsum_batched needs an explicit output ('->') in {subscripts!r}"
        )
    if "." in subscripts:
        raise ValueError("einsum_batched does not support ellipsis subscripts")
    lhs, output = subscripts.split("->")
    inputs = lhs.split(",")
    if len(inputs) != len(shapes):
        raise ValueError(
            f"{len(inputs)} subscript groups but {len(shapes)} operands"
        )
    batch_dims: List[int] = []
    for spec, shape in zip(inputs, shapes):
        if len(shape) != len(spec) + 1:
            raise ValueError(
                f"operand for {spec!r} must have a leading batch axis: expected "
                f"{len(spec) + 1} modes, got shape {tuple(shape)}"
            )
        batch_dims.append(int(shape[0]))
    batch = 1
    for dim in batch_dims:
        if dim != 1:
            if batch != 1 and dim != batch:
                raise ValueError(
                    f"incompatible batch sizes {batch_dims} for {subscripts!r}"
                )
            batch = dim
    return inputs, output, batch_dims, batch


def rewrite_batched_subscripts(
    subscripts: str, batch_dims: Sequence[int]
) -> Tuple[str, str]:
    """Insert a batch label into a plain einsum string.

    Operands whose batch axis has size > 1 get the label prepended; size-1
    axes are expected to be squeezed away by the caller.  The output always
    gets the label (callers with an all-broadcast batch skip the rewrite).
    Returns ``(rewritten_subscripts, batch_label)``.
    """
    lhs, output = subscripts.split("->")
    inputs = lhs.split(",")
    used = set(subscripts)
    label = next((c for c in string.ascii_letters if c not in used), None)
    if label is None:
        raise ValueError(
            f"no free subscript letter left to batch {subscripts!r}"
        )
    new_inputs = [
        label + spec if dim != 1 else spec
        for spec, dim in zip(inputs, batch_dims)
    ]
    return ",".join(new_inputs) + "->" + label + output, label


#: The QR-reduced SVD route runs when the long side is at least this many
#: times the short one.  Below it small matrices lose on the route, and a
#: gate at 2 moved the CTM golden (crossover table in ``docs/perf.md``).
_QR_SVD_MIN_ASPECT = 4
#: A QR-reduced panel whose short side is at least this factors by LAPACK's
#: recursive-panel ``geqrt`` and applies Q by ``gemqrt``; a narrower one by
#: ``geqrf`` and ``ormqr`` / ``unmqr`` (crossover table in ``docs/perf.md``).
_GEQRT_MIN_SHORT = 64
#: ``geqrt``'s block size (capped at the short side).
_GEQRT_BLOCK = 32


@functools.lru_cache(maxsize=None)
def _lapack(dtype: np.dtype, *names: str):
    """The LAPACK wrappers ``names`` for ``dtype``: looking them up costs
    more than a small factorization does."""
    return scipy.linalg.get_lapack_funcs(names, dtype=dtype)


@functools.lru_cache(maxsize=1024)
def _gesdd(dtype: np.dtype, m: int, n: int):
    """``gesdd`` for ``dtype`` and the economy workspace of an ``m x n``
    matrix: the size ``scipy.linalg.svd`` queries, so the bits are its bits."""
    gesdd, gesdd_lwork = _lapack(dtype, "gesdd", "gesdd_lwork")
    work, _ = gesdd_lwork(m, n, compute_uv=1, full_matrices=0)
    work = work.real
    if gesdd.dtype.char in "fF":  # as scipy reads it: single precision rounds up
        work = np.nextafter(work, np.inf, dtype=np.float32)
    return gesdd, int(work)


@functools.lru_cache(maxsize=1024)
def _geqrf(dtype: np.dtype, m: int, n: int, columns: Optional[int] = None):
    """``geqrf`` of an ``m x n`` matrix and the routine that uses its
    reflectors, with both optimal workspaces: ``orgqr`` / ``ungqr`` to form
    Q, or with ``columns``, ``ormqr`` / ``unmqr`` to apply Q to that many."""
    complex_ = np.dtype(dtype).kind == "c"
    if columns is None:
        name = "ungqr" if complex_ else "orgqr"
    else:
        name = "unmqr" if complex_ else "ormqr"
    geqrf, geqrf_lwork, second = _lapack(dtype, "geqrf", "geqrf_lwork", name)
    qr_work, _ = geqrf_lwork(m, n)
    k = min(m, n)
    reflectors, tau = np.zeros((m, k), dtype=geqrf.dtype), np.zeros(k, dtype=geqrf.dtype)
    if columns is None:
        _, work, _ = second(reflectors, tau, lwork=-1)
    else:
        c = np.zeros((m, columns), dtype=geqrf.dtype)
        _, work, _ = second("L", "N", reflectors, tau, c, -1)
    return geqrf, int(qr_work.real), second, int(work[0].real)


@functools.lru_cache(maxsize=1024)
def _below_diagonal(dtype: np.dtype, rows: int, cols: int) -> Tuple[np.ndarray, np.ndarray]:
    """The strictly-lower mask of a ``rows x cols`` matrix and a zero of
    ``dtype``: ``np.where(mask, zero, a)`` is ``np.triu(a)``, built the way
    ``np.triu`` builds it, without rebuilding the mask per call.  Both are
    read-only: every call shares them."""
    below, zero = np.tri(rows, cols, -1, dtype=bool), np.zeros(1, dtype)
    below.flags.writeable = zero.flags.writeable = False
    return below, zero


@functools.lru_cache(maxsize=1024)
def _qr_kernel(dtype: np.dtype, m: int, n: int):
    """Everything :func:`dense_qr` derives from the input's dtype and shape:
    the result and working dtypes (``np.linalg.qr``'s promotion), the
    ``geqrf`` / ``orgqr`` wrappers with their workspaces and the triangle mask."""
    result_dtype = dtype if np.issubdtype(dtype, np.inexact) else np.dtype(float)
    work_dtype = np.result_type(result_dtype, np.float64)
    k = min(m, n)
    kernels = _geqrf(work_dtype, m, n) if k else None
    return result_dtype, work_dtype, kernels, _below_diagonal(work_dtype, k, n)


#: dtype characters ``np.asarray_chkfinite`` checks for finiteness.
_FLOAT_CODES = np.typecodes["AllFloat"]


def dense_svd(
    array: np.ndarray, rank: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD ``array = U @ diag(s) @ Vh`` of a 2-d ndarray.

    The one dense SVD kernel of both backends.  ``s`` is always the full
    spectrum.  With ``rank``, ``U`` and ``Vh`` need only hold the leading
    ``rank`` singular vectors: when ``0 < rank < short`` and
    ``long >= 4 * short`` the long side is Householder-reduced first (Chan's
    R-SVD) and only the kept vectors are formed.  Every other call is one
    economy ``gesdd``, with the workspace and so the bits of
    ``scipy.linalg.svd``.  Both routes raise ``ValueError`` on non-finite
    input and fall back from gesdd to gesvd when LAPACK fails.
    """
    array = np.asarray(array)
    if array.ndim != 2:
        raise ValueError(f"svd expects a matrix, got ndim={array.ndim}")
    if array.size == 0:
        return scipy.linalg.svd(array, full_matrices=False)
    # np.asarray_chkfinite's check, without its conversion of an ndarray.
    if array.dtype.char in _FLOAT_CODES and not np.isfinite(array).all():
        raise ValueError("array must not contain infs or NaNs")
    m, n = array.shape
    short, long = (m, n) if m <= n else (n, m)
    if rank is not None and 0 < rank < short and long >= _QR_SVD_MIN_ASPECT * short:
        return _qr_svd(array, int(rank))
    return _lapack_svd(array)


def _lapack_svd(
    array: np.ndarray, overwrite: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD of a finite matrix by gesdd, retried with gesvd when gesdd
    does not converge.  ``overwrite`` lets gesdd destroy ``array``."""
    gesdd, lwork = _gesdd(array.dtype, *array.shape)
    u, s, vh, info = gesdd(array, compute_uv=1, full_matrices=0, lwork=lwork,
                           overwrite_a=overwrite)
    if info > 0:  # pragma: no cover - rare LAPACK failure
        return scipy.linalg.svd(array, full_matrices=False, lapack_driver="gesvd")
    if info < 0:  # pragma: no cover - only an illegal argument sets it
        raise ValueError(f"illegal value in argument {-info} of gesdd")
    return u, s, vh


def _qr_svd(array: np.ndarray, rank: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R-SVD keeping ``rank`` vector pairs.

    A tall ``A = Q R`` has ``A = (Q U_R) S V_R^H`` with ``R = U_R S V_R^H``.
    A wide ``A`` is factorised through ``A^T = Q R`` (for a C-ordered ``A``
    a Fortran-ordered view, so nothing is conjugated first):
    ``A = R^T Q^T = U_C S (Q V_C^T)^T`` with ``R^T = U_C S V_C``.  Either
    way Q is applied to the ``rank`` kept vectors only, with ``geqrt`` /
    ``gemqrt`` on a panel at least ``_GEQRT_MIN_SHORT`` wide and ``geqrf`` /
    ``ormqr`` below.
    """
    tall = array.shape[0] >= array.shape[1]
    t = array if tall else array.T
    m, n = t.shape
    wide_panel = n >= _GEQRT_MIN_SHORT
    if wide_panel:
        geqrt, gemqrt = _lapack(t.dtype, "geqrt", "gemqrt")
        qr, blocks, qr_info = geqrt(min(_GEQRT_BLOCK, n), t)
    else:
        geqrf, qr_lwork, ormqr, q_lwork = _geqrf(t.dtype, m, n, rank)
        qr, tau, _, qr_info = geqrf(t, lwork=qr_lwork)
    below, zero = _below_diagonal(qr.dtype, n, n)
    r = np.where(below, zero, qr[:n])
    u_core, s, vh_core = _lapack_svd(r if tall else r.T, overwrite=True)
    kept = np.zeros((m, rank), dtype=qr.dtype)
    kept[:n] = u_core[:, :rank] if tall else vh_core[:rank].T
    if wide_panel:
        q_kept, q_info = gemqrt(qr, blocks, kept, overwrite_c=1)
    else:
        q_kept, _, q_info = ormqr("L", "N", qr, tau, kept, q_lwork, overwrite_c=1)
    if qr_info or q_info:  # pragma: no cover - only an illegal argument sets them
        raise np.linalg.LinAlgError(f"QR-reduced SVD failed (info {qr_info}, {q_info})")
    if tall:
        return q_kept, s, vh_core[:rank]
    return u_core[:, :rank], s, q_kept.T


def dense_qr(array: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced QR ``array = Q @ R`` of a 2-d ndarray.

    The one dense QR kernel of both backends: LAPACK ``geqrf`` with its
    optimal workspace, then ``orgqr``/``ungqr`` on the ``min(m, n)`` leading
    reflectors, through wrappers and workspace sizes cached per dtype and
    shape.  It returns exactly the bits of
    ``np.linalg.qr(array, mode="reduced")`` (same reflectors, same blocking,
    same dtype promotion) without NumPy's gufunc copies.
    """
    array = np.asarray(array)
    if array.ndim != 2:
        raise ValueError(f"qr expects a matrix, got ndim={array.ndim}")
    m, n = array.shape
    k = min(m, n)
    # np.linalg.qr computes in double precision and casts back.
    result_dtype, work_dtype, kernels, (below, zero) = _qr_kernel(array.dtype, m, n)
    if k == 0:
        return np.zeros((m, k), dtype=result_dtype), np.zeros((k, n), dtype=result_dtype)
    if array.dtype != work_dtype:
        array = array.astype(work_dtype)
    geqrf, qr_lwork, orgqr, q_lwork = kernels
    qr, tau, _, qr_info = geqrf(array, lwork=qr_lwork)
    r = np.where(below, zero, qr[:k])
    q, _, q_info = orgqr(qr[:, :k], tau, lwork=q_lwork, overwrite_a=1)
    if qr_info or q_info:  # pragma: no cover - only an illegal argument sets them
        raise np.linalg.LinAlgError(f"geqrf/orgqr failed (info {qr_info}, {q_info})")
    if result_dtype != work_dtype:
        q, r = q.astype(result_dtype), r.astype(result_dtype)
    return q, r


def uniform_array(
    shape: Sequence[int], low: float, high: float, rng: SeedLike = None
) -> np.ndarray:
    """I.i.d. complex entries with ``U[low, high)`` real and imaginary parts:
    the real parts, then the imaginary parts, from the same stream as
    ``rng.uniform(...) + 1j * rng.uniform(...)`` would, into one array."""
    rng = ensure_rng(rng)
    shape = tuple(shape)
    data = np.empty(shape, dtype=np.complex128)
    data.real = rng.uniform(low, high, shape)
    data.imag = rng.uniform(low, high, shape)
    return data


class Backend(abc.ABC):
    """Protocol for tensor creation, manipulation and dense linear algebra."""

    #: human-readable backend name (``"numpy"``, ``"distributed"``)
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Creation and conversion
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def astensor(self, data: Any, dtype: Optional[np.dtype] = None) -> Tensor:
        """Convert array-like ``data`` into a backend-native tensor."""

    @abc.abstractmethod
    def asarray(self, tensor: Tensor) -> np.ndarray:
        """Return the full dense :class:`numpy.ndarray` of ``tensor``.

        For distributed backends this implies a gather of all shards.
        """

    @abc.abstractmethod
    def ones(self, shape: Sequence[int], dtype: np.dtype = np.complex128) -> Tensor:
        """Dense tensor of ones."""

    @abc.abstractmethod
    def random_uniform(
        self,
        shape: Sequence[int],
        low: float = -1.0,
        high: float = 1.0,
        rng: SeedLike = None,
    ) -> Tensor:
        """Complex tensor with i.i.d. entries.

        Both the real and imaginary parts are drawn from ``U[low, high)`` —
        this is the probe distribution used by the randomized SVD
        (Algorithm 4 draws from ``[-1, 1]``).
        """

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def reshape(self, tensor: Tensor, shape: Sequence[int]) -> Tensor:
        """Reshape (fold/unfold) a tensor.

        On the distributed backend this is the operation the paper identifies
        as a potential bottleneck: changing the fold generally requires a
        global redistribution of the data.
        """

    @abc.abstractmethod
    def transpose(self, tensor: Tensor, axes: Sequence[int]) -> Tensor:
        """Permute tensor modes."""

    @abc.abstractmethod
    def conj(self, tensor: Tensor) -> Tensor:
        """Complex conjugate."""

    @abc.abstractmethod
    def copy(self, tensor: Tensor) -> Tensor:
        """An independent copy of ``tensor``."""

    # ------------------------------------------------------------------ #
    # Contraction and elementwise algebra
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def einsum(self, subscripts, *operands: Tensor) -> Tensor:
        """Einstein-summation contraction of one or more tensors.

        ``subscripts`` is an einsum string or, for networks with more labels
        than the einsum alphabet, an
        :class:`~repro.tensornetwork.einsum_spec.EinsumSpec` of any hashable
        labels (what :func:`~repro.tensornetwork.network.contract_network`
        passes).  Every call runs the planner's plan: subscripts outside its
        grammar (ellipsis, a label repeated within one term) raise
        ``ValueError``."""

    @abc.abstractmethod
    def einsum_batched(self, subscripts: str, *operands: Tensor) -> Tensor:
        """Batched einsum: one contraction applied in lockstep across a batch.

        ``subscripts`` is a plain einsum string with an explicit output; every
        operand carries one extra *leading batch axis* of size ``B`` or ``1``
        (size-1 batch axes broadcast).  The result has shape
        ``(B, *item_shape)`` and item ``i`` equals
        ``einsum(subscripts, *[op[min(i, b_op - 1)] for op])`` up to round-off.

        Backends run it as a single fused call (the NumPy backend plans one
        batch-aware cached path; the distributed backend charges the whole
        batch as *one* contraction, amortizing latency and message costs
        across items).
        """

    @abc.abstractmethod
    def norm(self, tensor: Tensor) -> float:
        """Frobenius norm."""

    @abc.abstractmethod
    def item(self, tensor: Tensor) -> complex:
        """The scalar value of a 0-d (or single-element) tensor."""

    # ------------------------------------------------------------------ #
    # Dense factorizations of matrices (2-d tensors)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def svd(
        self, matrix: Tensor, rank: Optional[int] = None
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Economy SVD ``matrix = U @ diag(s) @ Vh``; ``s`` is 1-d and real.

        ``s`` is always the complete spectrum, so truncation rules see every
        singular value.  Without ``rank``, ``U`` and ``Vh`` hold all
        ``min(m, n)`` vectors.  With ``rank``, only their leading ``rank``
        columns (rows of ``Vh``) are promised: a caller that keeps more than
        ``rank`` vectors must not pass it.  The flop count charged is that
        of the economy SVD either way (:func:`~repro.utils.flops.svd_flops`).
        """

    @abc.abstractmethod
    def qr(self, matrix: Tensor) -> Tuple[Tensor, Tensor]:
        """Reduced QR factorization of a matrix."""

    # ------------------------------------------------------------------ #
    # Local <-> distributed movement
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def to_local(self, tensor: Tensor) -> np.ndarray:
        """Gather a (small) tensor into process-local memory as an ndarray.

        Algorithm 5 of the paper performs the eigendecomposition of the Gram
        matrix locally; this is the primitive that moves the Gram matrix out
        of distributed memory.
        """

    @abc.abstractmethod
    def from_local(self, array: np.ndarray) -> Tensor:
        """Scatter a process-local ndarray back into a backend tensor."""

    # ------------------------------------------------------------------ #
    # Derived helpers (implemented once, shared by all backends)
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release any execution resources held by the backend.

        In-process backends hold none, so the default is a no-op; backends
        that own worker processes (the pool executor of the distributed
        backend) override this to shut them down.  Safe to call repeatedly.
        """

    def shape(self, tensor: Tensor) -> Tuple[int, ...]:
        """Shape of a tensor (native tensors expose ``.shape``)."""
        return tuple(tensor.shape)

    def ndim(self, tensor: Tensor) -> int:
        """Number of modes of a tensor."""
        return int(getattr(tensor, "ndim", len(tensor.shape)))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"

"""Sequential/threaded tensor backend built on NumPy.

This backend operates directly on :class:`numpy.ndarray` objects.  It is the
reference implementation of the :class:`~repro.backends.interface.Backend`
protocol and the one used for all accuracy studies; ``reshape`` and
``transpose`` are (nearly) free here, in contrast with the distributed
backend where they imply data redistribution.

An optional :class:`~repro.utils.flops.FlopCounter` can be attached so that
algorithmic cost can be measured independently of wall-clock noise (used by
the Table II benchmark).

Importing this module sets the process allocator to keep freed heap memory
(:func:`_keep_freed_heap`), so contraction intermediates reuse resident pages
instead of faulting in fresh zero-filled ones, and runs every loaded BLAS on
one thread (:func:`_one_blas_thread`), so a result's bits and speed do not
depend on ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import ctypes
import os
import re
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.interface import (
    Backend,
    dense_qr,
    dense_svd,
    parse_batched_subscripts,
    rewrite_batched_subscripts,
    uniform_array,
)
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.trace import TRACER as _TRACER
from repro.tensornetwork import contraction_path as _planner
from repro.tensornetwork.einsum_spec import EinsumSpec
from repro.utils.flops import FlopCounter, qr_flops, svd_flops
from repro.utils.rng import SeedLike

#: glibc's ``mallopt`` parameter number for ``M_TOP_PAD`` (``<malloc.h>``).
_M_TOP_PAD = -2
#: Heap slack glibc keeps above the top chunk when it grows or trims the heap.
#: A strip pass allocates and frees 1-2 MiB intermediates many times over.
#: Per pass, 8 MiB of slack leaves thousands of page faults on the ITE pass
#: and more than glibc's default on the IBMPS norm, 32 MiB hundreds on the
#: BMPS norm, 64 MiB a few dozen on every ladder workload (docs/perf.md).
_TOP_PAD_BYTES = 64 << 20


def _keep_freed_heap() -> None:
    """Make glibc keep freed heap memory resident for the next allocation.

    By default glibc serves a large array either from a fresh ``mmap`` or from
    the heap top, which it trims back to the kernel when the array is freed;
    either way every reuse of that memory zero-fills new pages, and in a
    contraction pass that page-fault work outweighs the arithmetic.  A large
    ``M_TOP_PAD`` keeps the slack mapped, so intermediates land on warm pages.
    Values are unchanged; only where they live is.  A silent no-op where the
    C library is not glibc or has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


_keep_freed_heap()

#: Shared libraries whose file name marks a BLAS with its own thread pool.
_BLAS_LIBRARY = re.compile(r"^lib.*(openblas|mkl_rt|blis)", re.IGNORECASE)
#: Thread-count setters, first match wins: OpenBLAS as the NumPy (ILP64,
#: ``64_`` suffix) and SciPy wheels bundle it, plain OpenBLAS, MKL, BLIS.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
    "MKL_Set_Num_Threads",
    "bli_thread_set_num_threads",
)


def _one_blas_thread() -> Tuple[int, str]:
    """Run every BLAS library this process has loaded on one thread.

    Parallelism comes from processes (sweep workers, pool ranks), one per
    core.  A threaded BLAS makes the small products of a contraction pass
    slower, not faster, and makes their bits depend on the thread count.
    The libraries are read off ``/proc/self/maps``; each is set through the
    first setter of :data:`_BLAS_THREAD_SETTERS` it exports.  Returns
    ``(1, what was set)``, or ``(0, why nothing was)`` when the map is
    unreadable, no BLAS is mapped, or one cannot be opened or has no known
    setter (then none is set).  Forked workers inherit the setting.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in maps)
                     if len(fields) == 6}
    except OSError as exc:
        return 0, f"no thread count set: /proc/self/maps unreadable ({exc.strerror})"
    setters = {}
    for path in sorted(paths):
        library_name = os.path.basename(path)
        if not _BLAS_LIBRARY.match(library_name):
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:
            return 0, f"no thread count set: {library_name} cannot be opened"
        known = [name for name in _BLAS_THREAD_SETTERS if hasattr(library, name)]
        if not known:
            return 0, f"no thread count set: {library_name} exports no known setter"
        setters[f"{library_name} ({known[0]})"] = getattr(library, known[0])
    if not setters:
        return 0, "no thread count set: no BLAS library is loaded"
    for setter in setters.values():
        setter.argtypes = (ctypes.c_int,)
        setter.restype = None
        setter(1)
    return 1, "one thread: " + ", ".join(setters)


#: BLAS threads this process runs with (0: unknown, not set) and what
#: :func:`_one_blas_thread` did or why it did nothing.
BLAS_THREADS, BLAS_THREADS_NOTE = _one_blas_thread()
REGISTRY.gauge("backends.blas_threads").set(BLAS_THREADS)


class NumPyBackend(Backend):
    """Backend implementation over plain :class:`numpy.ndarray` tensors."""

    name = "numpy"

    def __init__(self, flop_counter: Optional[FlopCounter] = None) -> None:
        self.flop_counter = flop_counter

    # ------------------------------------------------------------------ #
    # Creation and conversion
    # ------------------------------------------------------------------ #
    def astensor(self, data: Any, dtype: Optional[np.dtype] = None) -> np.ndarray:
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return arr

    def asarray(self, tensor: np.ndarray) -> np.ndarray:
        return np.asarray(tensor)

    def ones(self, shape: Sequence[int], dtype: np.dtype = np.complex128) -> np.ndarray:
        return np.ones(tuple(shape), dtype=dtype)

    def random_uniform(
        self,
        shape: Sequence[int],
        low: float = -1.0,
        high: float = 1.0,
        rng: SeedLike = None,
    ) -> np.ndarray:
        return uniform_array(shape, low, high, rng=rng)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, tensor: np.ndarray, shape: Sequence[int]) -> np.ndarray:
        return np.asarray(tensor).reshape(shape)

    def transpose(self, tensor: np.ndarray, axes: Sequence[int]) -> np.ndarray:
        return np.asarray(tensor).transpose(axes)

    def conj(self, tensor: np.ndarray) -> np.ndarray:
        return np.conj(tensor)

    def copy(self, tensor: np.ndarray) -> np.ndarray:
        return np.array(tensor, copy=True)

    # ------------------------------------------------------------------ #
    # Contraction and algebra
    # ------------------------------------------------------------------ #
    def einsum(self, subscripts: Union[str, EinsumSpec], *operands: np.ndarray) -> np.ndarray:
        """Contract along the planner's cached plan, one ``np.matmul`` per
        pairwise step.  An :class:`EinsumSpec`, whose labels may be any
        hashables, stands in for subscripts the einsum alphabet cannot spell."""
        return self._contract("einsum", subscripts, operands)

    def einsum_batched(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        """One fused contraction over the whole batch with a cached plan.

        Operands whose batch axis has size 1 are squeezed and treated as
        unbatched (the planner then sees them as shared factors instead of
        broadcast copies); the rest share one extra batch label.  The
        rewritten subscripts go through the same plan cache as :meth:`einsum`,
        so lockstep hot loops plan each (subscripts, shapes) combination once.
        """
        shapes = [tuple(int(s) for s in op.shape) for op in operands]
        _, _, batch_dims, batch = parse_batched_subscripts(subscripts, shapes)
        if batch == 1:
            squeezed = [op.reshape(op.shape[1:]) for op in operands]
            result = self.einsum(subscripts, *squeezed)
            return result[np.newaxis, ...]
        batched_subscripts, _ = rewrite_batched_subscripts(subscripts, batch_dims)
        ops = [
            op.reshape(op.shape[1:]) if dim == 1 else op
            for op, dim in zip(operands, batch_dims)
        ]
        return self._contract("einsum_batched", batched_subscripts, ops,
                              subscripts=subscripts, batch=batch)

    def _contract(self, category: str, spec, operands: Sequence[np.ndarray], **described):
        """Look the plan up, run it, count its flops; one span around it all
        when tracing (an einsum string names itself in the span)."""
        plan = _planner.find_path(spec, [op.shape for op in operands])
        if _TRACER.active:
            if not described and isinstance(spec, str):
                described["subscripts"] = spec
            with _TRACER.span(category, operands=len(operands), steps=len(plan.path),
                              **described):
                result = _execute(plan, operands)
        else:
            result = _execute(plan, operands)
        if self.flop_counter is not None:
            self.flop_counter.add(category, plan.total_flops)
        return result

    def norm(self, tensor: np.ndarray) -> float:
        return float(np.linalg.norm(np.ravel(tensor)))

    def item(self, tensor: np.ndarray) -> complex:
        arr = np.asarray(tensor)
        if arr.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {arr.shape}")
        return complex(arr.reshape(()))

    # ------------------------------------------------------------------ #
    # Dense factorizations
    # ------------------------------------------------------------------ #
    def svd(
        self, matrix: np.ndarray, rank: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        matrix = np.asarray(matrix)
        u, s, vh = dense_svd(matrix, rank=rank)
        if self.flop_counter is not None:
            self.flop_counter.add("svd", svd_flops(*matrix.shape))
        return u, s, vh

    def qr(self, matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        matrix = np.asarray(matrix)
        q, r = dense_qr(matrix)
        if self.flop_counter is not None:
            self.flop_counter.add("qr", qr_flops(*matrix.shape))
        return q, r

    # ------------------------------------------------------------------ #
    # Local <-> "distributed" movement (trivial here)
    # ------------------------------------------------------------------ #
    def to_local(self, tensor: np.ndarray) -> np.ndarray:
        return np.asarray(tensor)

    def from_local(self, array: np.ndarray) -> np.ndarray:
        return self.astensor(array)


def _execute(plan: _planner.ContractionPlan, operands: Sequence[np.ndarray]) -> np.ndarray:
    """Run the plan's lowered steps (laid out by ``contraction_path._lower``).

    A blocked plan runs as its output slices, each slice's result written in
    place into one output laid out as the whole plan's last step lays out its
    result (``contraction_path.Blocking``), unless its slices would lay some
    matrix out unlike the whole plan does (:func:`blocks_run_alike`).
    """
    blocking = plan.blocking
    if blocking is not None and blocks_run_alike(plan, operands):
        label = blocking.label
        blocks = (
            _execute(blocking.plan, _planner.slice_operands(plan.inputs, label, operands, lo, hi))
            for lo, hi in blocking.bounds
        )
        perm_ab = plan.lowered[-1][-1]
        return _planner.concat_blocks(plan.output, label, blocks, blocking.bounds[-1][1], perm_ab)
    work = list(operands)
    if len(work) == 1:
        ((sum_axes, perm),) = plan.lowered
        a = work[0].sum(axis=sum_axes, dtype=work[0].dtype) if sum_axes else work[0]
        return a.transpose(perm)
    for (i, j), lowered in zip(plan.path, plan.lowered):
        sum_a, perm_a, shape_a, sum_b, perm_b, shape_b, shape_ab, perm_ab = lowered
        b, a = work.pop(j), work.pop(i)
        if sum_a:
            a = a.sum(axis=sum_a, dtype=a.dtype, keepdims=True)
        if sum_b:
            b = b.sum(axis=sum_b, dtype=b.dtype, keepdims=True)
        ab = np.matmul(a.transpose(perm_a).reshape(shape_a), b.transpose(perm_b).reshape(shape_b))
        work.append(ab.reshape(shape_ab).transpose(perm_ab))
    return work[0]


def blocks_run_alike(plan: _planner.ContractionPlan, operands: Sequence[np.ndarray]) -> bool:
    """Whether ``plan``'s blocks, run on slices of ``operands``, hand
    ``np.matmul`` every matrix laid out as the whole plan's run does.

    NumPy picks the BLAS call, and so the rounding, from which axis of a
    matrix has unit stride.  A whole operand's transpose-reshape may copy
    where its slice's is a view (or the other way round), for instance when
    the slice leaves an axis of extent 1 or the operand is itself a slice;
    then the blocks would round unlike the whole, and the plan runs whole.
    Decided from the operands' strides alone, by running the steps on
    stand-ins that share one element (nothing is read or written).
    """
    whole = [_stand_in(op.shape, op.strides, op.dtype) for op in operands]
    lo, hi = plan.blocking.bounds[0]
    sliced = _planner.slice_operands(plan.inputs, plan.blocking.label, whole, lo, hi)
    return _matrix_layouts(plan, whole) == _matrix_layouts(plan.blocking.plan, sliced)


def _matrix_layouts(plan: _planner.ContractionPlan, operands: List[np.ndarray]) -> list:
    """How ``np.matmul`` takes each matrix product of the pairwise ``plan``
    run by :func:`_execute` on the stand-ins ``operands``.

    A product of two BLAS-ready matrices, none of its extents 1, is one GEMM
    whatever their orientation (OpenBLAS packs both alike): ``"gemm"``.  Any
    other takes a path that depends on its operands' layouts, so each is
    recorded: which of its last two axes has unit stride, and whether the
    other axis's stride spans a row (column).  A step that sums axes first
    records the summed operand's shape.
    """
    work = list(operands)
    layouts = []
    for (i, j), lowered in zip(plan.path, plan.lowered):
        sum_a, perm_a, shape_a, sum_b, perm_b, shape_b, shape_ab, perm_ab = lowered
        b, a = work.pop(j), work.pop(i)
        matrices = []
        for x, axes, perm, shape in ((a, sum_a, perm_a, shape_a), (b, sum_b, perm_b, shape_b)):
            if axes:
                # NumPy orders a sum's additions by its operand's shape and
                # strides: one over a sliced operand counts as unlike.  Its
                # result keeps the operand's axis order.
                layouts.append(("sum", x.shape))
                kept = tuple(slice(0, 1) if k in axes else slice(None) for k in range(x.ndim))
                x = np.empty_like(x[kept], order="K")
            try:
                x = x.transpose(perm).reshape(shape, copy=False)
            except ValueError:  # the reshape copies, into C order
                x = _stand_in(shape, None, x.dtype)
            (_, rows, cols), (_, row_step, col_step) = x.shape, x.strides
            matrices.append((col_step == x.itemsize, row_step == x.itemsize,
                             row_step >= cols * x.itemsize, col_step >= rows * x.itemsize))
        blas_ready = all(c and c_rows or f and f_cols for c, f, c_rows, f_cols in matrices)
        layouts.append("gemm" if blas_ready and min(shape_a[1:] + shape_b[2:]) > 1
                       else tuple(matrices))
        work.append(_stand_in(shape_ab, None, np.result_type(a, b)).transpose(perm_ab))
    return layouts


def _stand_in(shape: Sequence[int], strides: Optional[Sequence[int]], dtype) -> np.ndarray:
    """An array of ``shape``, byte ``strides`` (``None``: C-contiguous) and
    ``dtype`` over one element: its views and reshapes behave as a real
    array's, and its data is never read."""
    dtype = np.dtype(dtype)
    if strides is None:
        strides, step = [], dtype.itemsize
        for extent in reversed(shape):
            strides.insert(0, step)
            step *= max(extent, 1)
    return np.lib.stride_tricks.as_strided(
        np.zeros(1, dtype), tuple(shape), tuple(strides), writeable=False
    )


def path_cache_stats() -> dict:
    """Hit/miss/size counters of the planner's plan cache (see
    :func:`repro.tensornetwork.contraction_path.path_cache_stats`)."""
    return _planner.path_cache_stats()


def clear_path_caches() -> None:
    """Drop every cached contraction plan (see
    :func:`repro.tensornetwork.contraction_path.clear_path_caches`)."""
    _planner.clear_path_caches()


"""Deterministic pairwise contraction engine for the distributed backend.

Both executors of :class:`~repro.backends.distributed.backend.DistributedBackend`
— the in-process ``simulated`` one and the multi-process ``pool`` one — run
einsums through the same two-phase engine:

1. :func:`plan_einsum` fixes a contraction *plan* from the **global** operand
   shapes: the shared, cached pairwise plan of
   :func:`repro.tensornetwork.contraction_path.find_path`, plus the output
   label along which the computation is block-partitioned across ranks.
2. :func:`execute_plan` evaluates the plan block by block, each block as a
   chain of two-operand ``np.einsum(..., optimize=False)`` calls.

Bitwise parity across executors and rank counts rests on two invariants:

* **Pure-C pairwise kernels.**  Every pairwise step runs with
  ``optimize=False``, which routes it through NumPy's C einsum kernel (a
  direct sum-of-products loop) instead of BLAS.  For identical operand
  buffers the kernel is deterministic; a BLAS GEMM would change its
  reduction blocking (and hence low-order bits) with the matrix extents.
* **Canonical blocks.**  The kernel NumPy picks for a step depends on the
  operands' extents and memory layout, so the *unit of computation* must not
  depend on how many ranks share the work.  The plan therefore fixes a
  canonical partition of the shard label into :data:`CANONICAL_PARTS` blocks
  (fewer when the extent is smaller), and every operand of every block is
  materialized contiguously before its chain runs.  A rank executes a
  contiguous *range* of canonical blocks — block ``b`` is computed by the
  exact same sequence of kernel calls no matter which process owns it or how
  the operand arrived there.

Subscripts the lightweight parser rejects (ellipsis, repeated labels within
a term) fall back to a single whole-tensor ``np.einsum`` call, which is
never partitioned and hence trivially invariant to the rank count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.tensornetwork.contraction_path import ContractionPlan, find_path

#: Number of canonical blocks a sharded contraction is split into (fewer when
#: the shard extent is smaller).  This caps useful pool parallelism per
#: einsum and bounds the per-call blocking overhead of the serial executor.
CANONICAL_PARTS = 16


def shard_bounds(extent: int, nparts: int) -> List[Tuple[int, int]]:
    """Contiguous-block partition of ``range(extent)`` into ``nparts`` pieces.

    Blocks are maximally balanced (sizes differ by at most one) and cover the
    range exactly; when ``nparts > extent`` the trailing blocks are empty.
    """
    extent = int(extent)
    nparts = max(1, int(nparts))
    return [
        ((rank * extent) // nparts, ((rank + 1) * extent) // nparts)
        for rank in range(nparts)
    ]


@dataclass(frozen=True)
class EinsumPlan:
    """A contraction plan fixed from global shapes (see module docstring).

    ``contraction`` is the planner's shared plan, ``None`` for subscripts it
    cannot handle; those execute as one whole einsum call.  ``shard_label``
    is an output label to block-partition across ranks (``None`` when the
    output has none, e.g. scalar results), with ``shard_extent`` its global
    extent and ``shard_parts`` the canonical block count.  Plans are
    immutable and picklable, so the driver can ship one plan to every pool
    worker alongside that worker's operand slices.
    """

    subscripts: str
    contraction: Optional[ContractionPlan]
    shard_label: Optional[str] = None
    shard_extent: int = 0
    shard_parts: int = 0

    @property
    def fallback(self) -> bool:
        return self.contraction is None

    def canonical_bounds(self) -> List[Tuple[int, int]]:
        """The canonical block partition of the shard label."""
        return shard_bounds(self.shard_extent, self.shard_parts)


def plan_einsum(subscripts: str, shapes: Sequence[Tuple[int, ...]]) -> EinsumPlan:
    """Fix a contraction plan for ``subscripts`` from the global ``shapes``:
    the shared plan, sharded on the output label of largest extent (the
    first such; labels never repeat within a parsed term)."""
    try:
        contraction = find_path(subscripts, shapes)
    except ValueError:
        return EinsumPlan(subscripts, None)
    extents = {
        label: extent
        for term, shape in zip(contraction.inputs, shapes)
        for label, extent in zip(term, shape)
    }
    label = max(contraction.output, key=extents.get, default=None)
    if label is None or extents[label] < 1:
        return EinsumPlan(subscripts, contraction)
    extent = int(extents[label])
    return EinsumPlan(subscripts, contraction, label, extent, min(extent, CANONICAL_PARTS))


def _chain(plan: ContractionPlan, operands: Sequence[np.ndarray]) -> np.ndarray:
    """Run the plan's steps on one block's operands.

    Operands are materialized contiguously first: the C einsum kernel NumPy
    dispatches to depends on operand strides, so the canonical computation
    must see canonical buffers whether a block's data is a fresh view into
    the global array (serial executor) or arrived through a pipe (pool).
    """
    operands = [np.ascontiguousarray(op) for op in operands]
    return np.asarray(plan.execute(operands, partial(np.einsum, optimize=False)))


def execute_plan(
    plan: EinsumPlan,
    operands: Sequence[np.ndarray],
    bounds: Optional[Sequence[Tuple[int, int]]] = None,
) -> np.ndarray:
    """Evaluate a plan on its operands, block by block.

    ``bounds`` selects the block partition of the shard label *relative to
    the given operands*; by default the plan's canonical partition of the
    full extent.  Pool workers receive their operand slices together with
    the relative bounds of the canonical blocks they own, so the very same
    kernel calls run regardless of rank placement.
    """
    arrays = [np.asarray(op) for op in operands]
    if plan.fallback:
        arrays = [np.ascontiguousarray(a) for a in arrays]
        return np.asarray(np.einsum(plan.subscripts, *arrays, optimize=True))
    if plan.shard_label is None:
        return _chain(plan.contraction, arrays)
    if bounds is None:
        bounds = plan.canonical_bounds()
    blocks = [
        _chain(plan.contraction, slice_operands(plan, arrays, lo, hi))
        for lo, hi in bounds
    ]
    return concat_blocks(plan, blocks)


def slice_operands(
    plan: EinsumPlan, operands: Sequence[np.ndarray], lo: int, hi: int
) -> List[np.ndarray]:
    """Restrict every operand carrying the shard label to ``[lo, hi)``."""
    out: List[np.ndarray] = []
    for term, array in zip(plan.contraction.inputs, operands):
        if plan.shard_label in term:
            index = [slice(None)] * array.ndim
            index[term.index(plan.shard_label)] = slice(lo, hi)
            array = array[tuple(index)]
        out.append(array)
    return out


def concat_blocks(plan: EinsumPlan, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Reassemble result blocks along the shard axis of the output."""
    if len(blocks) == 1:
        return np.asarray(blocks[0])
    axis = plan.contraction.output.index(plan.shard_label)
    return np.concatenate([np.asarray(b) for b in blocks], axis=axis)

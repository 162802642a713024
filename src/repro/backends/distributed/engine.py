"""Deterministic pairwise contraction engine for the distributed backend.

Both executors of :class:`~repro.backends.distributed.backend.DistributedBackend`
— the in-process ``simulated`` one and the multi-process ``pool`` one — run
einsums through the same two-phase engine:

1. :func:`plan_einsum` fixes a contraction *plan* from the **global** operand
   shapes: the shared, cached pairwise plan of
   :func:`repro.tensornetwork.contraction_path.find_path`, plus the output
   label along which the computation is block-partitioned across ranks, plus
   that plan's path re-lowered at each canonical block's extents.
2. :func:`execute_plan` evaluates the plan block by block, each block as the
   NumPy backend runs a plan: one transpose, reshape and ``np.matmul`` per
   pairwise step.  Operands are sliced and block results joined by the
   planner's :func:`~repro.tensornetwork.contraction_path.slice_operands` and
   :func:`~repro.tensornetwork.contraction_path.concat_blocks`, which the
   NumPy backend's cache-sized blocks use too: each block is written into one
   preallocated C-contiguous output as it is computed, the bytes and layout
   NumPy's concatenation gives the contiguous blocks.

Bitwise parity across executors and rank counts rests on two invariants:

* **Canonical blocks.**  The plan fixes a canonical partition of the shard
  label into :data:`CANONICAL_PARTS` blocks (fewer when the extent is
  smaller, or when the output is too small to give its blocks
  :data:`MIN_BLOCK_SIZE` elements each on average), and a rank executes a
  contiguous *range* of them.  The block count reads only global shapes.
  Block ``b`` has the same extents however many ranks share the work, so
  every matrix product of its chain has the same extents too, and a BLAS
  GEMM's reduction blocking (hence its low-order bits) is a function of
  those extents and of the operand buffers alone.  Blocks differ by at most
  one in extent, so a plan carries at most two lowerings.
* **Canonical buffers.**  Every operand of every block is materialized
  contiguously before its chain runs, and every block result leaves it
  contiguous: block ``b`` is computed by the exact same sequence of kernel
  calls on the same bytes no matter which process owns it or how the operand
  arrived there.

Subscripts outside the planner's grammar (ellipsis, a label repeated within
one term) raise the planner's ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.numpy_backend import _execute
from repro.tensornetwork.contraction_path import (
    ContractionPlan,
    concat_blocks,
    find_path,
    relower,
    slice_operands,
)

#: Number of canonical blocks a sharded contraction is split into (fewer when
#: the shard extent is smaller or the output small, see
#: :data:`MIN_BLOCK_SIZE`).  This caps useful pool parallelism per
#: einsum and bounds the per-call blocking overhead of the serial executor.
CANONICAL_PARTS = 16

#: Output elements per canonical block, at least on average (64 KiB of
#: ``complex128``): an output of ``size`` elements splits into at most
#: ``size // MIN_BLOCK_SIZE`` blocks, so a small output runs as one block
#: instead of paying every block's slicing, copies and concatenation for a
#: few elements each.
MIN_BLOCK_SIZE = 4096


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

    ``contraction`` is the planner's shared plan.  ``shard_label``
    is an output label to block-partition across ranks (``None`` when the
    output has none, e.g. scalar results), with ``shard_extent`` its global
    extent and ``shard_parts`` the canonical block count.  ``blocks`` pairs
    each canonical block extent with ``contraction`` re-lowered at it.  Plans
    are immutable and picklable, so the driver can ship one plan to every
    pool worker alongside that worker's operand slices.
    """

    subscripts: str
    contraction: ContractionPlan
    shard_label: Optional[str] = None
    shard_extent: int = 0
    shard_parts: int = 0
    blocks: Tuple[Tuple[int, ContractionPlan], ...] = ()

    def canonical_bounds(self) -> List[Tuple[int, int]]:
        """The canonical block partition of the shard label."""
        return shard_bounds(self.shard_extent, self.shard_parts)

    def block_plan(self, extent: int) -> ContractionPlan:
        """The contraction lowered for a canonical block of ``extent``."""
        for size, plan in self.blocks:
            if size == extent:
                return plan
        raise ValueError(f"{extent} is not a canonical block extent of {self.subscripts!r}")


def plan_einsum(subscripts: str, shapes: Sequence[Tuple[int, ...]]) -> EinsumPlan:
    """Fix a contraction plan for ``subscripts`` from the global ``shapes``:
    the shared plan, sharded on the output label of largest extent (the
    first such; labels never repeat within a parsed term)."""
    shapes = tuple(map(tuple, shapes))
    return _shard(subscripts, shapes, find_path(subscripts, shapes))


@lru_cache(maxsize=4096)
def _shard(subscripts: str, shapes: tuple, contraction: ContractionPlan) -> EinsumPlan:
    """The sharded plan of one signature, its block lowerings built once."""
    extents = {
        label: extent
        for term, shape in zip(contraction.inputs, shapes)
        for label, extent in zip(term, shape)
    }
    label = max(contraction.output, key=extents.get, default=None)
    if label is None or extents[label] < 1:
        return EinsumPlan(subscripts, contraction)
    extent = int(extents[label])
    elements = math.prod(extents[out] for out in contraction.output)
    parts = max(1, min(extent, CANONICAL_PARTS, elements // MIN_BLOCK_SIZE))
    sizes = sorted({hi - lo for lo, hi in shard_bounds(extent, parts)})
    blocks = tuple((size, relower(contraction, {**extents, label: size})) for size in sizes)
    return EinsumPlan(subscripts, contraction, label, extent, parts, blocks)


def _run_block(plan: ContractionPlan, operands: Sequence[np.ndarray]) -> np.ndarray:
    """Run one block's lowered steps on canonical (contiguous) buffers and
    leave the result contiguous, as a pool worker's reply arrives."""
    operands = [np.asarray(op, order="C") for op in operands]
    return np.asarray(_execute(plan, operands), order="C")


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
    if plan.shard_label is None:
        return _run_block(plan.contraction, arrays)
    if bounds is None:
        bounds = plan.canonical_bounds()
    inputs, output = plan.contraction.inputs, plan.contraction.output
    label = plan.shard_label
    blocks = (
        _run_block(plan.block_plan(hi - lo), slice_operands(inputs, label, arrays, lo, hi))
        for lo, hi in bounds
    )
    return concat_blocks(output, label, blocks, bounds[-1][1] - bounds[0][0],
                         tuple(range(len(output))))

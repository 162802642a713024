"""Processor grids and block-cyclic tensor distributions.

Cyclops distributes each tensor over a multi-dimensional processor grid with
a cyclic layout along each distributed mode.  The simulated backend keeps the
same descriptors so that it can reason about

* the local (per-process) share of each tensor,
* whether two operations use *compatible* distributions, and
* how much data a redistribution (e.g. a ``reshape`` whose fold crosses
  distributed modes) has to move.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import List, Sequence, Tuple

import numpy as np


def _factorize(n: int) -> List[int]:
    """Prime factorization of ``n`` (small integers only)."""
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


@dataclass(frozen=True)
class ProcessorGrid:
    """A multi-dimensional grid of processes."""

    dims: Tuple[int, ...]

    @property
    def nprocs(self) -> int:
        return int(prod(self.dims)) if self.dims else 1

    @staticmethod
    def for_tensor(shape: Sequence[int], nprocs: int) -> "ProcessorGrid":
        """Choose a grid for a tensor: assign prime factors of ``nprocs`` to the
        largest tensor modes first, greedily balancing the per-process shares."""
        shape = [int(s) for s in shape]
        if not shape or nprocs <= 1:
            return ProcessorGrid(dims=tuple(1 for _ in shape))
        grid = [1] * len(shape)
        remaining = [float(s) for s in shape]
        for factor in sorted(_factorize(nprocs), reverse=True):
            # Place the factor on the mode with the largest remaining share
            # that can still absorb it.
            order = sorted(range(len(shape)), key=lambda i: remaining[i], reverse=True)
            placed = False
            for idx in order:
                if shape[idx] // (grid[idx] * factor) >= 1:
                    grid[idx] *= factor
                    remaining[idx] /= factor
                    placed = True
                    break
            if not placed:
                # Fall back to the largest mode even if it over-decomposes.
                idx = order[0]
                grid[idx] *= factor
                remaining[idx] /= factor
        return ProcessorGrid(dims=tuple(grid))


@dataclass(frozen=True)
class Distribution:
    """Block-cyclic distribution of a tensor over a processor grid.

    ``grid.dims[i]`` processes share mode ``i`` cyclically; modes with grid
    dimension 1 are replicated along that axis of the grid.
    """

    shape: Tuple[int, ...]
    grid: ProcessorGrid

    @staticmethod
    def natural(shape: Sequence[int], nprocs: int) -> "Distribution":
        """The distribution every backend tensor of ``shape`` gets (memoised:
        descriptors are immutable and every tensor operation asks for one)."""
        return _natural(tuple(int(s) for s in shape), int(nprocs))

    @property
    def nprocs(self) -> int:
        return self.grid.nprocs

    @property
    def total_elements(self) -> int:
        return int(prod(self.shape)) if self.shape else 1

    def is_compatible_with(self, other: "Distribution") -> bool:
        """Whether data can be reinterpreted without moving between processes.

        A conservative check: the shapes must be refinements of each other
        along non-distributed trailing modes; in practice we treat only
        identical (shape, grid) pairs and fully-replicated tensors as
        compatible, which errs on the side of charging for redistribution —
        matching the paper's observation that CTF reshapes are expensive.
        """
        if self.shape == other.shape and self.grid.dims == other.grid.dims:
            return True
        if self.nprocs == 1 and other.nprocs == 1:
            return True
        if all(g == 1 for g in self.grid.dims) and all(g == 1 for g in other.grid.dims):
            return True
        return False

    def redistribution_bytes(self, other: "Distribution", itemsize: int = 16) -> int:
        """Bytes that must move to convert this distribution into ``other``."""
        if self.is_compatible_with(other):
            return 0
        return self.total_elements * itemsize

    # ------------------------------------------------------------------ #
    # Materialized block layout
    #
    # Cost accounting above reasons about cyclic layouts; when data actually
    # moves (the pool executor, sharded checkpoints) we materialize each
    # rank's share as one *contiguous block* per mode: rank coordinate ``c``
    # of a grid dimension ``g`` owns ``[c*extent//g, (c+1)*extent//g)``.
    # Blocks partition the tensor exactly, so shard -> reassemble is a
    # bitwise round trip; over-decomposed modes simply yield empty blocks.
    # ------------------------------------------------------------------ #
    def rank_coords(self, rank: int) -> Tuple[int, ...]:
        """Grid coordinates of ``rank`` (C order over ``grid.dims``)."""
        if not self.grid.dims:
            return ()
        return tuple(int(c) for c in np.unravel_index(int(rank), self.grid.dims))

    def block_slices(self, rank: int) -> Tuple[slice, ...]:
        """The contiguous block of the global tensor owned by ``rank``."""
        coords = self.rank_coords(rank)
        slices = []
        for extent, g, c in zip(self.shape, self.grid.dims, coords):
            slices.append(slice((c * extent) // g, ((c + 1) * extent) // g))
        return tuple(slices)

    def reassemble(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Rebuild the global tensor from its per-rank blocks
        (``array[self.block_slices(rank)]``).

        ``blocks[rank]`` must be the block for ``rank`` in ``0..nprocs-1``;
        the reassembled array is bitwise identical to the original.
        """
        blocks = [np.asarray(b) for b in blocks]
        if len(blocks) != self.nprocs:
            raise ValueError(
                f"expected {self.nprocs} blocks for grid {self.grid.dims}, "
                f"got {len(blocks)}"
            )
        out = np.empty(self.shape, dtype=blocks[0].dtype)
        for rank, block in enumerate(blocks):
            out[self.block_slices(rank)] = block
        return out


@lru_cache(maxsize=4096)
def _natural(shape: Tuple[int, ...], nprocs: int) -> Distribution:
    return Distribution(shape=shape, grid=ProcessorGrid.for_tensor(shape, nprocs))

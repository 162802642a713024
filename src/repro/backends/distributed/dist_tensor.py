"""Distributed tensor objects for the simulated backend.

A :class:`DistTensor` pairs a dense ndarray (the *logical* global tensor —
numerically identical to what the NumPy backend would compute) with a
:class:`~repro.backends.distributed.distribution.Distribution` descriptor and
a reference to the owning backend's cost model.  Scaling (``t * 2.0``) and
conjugation are supported directly on the objects and charged to the model,
so library code written for NumPy arrays works unchanged.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.backends.distributed.distribution import Distribution


class DistTensor:
    """A dense tensor carrying a simulated block-cyclic distribution."""

    __array_priority__ = 100  # ensure ndarray defers to our operators

    def __init__(self, array: np.ndarray, distribution: Distribution, backend) -> None:
        array = np.asarray(array)
        if tuple(array.shape) != tuple(distribution.shape):
            raise ValueError(
                f"array shape {array.shape} does not match distribution shape "
                f"{distribution.shape}"
            )
        self.array = array
        self.distribution = distribution
        self.backend = backend
        backend.cost_model.observe_tensor(array.nbytes)

    # ------------------------------------------------------------------ #
    # ndarray-like metadata
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.array.shape)

    @property
    def ndim(self) -> int:
        return self.array.ndim

    @property
    def dtype(self):
        return self.array.dtype

    @property
    def size(self) -> int:
        return int(self.array.size)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def __repr__(self) -> str:
        return (
            f"DistTensor(shape={self.shape}, grid={self.distribution.grid.dims}, "
            f"dtype={self.dtype})"
        )

    # ------------------------------------------------------------------ #
    # Arithmetic (elementwise operations are perfectly parallel; charge the
    # per-process flops only).
    # ------------------------------------------------------------------ #
    def _wrap(self, array: np.ndarray) -> "DistTensor":
        dist = Distribution.natural(array.shape, self.backend.nprocs)
        return DistTensor(array, dist, self.backend)

    def _charge_elementwise(self) -> None:
        self.backend.cost_model.contraction(
            flops=2.0 * self.size, comm_bytes=0.0, messages=0.0, category="elementwise"
        )

    def __mul__(self, other):
        self._charge_elementwise()
        other = other.array if isinstance(other, DistTensor) else other
        return self._wrap(self.array * other)

    def conj(self) -> "DistTensor":
        self._charge_elementwise()
        return self._wrap(np.conj(self.array))

    def __array__(self, dtype=None, copy=None):
        # Implicit conversion to ndarray implies a gather of all shards.
        self.backend.cost_model.gather(self.nbytes)
        return np.array(self.array, dtype=dtype, copy=copy)

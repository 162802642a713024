"""The distributed-memory backend (simulated or real multi-process).

Implements the :class:`~repro.backends.interface.Backend` protocol on
:class:`DistTensor` objects.  Two executors share every code path:

* ``executor="simulated"`` (default) computes in-process; collectives only
  charge the cost model.
* ``executor="pool"`` runs contractions rank-local on a persistent pool of
  worker processes and moves real bytes through the collectives — with
  results *bitwise identical* to the simulated executor, because both
  evaluate the same deterministic pairwise contraction plan
  (:mod:`repro.backends.distributed.engine`).

Either way, every operation is charged to the backend's
:class:`CostModel` — under the pool executor the model acts as a
*predictor* whose accuracy is pinned against measured wall time by the
distributed benchmarks:

* ``einsum`` — flops from the contraction-path optimizer,
  divided over the processes, plus a SUMMA-like communication volume;
* ``reshape`` — a redistribution (all-to-all) of the whole tensor whenever
  the fold is not trivially compatible with the current distribution — this
  is the CTF behaviour the paper's Algorithm 5 is designed to avoid;
* ``svd`` / ``qr`` — ScaLAPACK-style distributed factorizations
  with their latency-heavy panel structure;
* ``to_local`` / ``from_local`` — gather/broadcast of (small) tensors, as in
  Algorithm 5 where the Gram matrix is moved to local memory.

Use :meth:`DistributedBackend.stats` / :meth:`simulated_seconds` to read the
accumulated simulated execution profile, and :meth:`reset_stats` between
benchmark cases.
"""

from __future__ import annotations

from math import sqrt
from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.distributed.comm import ProcessPoolCommunicator, SimulatedCommunicator
from repro.backends.distributed.cost_model import CostModel, ExecutionStats, MachineParameters
from repro.backends.distributed.dist_tensor import DistTensor
from repro.backends.distributed.distribution import Distribution
from repro.backends.distributed.engine import EinsumPlan, plan_einsum
from repro.backends.interface import (
    Backend,
    dense_qr,
    dense_svd,
    parse_batched_subscripts,
    rewrite_batched_subscripts,
    uniform_array,
)
from repro.telemetry.trace import TRACER as _TRACER
from repro.tensornetwork.contraction_path import find_path
from repro.tensornetwork.einsum_spec import EinsumSpec
from repro.utils.checks import nonnegative_int, positive_finite
from repro.utils.flops import qr_flops, svd_flops
from repro.utils.rng import SeedLike


class DistributedBackend(Backend):
    """Cyclops/CTF-style distributed tensor backend (simulated or pooled)."""

    name = "distributed"

    def __init__(
        self,
        nprocs: int = 64,
        machine: Optional[MachineParameters] = None,
        executor: str = "simulated",
        fault=None,
        max_restarts: int = 2,
        timeout: float = 60.0,
    ) -> None:
        max_restarts = nonnegative_int(max_restarts, "max_restarts")
        timeout = positive_finite(timeout, "timeout")
        self.cost_model = CostModel(nprocs=nprocs, machine=machine)
        executor = str(executor).lower()
        if executor == "simulated":
            if fault is not None:
                raise ValueError("fault injection requires executor='pool'")
            self.comm = SimulatedCommunicator(self.cost_model)
        elif executor == "pool":
            self.comm = ProcessPoolCommunicator(
                self.cost_model, fault=fault,
                max_restarts=max_restarts, timeout=timeout,
            )
        else:
            raise ValueError(
                f"unknown distributed executor {executor!r}; "
                "expected 'simulated' or 'pool'"
            )
        self.executor = executor

    def close(self) -> None:
        """Shut down the executor (terminates pool workers); idempotent."""
        self.comm.close()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def nprocs(self) -> int:
        return self.cost_model.nprocs

    @property
    def stats(self) -> ExecutionStats:
        return self.cost_model.stats

    @property
    def simulated_seconds(self) -> float:
        return self.cost_model.simulated_seconds

    def reset_stats(self) -> None:
        self.cost_model.reset()

    # ------------------------------------------------------------------ #
    # Creation and conversion
    # ------------------------------------------------------------------ #
    def _wrap(self, array: np.ndarray) -> DistTensor:
        array = np.asarray(array)
        dist = Distribution.natural(array.shape, self.nprocs)
        return DistTensor(array, dist, self)

    def _data(self, tensor) -> np.ndarray:
        if isinstance(tensor, DistTensor):
            return tensor.array
        return np.asarray(tensor)

    def astensor(self, data: Any, dtype: Optional[np.dtype] = None) -> DistTensor:
        if isinstance(data, DistTensor):
            array = data.array
        else:
            array = np.asarray(data)
        if dtype is not None:
            array = array.astype(dtype, copy=False)
        return self._wrap(array)

    def asarray(self, tensor) -> np.ndarray:
        if isinstance(tensor, DistTensor):
            return np.asarray(self.comm.gather(tensor.array))
        return np.asarray(tensor)

    def ones(self, shape: Sequence[int], dtype: np.dtype = np.complex128) -> DistTensor:
        return self._wrap(np.ones(tuple(shape), dtype=dtype))

    def random_uniform(
        self,
        shape: Sequence[int],
        low: float = -1.0,
        high: float = 1.0,
        rng: SeedLike = None,
    ) -> DistTensor:
        return self._wrap(uniform_array(shape, low, high, rng=rng))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, tensor, shape: Sequence[int]) -> DistTensor:
        data = self._data(tensor)
        shape = tuple(int(s) for s in shape)
        new_data = np.reshape(data, shape)
        if isinstance(tensor, DistTensor):
            new_dist = Distribution.natural(shape, self.nprocs)
            moved = tensor.distribution.redistribution_bytes(new_dist, data.itemsize)
            if moved:
                self.cost_model.redistribution(float(moved))
            return DistTensor(new_data, new_dist, self)
        return self._wrap(new_data)

    def transpose(self, tensor, axes: Sequence[int]) -> DistTensor:
        data = self._data(tensor)
        axes = tuple(int(a) for a in axes)
        # A mode permutation generally changes the processor-grid mapping;
        # CTF implements it as a redistribution of the full tensor.
        if isinstance(tensor, DistTensor) and axes != tuple(range(data.ndim)):
            self.cost_model.redistribution(float(data.nbytes), category="transpose")
        return self._wrap(np.transpose(data, axes))

    def conj(self, tensor) -> DistTensor:
        if isinstance(tensor, DistTensor):
            return tensor.conj()
        return self._wrap(np.conj(self._data(tensor)))

    def copy(self, tensor) -> DistTensor:
        return self._wrap(self._data(tensor).copy())

    # ------------------------------------------------------------------ #
    # Contraction and algebra
    # ------------------------------------------------------------------ #
    def einsum(self, subscripts: Union[str, EinsumSpec], *operands) -> DistTensor:
        if isinstance(subscripts, EinsumSpec):
            # A labelled network: executed and charged step by step, every
            # step an einsum of its own with letters local to it.
            plan = find_path(subscripts, [self.shape(op) for op in operands])
            return plan.execute(operands, self.einsum)
        datas = [self._data(op) for op in operands]
        plan = plan_einsum(subscripts, [d.shape for d in datas])
        if _TRACER.active:
            with _TRACER.span("einsum", subscripts=subscripts, backend="dist",
                              executor=self.executor):
                result = self.comm.contract(plan, datas)
        else:
            result = self.comm.contract(plan, datas)
        self._charge_einsum(plan, datas, result)
        if np.ndim(result) == 0:
            # Scalar results are produced by a final reduction across processes.
            result = self.comm.allreduce(np.asarray(result))
            return self._wrap(np.asarray(result))
        return self._wrap(result)

    def einsum_batched(self, subscripts: str, *operands) -> DistTensor:
        """Lockstep batched contraction charged as *one* distributed call.

        A loop of per-item ``einsum`` calls would pay the SUMMA startup
        latency (``2 sqrt(p)`` messages) and, for scalar outputs, one
        allreduce *per item*; the batched call ships the stacked operands
        through the grid once, so those per-call overheads are charged once
        while the flop volume still covers the whole batch.
        """
        datas = [self._data(op) for op in operands]
        shapes = [d.shape for d in datas]
        _, output, batch_dims, batch = parse_batched_subscripts(subscripts, shapes)
        if batch == 1:
            squeezed = [d.reshape(d.shape[1:]) for d in datas]
            return self._wrap(self.einsum(subscripts, *squeezed).array[np.newaxis, ...])
        batched_subscripts, _ = rewrite_batched_subscripts(subscripts, batch_dims)
        used = [
            d.reshape(d.shape[1:]) if dim == 1 else d
            for d, dim in zip(datas, batch_dims)
        ]
        plan = plan_einsum(batched_subscripts, [d.shape for d in used])
        if _TRACER.active:
            with _TRACER.span(
                "einsum_batched", subscripts=subscripts, batch=batch,
                backend="dist", executor=self.executor,
            ):
                result = self.comm.contract(plan, used)
        else:
            result = self.comm.contract(plan, used)
        self._charge_einsum(plan, used, result)
        if output == "":
            # One reduction finalizes every item's scalar at once.
            result = self.comm.allreduce(np.asarray(result))
        return self._wrap(result)

    def _charge_einsum(self, plan: EinsumPlan, datas, result) -> None:
        itemsize = 16.0
        p = self.nprocs
        operand_bytes = sum(d.nbytes for d in datas) + getattr(result, "nbytes", 16)
        # SUMMA-like communication: every operand travels across a sqrt(p)
        # fraction of the grid during the contraction.
        comm_bytes = operand_bytes / max(1.0, sqrt(p)) if p > 1 else 0.0
        messages = 2.0 * sqrt(p) if p > 1 else 0.0
        contraction = plan.contraction
        self.cost_model.contraction(flops=contraction.total_flops, comm_bytes=comm_bytes,
                                    messages=messages, category="einsum")
        self.cost_model.observe_tensor(float(contraction.max_intermediate_size) * itemsize)

    def norm(self, tensor) -> float:
        data = self._data(tensor)
        self.cost_model.contraction(flops=2.0 * data.size, category="norm")
        self.cost_model.allreduce(16.0)
        return float(np.linalg.norm(data.ravel()))

    def item(self, tensor) -> complex:
        data = self._data(tensor)
        if data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {data.shape}")
        self.cost_model.broadcast(16.0)
        return complex(data.reshape(()))

    # ------------------------------------------------------------------ #
    # Distributed factorizations (ScaLAPACK-style costs)
    # ------------------------------------------------------------------ #
    def svd(self, matrix, rank: Optional[int] = None) -> Tuple[DistTensor, DistTensor, DistTensor]:
        data = self._data(matrix)
        u, s, vh = dense_svd(data, rank=rank)
        self.cost_model.distributed_factorization(
            data.shape[0], data.shape[1], svd_flops(*data.shape), category="svd"
        )
        return self._wrap(u), self._wrap(s), self._wrap(vh)

    def qr(self, matrix) -> Tuple[DistTensor, DistTensor]:
        data = self._data(matrix)
        q, r = dense_qr(data)
        self.cost_model.distributed_factorization(
            data.shape[0], data.shape[1], qr_flops(*data.shape), category="qr"
        )
        return self._wrap(q), self._wrap(r)

    # ------------------------------------------------------------------ #
    # Local <-> distributed movement
    # ------------------------------------------------------------------ #
    def to_local(self, tensor) -> np.ndarray:
        data = self._data(tensor)
        return np.asarray(self.comm.gather(data))

    def from_local(self, array: np.ndarray) -> DistTensor:
        return self._wrap(np.asarray(self.comm.broadcast(np.asarray(array))))

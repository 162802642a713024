"""Communicators: simulated collectives and a real multi-process pool.

:class:`SimulatedCommunicator` is a thin façade over
:class:`~repro.backends.distributed.cost_model.CostModel` that mimics the
collective operations an MPI-based tensor framework issues.  No data moves
(there is only one process); the value of the class is that the code paths
of the distributed backend express their communication explicitly, and every
collective is charged to the cost model, so algorithm variants can be
compared by their simulated communication profile exactly as the paper
compares them on Stampede2.

:class:`ProcessPoolCommunicator` implements the same surface over a
persistent pool of worker processes, one per rank.  Collectives scatter
contiguous blocks of the payload to the ranks and reassemble the returned
blocks; contractions ship each rank its operand slices (per the plan's shard
label) and concatenate the rank-local results.  The cost model is still
charged identically — it is the *predictor* whose accuracy the distributed
benchmarks measure against real pool wall time.

Fault tolerance: a worker that dies mid-request is respawned and the
in-flight request is resent (workers are stateless, so every request is a
pure function of its message).  When the restart budget is exhausted the
communicator raises :class:`PoolError`
(a :class:`~repro.backends.interface.BackendExecutionError`), letting the
simulation driver stop cleanly on its last scheduled checkpoint instead of
hanging.  :class:`WorkerFault` injects deterministic worker crashes for the
fault-injection test suite.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.distributed.cost_model import CostModel
from repro.backends.distributed.engine import EinsumPlan, execute_plan, shard_bounds
from repro.backends.interface import BackendExecutionError
from repro.tensornetwork.contraction_path import concat_blocks, slice_operands
from repro.telemetry.trace import TRACER as _TRACER


class PoolError(BackendExecutionError):
    """The worker pool can no longer execute requests."""


class _WorkerDied(Exception):
    """Internal: the worker serving a request exited before replying."""


@dataclass(frozen=True)
class WorkerFault:
    """Deterministic crash injection for one pool worker.

    The worker for ``rank`` counts its handled requests of kind ``op``
    (``"contract"`` or ``"echo"``) and hard-exits on the
    ``after_calls``-th one, before computing a reply.  ``mode="once"`` clears
    the fault when the worker is respawned (the restart is transparent);
    ``mode="always"`` re-arms the respawned worker to die on its first
    matching call, so the restart budget is exhausted deterministically.
    """

    rank: int = 0
    op: str = "contract"
    after_calls: int = 1
    mode: str = "once"

    @staticmethod
    def from_config(config: "WorkerFault | Dict[str, Any] | None") -> Optional["WorkerFault"]:
        if config is None or isinstance(config, WorkerFault):
            return config
        unknown = set(config) - {"rank", "op", "after_calls", "mode"}
        if unknown:
            raise ValueError(f"unknown fault keys: {sorted(unknown)}")
        fault = WorkerFault(
            rank=int(config.get("rank", 0)),
            op=str(config.get("op", "contract")),
            after_calls=int(config.get("after_calls", 1)),
            mode=str(config.get("mode", "once")),
        )
        if fault.mode not in ("once", "always"):
            raise ValueError(f"fault mode must be 'once' or 'always', got {fault.mode!r}")
        if fault.op not in ("contract", "echo"):
            raise ValueError(f"fault op must be a worker request kind, got {fault.op!r}")
        if fault.after_calls < 1:
            raise ValueError("fault after_calls must be >= 1")
        return fault


def _worker_main(rank: int, conn, fault: Optional[WorkerFault]) -> None:
    """Request loop of one pool worker (runs in a child process).

    Workers are stateless: each request is a pure function of its message,
    which is what makes the driver's resend-after-respawn recovery exact.
    """
    # The driver owns interrupt handling (it checkpoints on SIGINT and still
    # needs the pool to serve the checkpoint's gathers); workers ignore it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    calls = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        op = message[0]
        if op == "shutdown":
            conn.close()
            return
        if fault is not None and op == fault.op:
            calls += 1
            if calls >= fault.after_calls:
                os._exit(17)  # simulate a hard crash: no reply, no cleanup
        try:
            if op == "contract":
                result: Any = execute_plan(message[1], message[2], message[3])
            elif op == "echo":
                result = message[1]
            else:
                raise ValueError(f"unknown pool request {op!r}")
            conn.send(("ok", result))
        except Exception as exc:  # surface worker-side errors, don't die
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                return


class SimulatedCommunicator:
    """Collective operations charged against a :class:`CostModel`."""

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model

    @property
    def nprocs(self) -> int:
        return self.cost_model.nprocs

    # The data arguments are real ndarrays held "replicated"; each collective
    # returns its logical result and charges the model for the traffic an MPI
    # implementation would generate.

    def allreduce(self, array: np.ndarray) -> np.ndarray:
        """Sum-allreduce: in the simulation the local value already is the sum."""
        self.cost_model.allreduce(array.nbytes)
        return array

    def gather(self, array: np.ndarray) -> np.ndarray:
        """Gather a distributed tensor's shards to one process."""
        self.cost_model.gather(array.nbytes)
        return array

    def broadcast(self, array: np.ndarray) -> np.ndarray:
        """Broadcast a replicated (small) tensor to all processes."""
        self.cost_model.broadcast(array.nbytes)
        return array

    def contract(self, plan: EinsumPlan, operands: Sequence[np.ndarray]) -> np.ndarray:
        """Execute a contraction plan (in-process for the simulated executor)."""
        return execute_plan(plan, operands)

    def close(self) -> None:
        """Release communicator resources (no-op for the simulated executor)."""


class ProcessPoolCommunicator(SimulatedCommunicator):
    """The :class:`SimulatedCommunicator` surface over real worker processes.

    Every collective and contraction charges the cost model exactly as the
    simulated communicator does (the predictor must not depend on the
    executor), then moves real bytes through the pool.  Results are bitwise
    identical to the simulated executor: collectives partition and reassemble
    the payload exactly, and contractions run the same deterministic pairwise
    plan on operand slices (see :mod:`repro.backends.distributed.engine`).
    """

    def __init__(
        self,
        cost_model: CostModel,
        fault: "WorkerFault | Dict[str, Any] | None" = None,
        max_restarts: int = 2,
        timeout: float = 60.0,
    ) -> None:
        super().__init__(cost_model)
        self.fault = WorkerFault.from_config(fault)
        self.max_restarts = max_restarts
        self.timeout = timeout
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = multiprocessing.get_context()
        self._procs: List[Any] = [None] * self.nprocs
        self._conns: List[Any] = [None] * self.nprocs
        self._restarts = 0
        self._round_robin = 0
        self._closed = False
        for rank in range(self.nprocs):
            self._spawn(rank, first=True)

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, rank: int, first: bool) -> None:
        fault = None
        if self.fault is not None and self.fault.rank == rank:
            if first:
                fault = self.fault
            elif self.fault.mode == "always":
                # Re-arm immediately: the resent request dies again, so the
                # restart budget is exhausted deterministically.
                fault = WorkerFault(rank=rank, op=self.fault.op,
                                    after_calls=1, mode="always")
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(rank, child_conn, fault),
            name=f"repro-pool-{rank}", daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[rank] = proc
        self._conns[rank] = parent_conn

    def _restart(self, rank: int) -> None:
        try:
            self._conns[rank].close()
        except OSError:  # pragma: no cover
            pass
        proc = self._procs[rank]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        self._restarts += 1
        self.cost_model.stats.registry.counter(
            "dist.pool.restarts", rank=str(rank)).add(1)
        if self._restarts > self.max_restarts:
            raise PoolError(
                f"pool worker for rank {rank} died and the restart budget "
                f"({self.max_restarts}) is exhausted"
            )
        self._spawn(rank, first=False)

    # ------------------------------------------------------------------ #
    # Request plumbing
    # ------------------------------------------------------------------ #
    def _count(self, op: str, rank: int) -> None:
        self.cost_model.stats.registry.counter(
            "dist.pool.requests", op=op, rank=str(rank)).add(1)

    def _send(self, rank: int, message: Tuple) -> None:
        try:
            self._conns[rank].send(message)
        except (BrokenPipeError, OSError):
            pass  # the death is detected (and recovered) on the receive side

    def _recv(self, rank: int) -> Tuple[str, Any]:
        conn, proc = self._conns[rank], self._procs[rank]
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                if conn.poll(0.02):
                    return conn.recv()
            except (EOFError, OSError):
                raise _WorkerDied(rank)
            if not proc.is_alive():
                # Drain a reply that may have raced the worker's exit.
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                raise _WorkerDied(rank)
            if time.monotonic() > deadline:
                # A hung worker is treated like a dead one so the run can
                # never hang: kill it and let the restart budget decide.
                proc.terminate()
                raise _WorkerDied(rank)

    def _finish(self, rank: int, message: Tuple) -> Any:
        """Receive the reply for ``message``, resending across restarts."""
        while True:
            try:
                status, payload = self._recv(rank)
            except _WorkerDied:
                self._restart(rank)  # raises PoolError when exhausted
                self._send(rank, message)
                continue
            if status == "error":
                raise PoolError(f"rank {rank} request failed: {payload}")
            return payload

    def _request(self, rank: int, message: Tuple) -> Any:
        self._check_open()
        self._count(message[0], rank)
        self._send(rank, message)
        return self._finish(rank, message)

    def _check_open(self) -> None:
        if self._closed:
            raise PoolError("the worker pool has been closed")

    # ------------------------------------------------------------------ #
    # Collectives: charge like the simulation, then move real bytes
    # ------------------------------------------------------------------ #
    def _exchange(self, op: str, array: np.ndarray) -> np.ndarray:
        """Scatter contiguous 1-d blocks to every rank and reassemble.

        The round trip moves every byte of the payload through the pool;
        the partition is exact, so the reassembled array is bitwise equal
        to the input — which is what keeps pool collectives numerically
        transparent (they implement data *movement*, not reduction: as in
        the simulated communicator, the driver's value already is the
        logical result).
        """
        data = np.asarray(array)
        flat = np.ascontiguousarray(data).reshape(-1)
        bounds = shard_bounds(flat.size, self.nprocs)
        messages = {
            rank: ("echo", flat[lo:hi]) for rank, (lo, hi) in enumerate(bounds)
        }
        self._check_open()
        for rank, message in messages.items():
            self._count("echo", rank)
            self._send(rank, message)
        if _TRACER.active:
            with _TRACER.span("dist.comm", op=op, nbytes=int(data.nbytes),
                              nprocs=self.nprocs):
                blocks = [self._finish(rank, messages[rank])
                          for rank in range(self.nprocs)]
        else:
            blocks = [self._finish(rank, messages[rank])
                      for rank in range(self.nprocs)]
        if len(blocks) > 1:
            flat_out = np.concatenate([np.asarray(b) for b in blocks])
        else:
            flat_out = np.asarray(blocks[0])
        return flat_out.reshape(data.shape)

    def allreduce(self, array: np.ndarray) -> np.ndarray:
        self.cost_model.allreduce(array.nbytes)
        return self._exchange("allreduce", array)

    def gather(self, array: np.ndarray) -> np.ndarray:
        self.cost_model.gather(array.nbytes)
        return self._exchange("gather", array)

    def broadcast(self, array: np.ndarray) -> np.ndarray:
        self.cost_model.broadcast(array.nbytes)
        return self._exchange("broadcast", array)

    # ------------------------------------------------------------------ #
    # Contractions: rank-local pairwise chains + reduction on the driver
    # ------------------------------------------------------------------ #
    def contract(self, plan: EinsumPlan, operands: Sequence[np.ndarray]) -> np.ndarray:
        self._check_open()
        arrays = [np.asarray(op) for op in operands]
        if plan.shard_label is None or plan.shard_parts == 1:
            # No output label to partition on (e.g. scalar results), or one
            # canonical block: ship the whole contraction to one rank,
            # spreading such jobs round-robin.  A rank runs the one block
            # exactly as the serial executor does, so placement changes no
            # bits.
            rank = self._round_robin % self.nprocs
            self._round_robin += 1
            message = ("contract", plan, arrays, None)
            if _TRACER.active:
                with _TRACER.span("dist.rank", rank=rank, phase="compute",
                                  subscripts=plan.subscripts):
                    return np.asarray(self._request(rank, message))
            return np.asarray(self._request(rank, message))
        # Each rank owns a contiguous range of the plan's canonical blocks
        # and receives only the operand slices covering that range (plus the
        # block bounds relative to its slice), so rank-local execution runs
        # the exact same kernel calls the serial executor would.
        canonical = plan.canonical_bounds()
        inputs, output = plan.contraction.inputs, plan.contraction.output
        assignment = shard_bounds(plan.shard_parts, self.nprocs)
        messages = {}
        for rank, (first, last) in enumerate(assignment):
            if last <= first:
                continue  # more ranks than canonical blocks: nothing to do
            offset, end = canonical[first][0], canonical[last - 1][1]
            local = slice_operands(inputs, plan.shard_label, arrays, offset, end)
            relative = [(lo - offset, hi - offset) for lo, hi in canonical[first:last]]
            messages[rank] = ("contract", plan, local, relative)
        for rank, message in messages.items():
            self._count("contract", rank)
            self._send(rank, message)
        blocks = []
        for rank, message in messages.items():
            if _TRACER.active:
                with _TRACER.span("dist.rank", rank=rank, phase="compute",
                                  subscripts=plan.subscripts):
                    blocks.append(self._finish(rank, message))
            else:
                blocks.append(self._finish(rank, message))
        return concat_blocks(output, plan.shard_label, blocks, canonical[-1][1],
                             tuple(range(len(output))))

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the pool down; safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

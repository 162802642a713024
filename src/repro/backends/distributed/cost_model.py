"""Cost model for the simulated distributed backend.

The model combines a per-core floating-point rate with an alpha-beta
(latency / inverse-bandwidth) communication model.  Default parameters are
loosely calibrated to a Stampede2-class machine (KNL nodes, 64 cores per
node, Omni-Path interconnect) but the absolute values only matter up to an
overall scale — the benchmarks reproduce *shapes* (which algorithm wins and
how curves scale), not absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.utils.checks import positive_int


@dataclass
class MachineParameters:
    """Hardware parameters of the simulated machine.

    Attributes
    ----------
    flop_rate:
        Sustained floating-point rate per core, in flop/s (dense GEMM-like).
    alpha:
        Per-message latency in seconds (network + software overhead).
    beta:
        Inverse bandwidth in seconds per byte (per link).
    factorization_efficiency:
        Fraction of peak achieved by distributed (ScaLAPACK-style)
        factorizations relative to GEMM-like contractions.
    local_flop_rate:
        Rate used for process-local (sequential) linear algebra such as the
        eigendecomposition of a gathered Gram matrix.
    """

    flop_rate: float = 5.0e9
    alpha: float = 2.0e-6
    beta: float = 5.0e-10
    factorization_efficiency: float = 0.25
    local_flop_rate: float = 5.0e9


#: Scalar accumulators of :class:`ExecutionStats`, exposed as properties.
_STAT_SCALARS = ("simulated_seconds", "flops", "comm_bytes", "messages")


class ExecutionStats:
    """Accumulated simulated execution statistics.

    Backed by a private per-instance
    :class:`~repro.telemetry.metrics.MetricsRegistry`: the scalar totals are
    counters (``dist.flops`` etc.), the per-category breakdowns are labeled
    counters, and the peak tensor size is a max-gauge
    (``dist.tensor_bytes_peak``).  The public attribute API — including the
    ``counts`` / ``seconds_by_category`` dict views — is unchanged.

    :meth:`record` runs for every charged operation, so it adds to metric
    handles bound once (the totals at construction, a category's pair on its
    first record) instead of looking them up by name.  Handles share their
    registry's lock, so copies rebind them on the copied registry.
    """

    def __init__(self) -> None:
        from repro.telemetry.metrics import MetricsRegistry

        self.registry = MetricsRegistry()
        self._bind([])

    def _bind(self, categories) -> None:
        self._totals = tuple(self.registry.counter(f"dist.{name}") for name in _STAT_SCALARS)
        self._peak = self.registry.gauge("dist.tensor_bytes_peak")
        self._by_category: Dict[str, tuple] = {}
        for category in categories:
            self._bind_category(category)

    def _bind_category(self, category: str) -> tuple:
        self._by_category[category] = pair = (
            self.registry.counter("dist.ops", category=category),
            self.registry.counter("dist.seconds", category=category),
        )
        return pair

    def __getstate__(self) -> dict:
        return {"registry": self.registry, "categories": list(self._by_category)}

    def __setstate__(self, state: dict) -> None:
        self.registry = state["registry"]
        self._bind(state["categories"])

    def record(self, category: str, seconds: float, flops: float = 0.0,
               comm_bytes: float = 0.0, messages: float = 0.0) -> None:
        simulated, flop, comm, message = self._totals
        simulated.add(seconds)
        flop.add(flops)
        comm.add(comm_bytes)
        message.add(messages)
        ops, by_category = self._by_category.get(category) or self._bind_category(category)
        ops.add(1)
        by_category.add(seconds)

    def observe_tensor(self, nbytes: float) -> None:
        self._peak.update_max(nbytes)

    @property
    def counts(self) -> Dict[str, int]:
        """Per-category operation counts (a rebuilt dict view)."""
        return {c: ops.value for c, (ops, _) in self._by_category.items()}

    @property
    def seconds_by_category(self) -> Dict[str, float]:
        """Per-category simulated seconds (a rebuilt dict view)."""
        return {c: seconds.value for c, (_, seconds) in self._by_category.items()}

    def reset(self) -> None:
        self.registry.reset()
        self._by_category.clear()


def _stat_scalar_property(name: str) -> property:
    key = f"dist.{name}"

    def fget(self: ExecutionStats) -> float:
        return self.registry.value(key)

    def fset(self: ExecutionStats, value: float) -> None:
        self.registry.counter(key)._set(value)

    return property(fget, fset, doc=f"Accumulated {name!r} (registry-backed).")


for _name in _STAT_SCALARS:
    setattr(ExecutionStats, _name, _stat_scalar_property(_name))
del _name


class CostModel:
    """Translates operations on distributed tensors into simulated time.

    Parameters
    ----------
    nprocs:
        Number of simulated processes: an integer of at least 1
        (``TypeError`` for anything else, ``bool`` included).
    machine:
        Hardware parameters; defaults to a Stampede2-like configuration.
    """

    def __init__(
        self,
        nprocs: int = 64,
        machine: Optional[MachineParameters] = None,
    ) -> None:
        self.nprocs = positive_int(nprocs, "nprocs")
        self.machine = machine or MachineParameters()
        self.stats = ExecutionStats()

    # ------------------------------------------------------------------ #
    # Computation
    # ------------------------------------------------------------------ #
    def contraction(self, flops: float, comm_bytes: float = 0.0, messages: float = 0.0,
                    category: str = "contraction") -> None:
        """Charge a distributed tensor contraction.

        ``flops`` are divided over all processes; communication follows the
        caller-supplied estimate (typically a SUMMA-like volume).
        """
        compute = flops / (self.machine.flop_rate * self.nprocs)
        comm = self.machine.alpha * messages + self.machine.beta * comm_bytes
        self.stats.record(category, compute + comm, flops=flops,
                          comm_bytes=comm_bytes, messages=messages)

    def local_compute(self, flops: float, category: str = "local") -> None:
        """Charge process-local sequential computation (e.g. a gathered Gram
        matrix eigendecomposition, Algorithm 5 steps 3-8)."""
        self.stats.record(category, flops / self.machine.local_flop_rate, flops=flops)

    def distributed_factorization(self, m: int, n: int, flops: float,
                                  category: str = "factorization") -> None:
        """Charge a ScaLAPACK-style distributed factorization (SVD/QR/EVD).

        The panel-factorization structure makes these latency-bound for small
        matrices: we charge ``min(m, n) / block`` panel steps, each with a
        logarithmic collective, on top of the (inefficient) bulk flops.
        """
        block = 64
        panels = max(1, min(m, n) // block + 1)
        import math

        compute = flops / (
            self.machine.flop_rate * self.nprocs * self.machine.factorization_efficiency
        )
        comm_messages = panels * max(1.0, math.log2(self.nprocs)) * 4.0
        comm_bytes = panels * (m + n) * 16.0
        comm = self.machine.alpha * comm_messages + self.machine.beta * comm_bytes
        self.stats.record(category, compute + comm, flops=flops,
                          comm_bytes=comm_bytes, messages=comm_messages)

    # ------------------------------------------------------------------ #
    # Data movement
    # ------------------------------------------------------------------ #
    def redistribution(self, nbytes: float, category: str = "redistribution") -> None:
        """Charge an all-to-all redistribution of a tensor (e.g. ``reshape``)."""
        p = self.nprocs
        messages = max(0, p - 1)
        comm_bytes = nbytes  # every element leaves its process once (worst case)
        seconds = self.machine.alpha * messages + self.machine.beta * comm_bytes / max(1, p) * (p - 1) / max(1, p) if p > 1 else 0.0
        # Even on one process a reshape costs a pass over memory.
        seconds += nbytes / (self.machine.flop_rate * 8.0)
        self.stats.record(category, seconds, comm_bytes=comm_bytes if p > 1 else 0.0,
                          messages=messages)

    def gather(self, nbytes: float) -> None:
        """Charge gathering a tensor to one process (tree gather)."""
        import math

        p = self.nprocs
        messages = max(1.0, math.log2(p)) if p > 1 else 0.0
        seconds = self.machine.alpha * messages + self.machine.beta * nbytes
        self.stats.record("gather", seconds, comm_bytes=nbytes if p > 1 else 0.0,
                          messages=messages)

    def broadcast(self, nbytes: float) -> None:
        """Charge broadcasting a (small) tensor from one process to all."""
        import math

        p = self.nprocs
        messages = max(1.0, math.log2(p)) if p > 1 else 0.0
        seconds = self.machine.alpha * messages + self.machine.beta * nbytes * (
            math.log2(p) if p > 1 else 0.0
        )
        self.stats.record("broadcast", seconds, comm_bytes=nbytes if p > 1 else 0.0,
                          messages=messages)

    def allreduce(self, nbytes: float) -> None:
        """Charge an allreduce (ring algorithm: 2·(p-1)/p of the data volume)."""
        import math

        p = self.nprocs
        if p == 1:
            self.stats.record("allreduce", 0.0)
            return
        messages = 2.0 * max(1.0, math.log2(p))
        volume = 2.0 * nbytes * (p - 1) / p
        seconds = self.machine.alpha * messages + self.machine.beta * volume
        self.stats.record("allreduce", seconds, comm_bytes=volume, messages=messages)

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def observe_tensor(self, nbytes: float) -> None:
        self.stats.observe_tensor(nbytes)

    @property
    def simulated_seconds(self) -> float:
        return self.stats.simulated_seconds

    def reset(self) -> None:
        self.stats.reset()

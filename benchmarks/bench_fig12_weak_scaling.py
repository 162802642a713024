"""Figure 12: weak scaling of PEPS evolution and contraction.

The paper grows the bond dimension together with the core count so that the
memory per node stays constant (evolution r = 70..280 and contraction
m = 80..320 over 2^6..2^12 cores) and reports the sustained Gflop/s per core,
observing roughly flat curves (good weak scaling), with 60-70% of the
contraction time spent in local GEMM.

As with Fig. 11 the paper-scale tensors cannot be executed on this machine,
so the harness evaluates the same sweep through the cost model used by the
simulated distributed backend: per-kernel flop counts and
communication volumes at the paper's (cores, r, m) points, converted to the
figure's metric — Gflop/s per core.  The shape to reproduce is a per-core
rate that stays roughly flat (within a small factor) across the sweep.
"""

import numpy as np
import pytest

from repro.backends.distributed.cost_model import CostModel

from benchmarks.bench_fig11_strong_scaling import (
    POOL_REPEATS,
    assert_accuracy_band,
    contraction_cost,
    evolution_cost,
    executor_comparison_point,
)
from benchmarks.conftest import scaled, write_distributed_bench

#: The paper's weak-scaling sweep: core counts with the matching evolution
#: bond r and contraction bond m (r grows ~ P^(1/4) to keep memory per node
#: constant).
PAPER_SWEEP = [
    (64, 70, 80),
    (128, 83, 95),
    (256, 98, 113),
    (512, 117, 134),
    (1024, 140, 160),
    (2048, 166, 190),
    (4096, 197, 226),
]
LATTICE = 8

#: Pool-executor comparison points: the bond grows ~ P^(1/4) with the rank
#: count (the paper's constant-memory-per-node rule) at box-runnable sizes.
WEAK_POOL_SWEEP = scaled(
    [(1, 24), (2, 29), (4, 34)],
    [(1, 32), (2, 38), (4, 45), (8, 54)],
    [(1, 12), (2, 14)],
)


def test_fig12_weak_scaling(benchmark, record_rows):
    def sweep():
        rows = []
        for cores, r, m in PAPER_SWEEP:
            model = CostModel(nprocs=cores)
            evo_seconds = evolution_cost(model, LATTICE, r)
            evo_flops = model.stats.flops
            evo_rate = evo_flops / max(evo_seconds, 1e-12) / cores / 1e9

            con_seconds = contraction_cost(model, LATTICE, r, m)
            con_flops = model.stats.flops
            con_rate = con_flops / max(con_seconds, 1e-12) / cores / 1e9
            rows.append((cores, r, m, evo_rate, con_rate))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows(
        f"Fig. 12: weak scaling, {LATTICE}x{LATTICE} PEPS (cost-model Gflop/s per core)",
        ["cores", "evolution r", "contraction m", "evolution Gflop/s/core",
         "contraction Gflop/s/core"],
        rows,
    )
    evo_rates = np.array([row[3] for row in rows])
    con_rates = np.array([row[4] for row in rows])
    # Weak-scaling shape: the per-core rate does not collapse across the sweep
    # (stays within a factor of ~3 of its starting value) ...
    assert evo_rates.min() > evo_rates[0] / 3.0
    assert con_rates.min() > con_rates[0] / 3.0
    # ... and the GEMM-rich contraction sustains a higher per-core rate than
    # the communication-bound evolution, as in the paper.
    assert con_rates.mean() > evo_rates.mean()


def test_fig12_executor_comparison(benchmark, record_rows):
    """Weak-scaling companion on real processes: bond grows with the rank
    count, measured pool wall time recorded next to the cost model's
    prediction (``BENCH_distributed.json``, section ``weak_scaling``)."""

    def sweep():
        return [
            executor_comparison_point(cores, r, POOL_REPEATS)
            for cores, r in WEAK_POOL_SWEEP
        ]

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows(
        "Fig. 12 companion: pool executor, bond ~ P^(1/4), "
        "predicted vs measured",
        ["cores", "bond", "predicted (s)", "measured (s)", "ratio"],
        [(p["cores"], p["bond"], p["predicted_s"], p["measured_s"], p["ratio"])
         for p in points],
    )
    write_distributed_bench("weak_scaling", points)
    assert_accuracy_band(points)

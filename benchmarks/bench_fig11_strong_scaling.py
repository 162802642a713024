"""Figure 11: strong scaling of PEPS evolution and contraction.

The paper runs one TEBD layer (evolution, 8x8 PEPS, r = 70 and 140) and one
IBMPS contraction (8x8, r = 80 and 160) at fixed problem size while growing
the core count from 2^3 to 2^14, observing near-ideal scaling within a node,
useful speed-ups up to 16-64 nodes (4.3x for evolution on 16 nodes, 13.9x for
contraction on 64 nodes relative to one node) and eventual deterioration when
communication dominates.

Executing tensors of bond dimension 70-160 is not possible on this machine,
so this harness evaluates the *same experiment through the cost model* the
simulated distributed backend uses: the
per-kernel flop counts and communication volumes of the dominant operations
are computed from the paper-scale parameters, and the alpha-beta machine
model produces the execution time for every core count.  The shapes to
reproduce are (i) near-ideal scaling at small core counts, (ii) a speed-up
that saturates and then degrades, and (iii) the larger problem scaling
further than the smaller one.
"""

import time

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.distributed.cost_model import CostModel, MachineParameters
from repro.utils.flops import peps_bmps_cost, qr_flops, svd_flops

from benchmarks.conftest import scaled, write_distributed_bench

CORE_COUNTS = [2**k for k in range(3, 15)]
LATTICE = 8
PHYS = 2

#: Pool-executor comparison points: rank counts actually runnable on one box.
POOL_CORES = scaled([1, 2, 4], [1, 2, 4, 8], [1, 2])
POOL_BOND = scaled(32, 48, 16)
POOL_REPEATS = scaled(6, 10, 3)

#: Accuracy band for predicted/measured.  The cost model *predicts* the
#: paper's machine (alpha-beta interconnect, per-core GEMM rate of a
#: supercomputer node); the measurement is a process pool on one CI-class
#: box where per-request IPC latency dominates tiny operands.  The two are
#: deliberately not calibrated against each other, so the pin is
#: order-of-magnitude sanity only: both strictly positive and finite, and
#: their ratio within 10^+-5.  A broken predictor (zero/NaN charges) or a
#: hung executor escapes this band immediately; a faster CI machine does not.
PREDICTED_MEASURED_BAND = (1e-5, 1e5)


def executor_comparison_point(nprocs, r, repeats):
    """Predicted (cost model) vs measured (pool wall) seconds for a bond-``r``
    Gram + apply-Q contraction pair, the evolution kernel's hot pair."""
    rng = np.random.default_rng(1234 + nprocs)
    a = rng.standard_normal((r * r, r)) + 1j * rng.standard_normal((r * r, r))
    backend = get_backend("distributed", nprocs=nprocs, executor="pool")
    try:
        ta = backend.astensor(a)
        backend.einsum("ab,ac->bc", ta, backend.conj(ta))  # warm the pool
        backend.reset_stats()
        start = time.perf_counter()
        for _ in range(repeats):
            gram = backend.einsum("ab,ac->bc", ta, backend.conj(ta))
            backend.einsum("ab,bc->ac", ta, gram)
        measured = time.perf_counter() - start
        predicted = backend.simulated_seconds
    finally:
        backend.close()
    return {
        "cores": nprocs,
        "bond": r,
        "predicted_s": predicted,
        "measured_s": measured,
        "ratio": predicted / measured,
    }


def assert_accuracy_band(points):
    lo, hi = PREDICTED_MEASURED_BAND
    for point in points:
        assert np.isfinite(point["predicted_s"]) and point["predicted_s"] > 0
        assert np.isfinite(point["measured_s"]) and point["measured_s"] > 0
        assert lo < point["ratio"] < hi, point


def evolution_cost(model: CostModel, n: int, r: int) -> float:
    """Simulated seconds for one TEBD layer on an n x n PEPS of bond r.

    Per bond (2 n (n-1) of them): two QR reductions of the site tensors
    (r^3 x d r matrices), the einsumsvd of the R factors (O(d^2 r^5) work,
    Algorithm 1's leading term), and the recombination contractions.
    Communication per kernel follows the SUMMA-like volume the backend
    charges: operand bytes / sqrt(P).
    """
    model.reset()
    n_bonds = 2 * n * (n - 1)
    itemsize = 16.0
    p = model.nprocs
    for _ in range(n_bonds):
        # QR of both site tensors via the Gram method: a contraction forming
        # the (d r)^2 Gram matrix plus the Q = A P contraction.
        site_elems = PHYS * r**4
        gram_flops = 8.0 * site_elems * (PHYS * r)
        for _ in range(2):  # two sites
            comm = 2 * site_elems * itemsize / max(1.0, np.sqrt(p))
            model.contraction(gram_flops, comm_bytes=comm, messages=2 * np.sqrt(p),
                              category="gram")
            model.local_compute(10.0 * (PHYS * r) ** 3, category="local-eigh")
            model.broadcast((PHYS * r) ** 2 * itemsize)
            model.contraction(gram_flops, comm_bytes=comm, messages=2 * np.sqrt(p),
                              category="apply-q")
        # einsumsvd of the small R factors (done locally, Algorithm 5 applied).
        model.local_compute(svd_flops(PHYS * r, PHYS * r), category="local-svd")
        # Recombination Q * R~ on both sites.
        recombine_flops = 8.0 * site_elems * r
        comm = 2 * site_elems * itemsize / max(1.0, np.sqrt(p))
        model.contraction(2 * recombine_flops, comm_bytes=comm,
                          messages=2 * np.sqrt(p), category="recombine")
    return model.simulated_seconds


def contraction_cost(model: CostModel, n: int, r: int, m: int) -> float:
    """Simulated seconds for one IBMPS contraction of an n x n PEPS of bond r."""
    model.reset()
    itemsize = 16.0
    p = model.nprocs
    costs = peps_bmps_cost(n, r, m)
    total_flops = costs["ibmps"]
    # Spread the work over the n^2 einsumsvd calls of the sweep; each moves
    # the working tensors (~ m^2 r^2 elements) across the grid once.
    per_call = total_flops / (n * n)
    working_elems = m * m * r * r
    for _ in range(n * n):
        comm = 3 * working_elems * itemsize / max(1.0, np.sqrt(p))
        model.contraction(per_call, comm_bytes=comm, messages=4 * np.sqrt(p),
                          category="ibmps")
        model.local_compute(svd_flops(m, m), category="local-svd")
    return model.simulated_seconds


def test_fig11_strong_scaling(benchmark, record_rows):
    evolution_bonds = [70, 140]
    contraction_bonds = [80, 160]

    def sweep():
        rows = []
        for cores in CORE_COUNTS:
            model = CostModel(nprocs=cores)
            entry = [cores]
            for r in evolution_bonds:
                entry.append(evolution_cost(model, LATTICE, r))
            for r in contraction_bonds:
                entry.append(contraction_cost(model, LATTICE, r, r))
            rows.append(tuple(entry))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = ["cores"]
    header += [f"evolution r={r} (s)" for r in evolution_bonds]
    header += [f"contraction r={r} (s)" for r in contraction_bonds]
    record_rows(
        f"Fig. 11: strong scaling, {LATTICE}x{LATTICE} PEPS (cost-model seconds)",
        header, rows,
    )

    times = np.array([row[1:] for row in rows], dtype=float)
    cores = np.array(CORE_COUNTS, dtype=float)

    # (i) Near-ideal scaling at small core counts: growing 8 -> 64 cores
    # gives at least a 4x speed-up for every kernel.
    assert np.all(times[0] / times[3] > 4.0)
    # (ii) The scaling saturates: parallel efficiency at 2^14 cores is far
    # below ideal and much lower than the efficiency at 64 cores.
    efficiency_small = (times[0] / times[3]) / (cores[3] / cores[0])
    efficiency_large = (times[0] / times[-1]) / (cores[-1] / cores[0])
    assert np.all(efficiency_large < efficiency_small)
    # The smaller problems (r=70 evolution, r=80 contraction) are clearly
    # past their scaling limit at 2^14 cores.
    assert efficiency_large[0] < 0.3
    assert efficiency_large[2] < 0.3
    # (iii) The larger evolution problem sustains a larger maximum speed-up
    # than the smaller one.
    max_speedup_small = (times[0, 0] / times[:, 0]).max()
    max_speedup_large = (times[0, 1] / times[:, 1]).max()
    assert max_speedup_large >= max_speedup_small


def test_fig11_executor_comparison(benchmark, record_rows):
    """Strong-scaling companion on real processes: fixed problem size, the
    pool executor's measured wall time recorded next to the cost model's
    prediction for the identical operations (``BENCH_distributed.json``,
    section ``strong_scaling``)."""

    def sweep():
        return [
            executor_comparison_point(cores, POOL_BOND, POOL_REPEATS)
            for cores in POOL_CORES
        ]

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows(
        f"Fig. 11 companion: pool executor at bond {POOL_BOND}, "
        "predicted vs measured",
        ["cores", "predicted (s)", "measured (s)", "ratio"],
        [(p["cores"], p["predicted_s"], p["measured_s"], p["ratio"])
         for p in points],
    )
    write_distributed_bench("strong_scaling", points)
    assert_accuracy_band(points)

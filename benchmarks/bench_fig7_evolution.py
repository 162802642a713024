"""Figure 7: PEPS evolution (one layer of TEBD operators) vs bond dimension.

* Fig. 7a compares the NumPy backend against the distributed (CTF-like)
  backend on one node for an 8x8 PEPS with bond dimensions 2..64.
* Fig. 7b compares three distributed update algorithms on a 15x15 PEPS on
  16 nodes: ``ctf-qr-svd`` (plain Algorithm 1), ``ctf-local-gram-qr``
  (Gram-matrix orthogonalization, Algorithm 5) and ``ctf-local-gram-qr-svd``
  (additionally doing the small einsumsvd locally), with speed-ups up to 3.7x
  for the local-Gram variants.

Scaled-down defaults: a 4x4 lattice with bond dimensions 2..6 (NumPy times
are measured wall-clock; distributed times are the cost model's simulated
seconds, since no real cluster is available).  The shapes to
reproduce are (a) NumPy wins at small bond dimension while the distributed
backend catches up as the tensors grow, and (b) the local-Gram variants are
consistently faster than plain QR-SVD in distributed memory.
"""

import time

import numpy as np
import pytest

from repro.algorithms.trotter import apply_tebd_layer, tebd_gate_layer
from repro.backends import get_backend
from repro.peps import LocalGramQRSVDUpdate, LocalGramQRUpdate, QRUpdate
from repro.peps.peps import random_peps

from benchmarks.conftest import scaled


def _evolved_state(nrow, ncol, bond, backend, seed=0):
    return random_peps(nrow, ncol, bond_dim=bond, seed=seed, backend=backend)


def _run_layer(state, layer, option):
    start = time.perf_counter()
    apply_tebd_layer(state, layer, option)
    return time.perf_counter() - start


def test_fig7a_backend_comparison(benchmark, record_rows):
    nrow = ncol = scaled(4, 8)
    bonds = scaled([2, 3, 4, 6], [2, 4, 8, 16, 32, 64])
    layer = tebd_gate_layer(nrow, ncol, rng=0)

    def sweep():
        rows = []
        for r in bonds:
            numpy_state = _evolved_state(nrow, ncol, r, "numpy")
            numpy_time = _run_layer(numpy_state, layer, QRUpdate(rank=r))

            dist = get_backend("distributed", nprocs=64)
            dist_state = _evolved_state(nrow, ncol, r, dist)
            dist.reset_stats()
            apply_tebd_layer(dist_state, layer, QRUpdate(rank=r))
            dist_time = dist.simulated_seconds
            rows.append((r, numpy_time, dist_time, dist_time / max(numpy_time, 1e-12)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows(
        f"Fig. 7a: one TEBD layer, {nrow}x{ncol} PEPS, numpy (measured) vs ctf (simulated)",
        ["bond r", "numpy seconds", "ctf simulated seconds", "ctf/numpy"],
        rows,
    )
    # Shape check: the ctf/numpy ratio shrinks as the bond dimension grows
    # (distributed overheads amortize on larger tensors).
    ratios = [row[3] for row in rows]
    assert ratios[-1] < ratios[0]


def test_fig7b_update_algorithm_comparison(benchmark, record_rows):
    nrow = ncol = scaled(4, 15)
    nprocs = scaled(16 * 64, 16 * 64)
    bonds = scaled([2, 3, 4, 6], [2, 4, 8, 16, 32, 64])
    layer = tebd_gate_layer(nrow, ncol, rng=1)
    variants = [
        ("ctf-qr-svd", QRUpdate),
        ("ctf-local-gram-qr", LocalGramQRUpdate),
        ("ctf-local-gram-qr-svd", LocalGramQRSVDUpdate),
    ]

    def sweep():
        rows = []
        for r in bonds:
            times = {}
            for name, option_cls in variants:
                dist = get_backend("distributed", nprocs=nprocs)
                state = _evolved_state(nrow, ncol, r, dist, seed=2)
                dist.reset_stats()
                apply_tebd_layer(state, layer, option_cls(rank=r))
                times[name] = dist.simulated_seconds
            speedup = times["ctf-qr-svd"] / times["ctf-local-gram-qr-svd"]
            rows.append((r, times["ctf-qr-svd"], times["ctf-local-gram-qr"],
                         times["ctf-local-gram-qr-svd"], speedup))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows(
        f"Fig. 7b: one TEBD layer, {nrow}x{ncol} PEPS on {nprocs} simulated cores",
        ["bond r", "qr-svd (s)", "local-gram-qr (s)", "local-gram-qr-svd (s)",
         "speed-up qr-svd / local-gram-qr-svd"],
        rows,
    )
    # Shape check: the local-Gram variants beat plain QR-SVD at every bond
    # dimension (the paper reports factors up to 3.7x).
    for r, qr_svd, gram_qr, gram_qr_svd, speedup in rows:
        assert gram_qr <= qr_svd
        assert gram_qr_svd <= qr_svd
    assert rows[-1][4] > 1.0

"""Tests for the simulated distributed backend, its cost model and distributions."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.distributed import (
    CostModel,
    DistributedBackend,
    DistTensor,
    Distribution,
    ProcessorGrid,
    SimulatedCommunicator,
)
from repro.backends.distributed.comm import ProcessPoolCommunicator
from repro.backends.numpy_backend import NumPyBackend
from repro.utils.flops import FlopCounter, qr_flops, svd_flops
from tests.conftest import random_complex


class TestProcessorGrid:
    def test_grid_total_matches_nprocs(self):
        grid = ProcessorGrid.for_tensor((64, 64, 64), 16)
        assert grid.nprocs == 16
        assert len(grid.dims) == 3

    def test_single_process_grid(self):
        grid = ProcessorGrid.for_tensor((8, 8), 1)
        assert grid.dims == (1, 1)

    def test_grid_prefers_large_modes(self):
        grid = ProcessorGrid.for_tensor((2, 1024), 8)
        assert grid.dims[1] >= grid.dims[0]


class TestDistribution:
    def test_compatibility_identity(self):
        a = Distribution.natural((8, 8), 4)
        assert a.is_compatible_with(a)
        assert a.redistribution_bytes(a) == 0

    def test_incompatible_shapes_charge_full_volume(self):
        a = Distribution.natural((8, 8), 4)
        b = Distribution.natural((64,), 4)
        assert a.redistribution_bytes(b) == 64 * 16

    def test_single_process_always_compatible(self):
        a = Distribution.natural((8, 8), 1)
        b = Distribution.natural((64,), 1)
        assert a.redistribution_bytes(b) == 0


class TestCostModel:
    def test_contraction_time_scales_inversely_with_procs(self):
        small = CostModel(nprocs=1)
        large = CostModel(nprocs=64)
        small.contraction(1e12)
        large.contraction(1e12)
        assert large.simulated_seconds < small.simulated_seconds

    def test_latency_dominates_small_operations(self):
        model = CostModel(nprocs=64)
        model.contraction(flops=100.0, comm_bytes=0.0, messages=100.0)
        assert model.simulated_seconds >= 64 * 0  # sanity
        assert model.stats.messages == 100.0

    def test_redistribution_charges_bytes_only_for_multiproc(self):
        multi = CostModel(nprocs=16)
        single = CostModel(nprocs=1)
        multi.redistribution(1e6)
        single.redistribution(1e6)
        assert multi.stats.comm_bytes > 0
        assert single.stats.comm_bytes == 0

    def test_stats_reset(self):
        model = CostModel(nprocs=4)
        model.contraction(1e9)
        model.gather(1e3)
        assert model.simulated_seconds > 0
        model.reset()
        assert model.simulated_seconds == 0.0
        assert model.stats.counts == {}

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            CostModel(nprocs=0)

    @pytest.mark.parametrize("nprocs", [2.5, True, "2"])
    def test_non_integer_nprocs_rejected(self, nprocs):
        with pytest.raises(TypeError, match="nprocs must be an integer"):
            CostModel(nprocs=nprocs)

    def test_numpy_integer_nprocs_accepted(self):
        model = CostModel(nprocs=np.int64(3))
        assert model.nprocs == 3 and type(model.nprocs) is int


class TestCommunicator:
    def test_collectives_charge_and_preserve_data(self):
        model = CostModel(nprocs=8)
        comm = SimulatedCommunicator(model)
        data = np.ones(1000, dtype=np.complex128)
        assert np.array_equal(comm.allreduce(data), data)
        assert np.array_equal(comm.gather(data), data)
        assert np.array_equal(comm.broadcast(data), data)
        assert model.simulated_seconds > 0
        assert comm.nprocs == 8


class TestDistTensor:
    def test_metadata(self, dist_backend, rng):
        t = dist_backend.astensor(random_complex(rng, (4, 6)))
        assert isinstance(t, DistTensor)
        assert t.shape == (4, 6)
        assert t.ndim == 2
        assert t.size == 24

    def test_arithmetic_matches_numpy(self, dist_backend, rng):
        a_data = random_complex(rng, (3, 3))
        b_data = random_complex(rng, (3, 3))
        a = dist_backend.astensor(a_data)
        b = dist_backend.astensor(b_data)
        assert np.allclose((a * 2.0).array, a_data * 2.0)
        assert np.allclose((a * b).array, a_data * b_data)
        assert np.allclose(a.conj().array, a_data.conj())

    def test_array_conversion_takes_numpy2_copy_keyword(self, rng):
        # NumPy 2 passes copy= to __array__; an implementation without the
        # keyword draws a DeprecationWarning (an error under this suite).
        backend = DistributedBackend(nprocs=4)
        t = backend.astensor(random_complex(rng, (3, 4)))
        backend.reset_stats()
        copied = np.array(t, copy=True)
        assert np.array_equal(copied, t.array)
        assert not np.shares_memory(copied, t.array)
        assert backend.stats.counts.get("gather", 0) == 1
        assert np.shares_memory(np.asarray(t), t.array)
        assert np.shares_memory(np.asarray(t, copy=False), t.array)

    def test_shape_mismatch_raises(self, dist_backend, rng):
        dist = Distribution.natural((2, 2), 4)
        with pytest.raises(ValueError):
            DistTensor(random_complex(rng, (3, 3)), dist, dist_backend)


class TestDistributedBackend:
    def test_results_match_numpy_backend(self, dist_backend, numpy_backend, rng):
        a = random_complex(rng, (4, 5, 6))
        b = random_complex(rng, (6, 3))
        out_d = dist_backend.asarray(
            dist_backend.einsum("abc,cd->abd", dist_backend.astensor(a), dist_backend.astensor(b))
        )
        out_n = numpy_backend.einsum("abc,cd->abd", a, b)
        assert np.allclose(out_d, out_n)

    def test_svd_qr_eigh_match(self, dist_backend, rng):
        a = random_complex(rng, (8, 5))
        u, s, vh = dist_backend.svd(dist_backend.astensor(a))
        assert np.allclose(
            dist_backend.asarray(u) @ np.diag(dist_backend.asarray(s)) @ dist_backend.asarray(vh),
            a,
        )
        q, r = dist_backend.qr(dist_backend.astensor(a))
        assert np.allclose(dist_backend.asarray(q) @ dist_backend.asarray(r), a)
        # A wide rank-limited SVD (the QR-reduced route) matches the NumPy
        # backend and is still charged as one economy SVD of the whole matrix.
        wide = random_complex(rng, (6, 40))
        dist_backend.reset_stats()
        u, s, vh = dist_backend.svd(dist_backend.astensor(wide), rank=3)
        assert dist_backend.stats.flops == svd_flops(6, 40)
        u_np, s_np, vh_np = NumPyBackend().svd(wide, rank=3)
        assert np.array_equal(dist_backend.asarray(s), s_np)
        assert np.array_equal(dist_backend.asarray(u)[:, :3], u_np[:, :3])
        assert np.array_equal(dist_backend.asarray(vh)[:3], vh_np[:3])
        assert np.allclose(dist_backend.asarray(s), np.linalg.svd(wide, compute_uv=False))
        # Both backends' QR is the shared LAPACK kernel: NumPy's bits on a
        # tall sketch-sized block, charged as one reduced QR of the block.
        tall = random_complex(rng, (4096, 18))
        ref_q, ref_r = np.linalg.qr(tall, mode="reduced")
        dist_backend.reset_stats()
        q, r = dist_backend.qr(dist_backend.astensor(tall))
        assert dist_backend.stats.flops == qr_flops(4096, 18)
        counter = FlopCounter()
        q_np, r_np = NumPyBackend(flop_counter=counter).qr(tall)
        assert counter.by_category() == {"qr": qr_flops(4096, 18)}
        for got in (dist_backend.asarray(q), q_np):
            assert got.dtype == ref_q.dtype and got.tobytes() == ref_q.tobytes()
        for got in (dist_backend.asarray(r), r_np):
            assert got.dtype == ref_r.dtype and got.tobytes() == ref_r.tobytes()

    @pytest.mark.parametrize("limits, error", [
        ({"max_restarts": -3}, ValueError),
        ({"max_restarts": 1.5}, TypeError),
        ({"timeout": -1.0}, ValueError),
        ({"timeout": float("nan")}, ValueError),
    ])
    def test_bad_pool_limits_rejected_before_any_worker_starts(self, monkeypatch, limits, error):
        def spawn(self, rank, first):
            raise AssertionError("a worker was spawned")

        monkeypatch.setattr(ProcessPoolCommunicator, "_spawn", spawn)
        with pytest.raises(error, match=next(iter(limits))):
            get_backend("distributed", nprocs=2, executor="pool", **limits)

    def test_reshape_charges_redistribution(self, rng):
        backend = DistributedBackend(nprocs=16)
        t = backend.astensor(random_complex(rng, (32, 32)))
        backend.reset_stats()
        backend.reshape(t, (16, 64))
        assert backend.stats.counts.get("redistribution", 0) == 1

    def test_transpose_charges_redistribution(self, rng):
        backend = DistributedBackend(nprocs=16)
        t = backend.astensor(random_complex(rng, (32, 16)))
        backend.reset_stats()
        backend.transpose(t, (1, 0))
        assert backend.stats.counts.get("transpose", 0) == 1
        # Identity permutation is free of redistribution.
        backend.reset_stats()
        backend.transpose(t, (0, 1))
        assert backend.stats.counts.get("transpose", 0) == 0

    def test_simulated_time_decreases_with_more_processes_for_large_work(self, rng):
        a = random_complex(rng, (128, 128))
        b = random_complex(rng, (128, 128))
        times = {}
        for p in (1, 64):
            backend = DistributedBackend(nprocs=p)
            backend.einsum("ij,jk->ik", backend.astensor(a), backend.astensor(b))
            times[p] = backend.simulated_seconds
        assert times[64] < times[1]

    def test_latency_makes_small_work_slower_on_many_processes(self, rng):
        a = random_complex(rng, (4, 4))
        times = {}
        for p in (1, 1024):
            backend = DistributedBackend(nprocs=p)
            t = backend.astensor(a)
            backend.reset_stats()
            backend.einsum("ij,jk->ik", t, t)
            times[p] = backend.simulated_seconds
        assert times[1024] > times[1]

    def test_scalar_einsum_returns_zero_dim(self, dist_backend, rng):
        a = random_complex(rng, (5,))
        out = dist_backend.einsum("i,i->", dist_backend.astensor(a), dist_backend.astensor(a))
        assert dist_backend.item(out) == pytest.approx(np.sum(a * a))

    def test_norm_and_item(self, dist_backend, rng):
        a = random_complex(rng, (6, 2))
        assert dist_backend.norm(dist_backend.astensor(a)) == pytest.approx(np.linalg.norm(a))

    def test_peak_tensor_tracking(self, rng):
        backend = DistributedBackend(nprocs=4)
        backend.astensor(random_complex(rng, (10, 10)))
        assert backend.stats.registry.value("dist.tensor_bytes_peak") >= 10 * 10 * 16

    def test_to_local_from_local_roundtrip(self, dist_backend, rng):
        a = random_complex(rng, (3, 4))
        local = dist_backend.to_local(dist_backend.astensor(a))
        assert np.array_equal(local, a)
        back = dist_backend.from_local(local)
        assert np.array_equal(dist_backend.asarray(back), a)

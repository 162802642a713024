"""Fault-injection tests for the pool executor.

A worker process of :class:`ProcessPoolCommunicator` can be armed (via the
backend's ``fault`` config) to die mid-request — mid-einsum (``op:
"contract"``) or mid-data-movement (``op: "echo"``, which collectives and
checkpoint gathers go through).  The contract under test:

* within the restart budget, the dead rank is respawned and the request
  re-sent **transparently** — results stay bitwise identical to a faultless
  run (workers are stateless, so a resend is exact);
* past the budget, the run fails *cleanly*: the driver gets a
  :class:`~repro.backends.interface.BackendExecutionError`, the CLI exits
  with code 4, the last scheduled checkpoint is kept valid (no new one is
  written over the torn in-flight state, no partial temp files), and a
  faultless ``--resume`` completes the run bitwise-identically to an
  uninterrupted one.
"""

import json
import os

import numpy as np
import pytest

from repro.backends import BackendExecutionError, get_backend
from repro.backends.distributed import PoolError, WorkerFault
from tests.conftest import random_complex
from tests.test_spec_golden import run_cli

DIST_SPEC = {
    "name": "fault-run",
    "workload": "ite",
    "lattice": [2, 2],
    "n_steps": 5,
    "seed": 7,
    "model": {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 1.0],
              "j2": [0.5, 0.5, 0.5], "field": [0.2, 0.2, 0.2]},
    "algorithm": {"tau": 0.05},
    "update": {"kind": "qr", "rank": 2},
    "contraction": {"kind": "ibmps", "bond": 4, "niter": 1, "seed": 0},
    "measure_every": 1,
    "checkpoint_every": 1,
    "checkpoint_dir": "checkpoints",
    "results": "out.jsonl",
}


def _pool_backend(**kwargs):
    return get_backend("distributed", nprocs=2, executor="pool", **kwargs)


def restarts_by_rank(pool):
    """Worker respawns per rank, read from the ``dist.pool.restarts`` counters."""
    registry = pool.stats.registry
    return [registry.value("dist.pool.restarts", rank=str(r)) for r in range(pool.nprocs)]


def _requests_per_rank(op, n_steps, tmp_path):
    """Per-rank request counts of a clean in-process run of DIST_SPEC.

    Used to position a fault *inside* the run: worker-side fault counters
    and the driver-side ``dist.pool.requests`` telemetry count the same
    clean-path requests.
    """
    from repro.sim.runner import run_spec

    tmp_path.mkdir(parents=True, exist_ok=True)
    backend = get_backend("distributed", nprocs=2, executor="pool")
    spec = dict(DIST_SPEC, n_steps=n_steps, backend=backend,
                results=str(tmp_path / "counts.jsonl"),
                checkpoint_dir=str(tmp_path / "counts-ckpt"))
    try:
        run_spec(spec)
        registry = backend.cost_model.stats.registry
        return {
            rank: int(registry.value("dist.pool.requests", op=op, rank=str(rank)))
            for rank in range(2)
        }
    finally:
        backend.close()


class TestWorkerFaultConfig:
    def test_from_config_validates_keys(self):
        with pytest.raises(ValueError):
            WorkerFault.from_config({"rank": 0, "bogus": 1})
        with pytest.raises(ValueError):
            WorkerFault.from_config({"mode": "sometimes"})
        with pytest.raises(ValueError):
            WorkerFault.from_config({"after_calls": 0})
        fault = WorkerFault.from_config({"rank": 1, "op": "echo", "after_calls": 3})
        assert fault == WorkerFault(rank=1, op="echo", after_calls=3, mode="once")

    def test_simulated_executor_rejects_fault(self):
        with pytest.raises(ValueError):
            get_backend("distributed", nprocs=2, fault={"rank": 0})


class TestTransparentRestart:
    def test_mid_einsum_death_is_transparent(self, rng):
        # 9 000 output elements: two canonical blocks, one on each rank.
        ops = [random_complex(rng, (1500, 5)), random_complex(rng, (5, 6))]
        sim = get_backend("distributed", nprocs=2)
        ref = np.asarray(
            sim.asarray(sim.einsum("ab,bc->ac", *[sim.astensor(o) for o in ops]))
        )
        pool = _pool_backend(fault={"rank": 1, "op": "contract", "after_calls": 2})
        try:
            for _ in range(4):
                out = np.asarray(pool.asarray(
                    pool.einsum("ab,bc->ac", *[pool.astensor(o) for o in ops])
                ))
                assert out.tobytes() == ref.tobytes()
            assert restarts_by_rank(pool) == [0, 1]
        finally:
            pool.close()

    def test_mid_collective_death_is_transparent(self, rng):
        pool = _pool_backend(fault={"rank": 0, "op": "echo", "after_calls": 1})
        try:
            x = random_complex(rng, (5, 4))
            assert pool.comm.gather(x).tobytes() == x.tobytes()
            assert restarts_by_rank(pool) == [1, 0]
        finally:
            pool.close()

    def test_restart_budget_exhaustion_raises_pool_error(self, rng):
        # 9 000 output elements: two canonical blocks, one on each rank.
        ops = [random_complex(rng, (1500, 5)), random_complex(rng, (5, 6))]
        pool = _pool_backend(
            fault={"rank": 0, "op": "contract", "after_calls": 1, "mode": "always"},
            max_restarts=1,
        )
        try:
            with pytest.raises(PoolError) as excinfo:
                pool.einsum("ab,bc->ac", *[pool.astensor(o) for o in ops])
            assert isinstance(excinfo.value, BackendExecutionError)
            assert "restart budget" in str(excinfo.value)
        finally:
            pool.close()


class TestCLIFaults:
    """End-to-end: armed faults through ``python -m repro.sim run``."""

    def _write_spec(self, tmp_path, fault=None, max_restarts=2, **overrides):
        payload = dict(DIST_SPEC, **overrides)
        backend = {"kind": "distributed", "nprocs": 2, "executor": "pool",
                   "max_restarts": max_restarts}
        if fault is not None:
            backend["fault"] = fault
        payload["backend"] = backend
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return path

    def test_budget_exhaustion_exits_4_with_valid_checkpoint(self, tmp_path):
        # Position the always-armed fault inside step 3 (of 5): past the
        # requests of steps 1-2 plus their checkpoints, so a valid scheduled
        # checkpoint exists when the backend dies.
        counts = _requests_per_rank("contract", 2, tmp_path / "counts")
        fault = {"rank": 0, "op": "contract",
                 "after_calls": counts[0] + 3, "mode": "always"}
        spec_path = self._write_spec(tmp_path, fault=fault, max_restarts=1)
        result = run_cli(tmp_path, "run", spec_path, "--quiet")
        assert result.returncode == 4, (result.stdout, result.stderr)
        assert "backend failure" in result.stderr
        assert "restart budget" in result.stderr

        ckpt_dir = tmp_path / "checkpoints"
        files = sorted(os.listdir(ckpt_dir))
        # No torn checkpoint of the failed step, no partial temp files.
        assert files, "expected the last scheduled checkpoint to survive"
        assert not [f for f in files if f.startswith(".tmp-")]
        steps = [int(f.split("-step")[1][:6]) for f in files if f.endswith(".json")]
        assert max(steps) == 2

        # The surviving checkpoint restores: a faultless resume completes
        # and reproduces an uninterrupted run bitwise.
        clean = self._write_spec(tmp_path, fault=None)
        resumed = run_cli(tmp_path, "run", clean, "--quiet", "--resume")
        assert resumed.returncode == 0, resumed.stderr
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        ref = run_cli(ref_dir, "run", self._write_spec(ref_dir, fault=None), "--quiet")
        assert ref.returncode == 0, ref.stderr
        assert (tmp_path / "out.jsonl").read_text() == (ref_dir / "out.jsonl").read_text()

    def test_mid_checkpoint_death_is_transparent_end_to_end(self, tmp_path):
        # Kill rank 1 mid data movement (echo requests carry every gather,
        # including checkpoint serialization) halfway through the run; the
        # restart budget absorbs it, so the run completes with identical
        # records and checkpoints to a faultless one.
        counts = _requests_per_rank("echo", 5, tmp_path / "counts")
        fault = {"rank": 1, "op": "echo",
                 "after_calls": max(1, counts[1] // 2), "mode": "once"}
        faulty = self._write_spec(tmp_path, fault=fault)
        result = run_cli(tmp_path, "run", faulty, "--quiet")
        assert result.returncode == 0, (result.stdout, result.stderr)

        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        ref = run_cli(ref_dir, "run", self._write_spec(ref_dir, fault=None), "--quiet")
        assert ref.returncode == 0, ref.stderr
        assert (tmp_path / "out.jsonl").read_text() == (ref_dir / "out.jsonl").read_text()
        for name in sorted(os.listdir(tmp_path / "checkpoints")):
            assert (tmp_path / "checkpoints" / name).read_bytes() == \
                (ref_dir / "checkpoints" / name).read_bytes(), name

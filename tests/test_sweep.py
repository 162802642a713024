"""Tests for the parameter-sweep subsystem (repro.sim.sweep).

Covers the SweepSpec config layer and deterministic expansion (point names,
derived seeds, product and explicit-points expansion, dotted-path override errors), the
manifest/resume machinery, serial-vs-parallel parity, and — the load-bearing
guarantee — that an interrupted-and-resumed sweep produces a combined results
document bitwise identical to an uninterrupted one while re-executing only
the unfinished points.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.sim import (
    RunSpec,
    Simulation,
    Sweep,
    SweepSpec,
    apply_spec_override,
    derive_point_seed,
)
import repro.sim.io as sim_io
import repro.sim.sweep as sweep_module
from repro.sim.sweep import STATUS_DONE, STATUS_FAILED, STATUS_PENDING, STATUS_RUNNING

MODEL = {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 1.0],
         "j2": [0.5, 0.5, 0.5], "field": [0.2, 0.2, 0.2]}

BASE = {
    "workload": "ite",
    "lattice": [2, 2],
    "n_steps": 3,
    "seed": 7,
    "model": MODEL,
    "algorithm": {"tau": 0.05},
    "update": {"kind": "qr", "rank": 2},
    "contraction": {"kind": "ibmps", "bond": 4, "niter": 1, "seed": 0},
    "checkpoint_every": 1,
}


def sweep_spec(tmp_path, subdir="sweep", **overrides):
    payload = {
        "name": "test-sweep",
        "base": dict(BASE),
        "axes": {"update.rank": [1, 2], "contraction.bond": [2, 4]},
        "sweep_dir": str(tmp_path / subdir),
    }
    payload.update(overrides)
    return SweepSpec.from_dict(payload)


class TestOverrides:
    def test_top_level_field(self):
        payload = dict(BASE)
        apply_spec_override(payload, "n_steps", 9)
        assert payload["n_steps"] == 9

    def test_nested_key(self):
        payload = dict(BASE, update={"kind": "qr", "rank": 2})
        apply_spec_override(payload, "update.rank", 5)
        assert payload["update"] == {"kind": "qr", "rank": 5}

    def test_creates_missing_config_dict(self):
        payload = dict(BASE)
        payload["update"] = None
        apply_spec_override(payload, "update.rank", 3)
        assert payload["update"] == {"rank": 3}

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="not a RunSpec field"):
            apply_spec_override(dict(BASE), "bogus.rank", 1)

    def test_non_dict_intermediate_rejected(self):
        with pytest.raises(ValueError, match="not a config dict"):
            apply_spec_override(dict(BASE), "n_steps.inner", 1)


class TestSweepSpec:
    def test_dict_round_trip(self, tmp_path):
        spec = sweep_spec(tmp_path)
        again = SweepSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = sweep_spec(tmp_path)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert SweepSpec.from_file(path) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepSpec fields"):
            SweepSpec.from_dict({"base": dict(BASE), "bogus": 1})

    def test_axes_and_points_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            SweepSpec.from_dict({
                "base": dict(BASE),
                "axes": {"update.rank": [1]},
                "points": [{"update.rank": 2}],
            })

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec.from_dict({"base": dict(BASE), "axes": {"update.rank": []}})

    def test_empty_points_list_rejected(self):
        """An empty grid must fail loudly, not vacuously 'complete'."""
        with pytest.raises(ValueError, match="must not be empty"):
            SweepSpec.from_dict({"base": dict(BASE), "points": []})


class TestExpansion:
    def test_product_order_last_axis_fastest(self, tmp_path):
        points = sweep_spec(tmp_path).expand()
        assert [p.name for p in points] == [
            "0000-rank1-bond2", "0001-rank1-bond4",
            "0002-rank2-bond2", "0003-rank2-bond4",
        ]
        assert [p.overrides for p in points] == [
            {"update.rank": 1, "contraction.bond": 2},
            {"update.rank": 1, "contraction.bond": 4},
            {"update.rank": 2, "contraction.bond": 2},
            {"update.rank": 2, "contraction.bond": 4},
        ]

    def test_explicit_points(self, tmp_path):
        spec = sweep_spec(tmp_path, axes={}, points=[
            {"update.rank": 1, "contraction.bond": 1},
            {"update.rank": 2, "contraction.bond": 4},
        ])
        points = spec.expand()
        assert [p.name for p in points] == ["0000-rank1-bond1", "0001-rank2-bond4"]

    def test_no_axes_single_point(self, tmp_path):
        spec = sweep_spec(tmp_path, axes={})
        points = spec.expand()
        assert len(points) == 1 and points[0].name == "0000"

    def test_expansion_is_deterministic(self, tmp_path):
        a = sweep_spec(tmp_path).expand()
        b = sweep_spec(tmp_path).expand()
        assert [(p.name, p.payload) for p in a] == [(p.name, p.payload) for p in b]

    def test_child_specs_are_valid_and_isolated(self, tmp_path):
        spec = sweep_spec(tmp_path)
        for point in spec.expand():
            child = RunSpec.from_dict(point.payload)
            assert child.name == f"test-sweep-{point.name}"
            assert point.name in child.checkpoint_dir
            assert child.results.endswith(os.path.join(point.name, "results.jsonl"))

    def test_derived_seeds_match_goldens(self, tmp_path):
        """Derived child seeds are pinned: reshuffling them would silently
        invalidate every existing sweep result."""
        points = sweep_spec(tmp_path).expand()
        assert [p.payload["seed"] for p in points] == [
            8141949595410671981, 4488123607163468292,
            630026451310891759, 3969197366336509226,
        ]

    def test_explicit_seed_axis_wins(self, tmp_path):
        spec = sweep_spec(tmp_path, axes={"seed": [11, 22]})
        assert [p.payload["seed"] for p in spec.expand()] == [11, 22]

    def test_bad_axis_path_fails_at_expansion(self, tmp_path):
        spec = sweep_spec(tmp_path, axes={"nope.rank": [1, 2]})
        with pytest.raises(ValueError, match="not a RunSpec field"):
            spec.expand()


class TestDerivePointSeed:
    def test_golden_values(self):
        """Golden integers for the sweep seed substream (utils.rng.derive_rng)."""
        assert derive_point_seed(7, 0) == 8141949595410671981
        assert derive_point_seed(7, 1) == 4488123607163468292
        assert derive_point_seed(0, 0) == 5623138576895223887
        assert derive_point_seed(0, 1) == 7776798353675995844

    def test_none_stays_none(self):
        assert derive_point_seed(None, 0) is None


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestSweepExecution:
    def test_serial_run_completes_and_merges(self, tmp_path):
        spec = sweep_spec(tmp_path)
        result = Sweep(spec).run()
        assert result.completed and not result.interrupted
        assert set(result.statuses.values()) == {STATUS_DONE}
        assert len(result.records) == 4 * BASE["n_steps"]
        # Combined records are tagged and ordered by expansion order.
        names = [p.name for p in spec.expand()]
        seen = [r["point"] for r in result.records]
        assert seen == [name for name in names for _ in range(BASE["n_steps"])]
        assert all("energy" in r and "step" in r for r in result.records)
        # Per-point metrics were recorded in the manifest.
        assert set(result.metrics) == set(names)
        assert all(m["wall_time_s"] > 0 for m in result.metrics.values())

    def test_jobs2_parity_with_serial(self, tmp_path):
        """A pool sweep's combined document is byte-identical to a serial one."""
        serial = Sweep(sweep_spec(tmp_path, "serial")).run()
        parallel = Sweep(sweep_spec(tmp_path, "parallel")).run(jobs=2)
        assert parallel.completed
        assert read_bytes(serial.combined_path) == read_bytes(parallel.combined_path)

    def test_stop_after_points_interrupts_and_resumes_bitwise(self, tmp_path):
        """Kill at point k; resume re-executes only unfinished points and the
        combined document is bitwise identical to an uninterrupted sweep's."""
        reference = Sweep(sweep_spec(tmp_path, "ref")).run()

        spec = sweep_spec(tmp_path, "int")
        partial = Sweep(spec).run(stop_after_points=2)
        assert partial.interrupted and partial.stop_reason == "stop_after_points"
        assert not partial.completed and partial.combined_path is None
        statuses = sorted(partial.statuses.values())
        assert statuses == [STATUS_DONE, STATUS_DONE, STATUS_PENDING, STATUS_PENDING]

        started = []
        resumed = Sweep(sweep_spec(tmp_path, "int")).run(
            resume=True,
            progress=lambda e: started.append(e["point"]) if e["event"] == "started" else None,
        )
        assert resumed.completed
        done_before = {n for n, s in partial.statuses.items() if s == STATUS_DONE}
        assert set(started) == set(partial.statuses) - done_before
        assert read_bytes(reference.combined_path) == read_bytes(resumed.combined_path)

    def test_stop_after_points_parallel_resume_bitwise(self, tmp_path):
        reference = Sweep(sweep_spec(tmp_path, "ref")).run()
        spec = sweep_spec(tmp_path, "int")
        partial = Sweep(spec).run(jobs=2, stop_after_points=2)
        assert partial.interrupted
        assert STATUS_PENDING in partial.statuses.values()
        resumed = Sweep(sweep_spec(tmp_path, "int")).run(jobs=2, resume=True)
        assert resumed.completed
        assert read_bytes(reference.combined_path) == read_bytes(resumed.combined_path)

    def test_resume_mid_point_from_checkpoint(self, tmp_path):
        """A point interrupted mid-run resumes from its checkpoint, not from
        scratch, and still reproduces the uninterrupted records."""
        reference = Sweep(sweep_spec(tmp_path, "ref")).run()
        spec = sweep_spec(tmp_path, "int")
        points = spec.expand()
        # Interrupt point 0 at step 1 through the single-run machinery the
        # sweep reuses, then mark it running in a manifest, as a signal would.
        sweep = Sweep(spec)
        sweep._entries = sweep._fresh_entries(points)
        Simulation(points[0].spec).run(stop_after=1)
        sweep._entries[points[0].name]["status"] = STATUS_RUNNING
        sweep._write_manifest()

        steps_run = []
        resumed = Sweep(sweep_spec(tmp_path, "int")).run(
            resume=True,
            record_progress=lambda r: steps_run.append((r["point"], r["step"])),
        )
        assert resumed.completed
        # Point 0 resumed at step 2 (the checkpointed step 1 is not re-run).
        point0_steps = [s for p, s in steps_run if p == points[0].name]
        assert point0_steps == [2, 3]
        assert read_bytes(reference.combined_path) == read_bytes(resumed.combined_path)

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            Sweep(sweep_spec(tmp_path)).run(resume=True)

    def test_resume_rejects_changed_grid(self, tmp_path):
        Sweep(sweep_spec(tmp_path)).run(stop_after_points=1)
        changed = sweep_spec(tmp_path, axes={"update.rank": [1, 3],
                                             "contraction.bond": [2, 4]})
        with pytest.raises(ValueError, match="incompatible"):
            Sweep(changed).run(resume=True)

    def test_failed_point_reports_without_killing_grid(self, tmp_path):
        spec = sweep_spec(
            tmp_path,
            axes={"model.kind": ["heisenberg_j1j2", "not_a_model"]},
        )
        result = Sweep(spec).run()
        assert not result.completed and not result.interrupted
        statuses = sorted(result.statuses.values())
        assert statuses == [STATUS_DONE, STATUS_FAILED]
        assert result.failed and "not_a_model" in next(iter(result.errors.values()))

    def test_run_sweep_convenience(self, tmp_path):
        result = Sweep(sweep_spec(tmp_path, axes={"update.rank": [2]})).run()
        assert result.completed

    def test_count_flops_metrics(self, tmp_path):
        spec = sweep_spec(tmp_path, axes={"update.rank": [2]})
        result = Sweep(spec).run(count_flops=True)
        metrics = next(iter(result.metrics.values()))
        assert metrics["flops"] > 0
        assert metrics["row_absorptions"] > 0
        assert "einsum" in metrics["flops_by_category"]

    def test_json_documents_are_json_dump_bytes(self, tmp_path, monkeypatch):
        # Every manifest and checkpoint document of a sweep is written with
        # the bytes json.dump would write for the same payload.
        real = sim_io.atomic_write_json
        written = []

        def checked(path, payload):
            out = real(path, payload)
            expected = io.StringIO()
            json.dump(payload, expected)
            written.append(os.path.basename(out))
            assert read_bytes(out) == expected.getvalue().encode(), out
            return out

        monkeypatch.setattr(sim_io, "atomic_write_json", checked)
        monkeypatch.setattr(sweep_module, "atomic_write_json", checked)
        Sweep(sweep_spec(tmp_path, axes={"update.rank": [2]})).run()
        assert "manifest.json" in written
        assert any(name.endswith(".ckpt.json") for name in written)


class TestSweepCLI:
    @staticmethod
    def cli_env():
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def write_spec(self, tmp_path, **overrides):
        spec = sweep_spec(tmp_path, **overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec.to_dict()))
        return path

    def cli(self, tmp_path, spec_path, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.sim", "sweep", str(spec_path), *args],
            env=self.cli_env(), cwd=tmp_path, capture_output=True, text=True,
        )

    def test_cli_interrupt_resume_round_trip(self, tmp_path):
        """The CI scenario: sweep with --jobs 2, 'crash' after 2 points
        (exit 3), resume, and the combined document matches the reference."""
        spec_path = self.write_spec(tmp_path)
        ref = self.cli(tmp_path, spec_path, "--quiet", "--jobs", "2",
                       "--results", "ref.jsonl", "--sweep-dir", str(tmp_path / "ref"))
        assert ref.returncode == 0, ref.stderr
        crashed = self.cli(tmp_path, spec_path, "--quiet", "--jobs", "2",
                           "--results", "out.jsonl", "--stop-after-points", "2")
        assert crashed.returncode == 3, crashed.stderr
        resumed = self.cli(tmp_path, spec_path, "--quiet", "--jobs", "2",
                           "--results", "out.jsonl", "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert read_bytes(tmp_path / "out.jsonl") == read_bytes(tmp_path / "ref.jsonl")

    @pytest.mark.skipif(os.name == "nt", reason="POSIX signal semantics")
    def test_cli_sigterm_propagates_to_workers(self, tmp_path):
        """SIGTERM on the sweep parent reaches the workers: every
        in-flight point checkpoints (exit 4) and --resume reproduces the
        uninterrupted combined document bitwise."""
        spec_path = self.write_spec(
            tmp_path,
            base=dict(BASE, n_steps=40, lattice=[3, 3], checkpoint_every=0),
            axes={"update.rank": [1, 2]},
        )
        ref = self.cli(tmp_path, spec_path, "--quiet", "--jobs", "2",
                       "--results", "ref.jsonl", "--sweep-dir", str(tmp_path / "ref"))
        assert ref.returncode == 0, ref.stderr

        process = subprocess.Popen(
            [sys.executable, "-m", "repro.sim", "sweep", str(spec_path),
             "--jobs", "2", "--results", "out.jsonl"],
            env=self.cli_env(), cwd=tmp_path, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, bufsize=1,
        )
        started = 0
        for line in process.stdout:
            if "] started" in line:
                started += 1
            if started == 2:
                break
        process.send_signal(signal.SIGTERM)
        process.stdout.read()  # drain until exit
        assert process.wait(timeout=300) == 4, process.stderr.read()

        manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
        assert all(p["status"] == STATUS_RUNNING for p in manifest["points"])

        resumed = self.cli(tmp_path, spec_path, "--quiet", "--jobs", "2",
                           "--results", "out.jsonl", "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert read_bytes(tmp_path / "out.jsonl") == read_bytes(tmp_path / "ref.jsonl")


    #: Steps per point of the parent-death test: enough that the grid's
    #: workers, left to run it out, would outlive WORKER_EXIT_SECONDS
    #: several times over (about 4 s after the kill on a 2-core VM).
    PARENT_DEATH_STEPS = 320
    #: How long a worker may take to stop once its parent is gone: one step
    #: (about 20 ms here), one checkpoint and the exit.
    WORKER_EXIT_SECONDS = 1.0

    @staticmethod
    def alive(pid):
        """Whether ``pid`` runs (an orphan's zombie waits for init: not alive)."""
        try:
            with open(f"/proc/{pid}/stat") as handle:
                return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
    def test_cli_sigkill_of_the_parent_stops_its_workers(self, tmp_path):
        """A sweep parent killed outright cannot signal its workers.  Each
        still stops within a step (its pipe to the parent closes), and
        --resume completes the grid to the serial golden bytes."""
        base = dict(BASE, n_steps=self.PARENT_DEATH_STEPS, checkpoint_every=10)
        golden = Sweep(sweep_spec(tmp_path, "golden", base=base)).run(jobs=1)
        assert golden.completed
        spec_path = self.write_spec(tmp_path, base=base)
        sweep_dir = tmp_path / "sweep"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.sim", "sweep", str(spec_path),
             "--jobs", "2", "--quiet"],
            env=self.cli_env(), cwd=tmp_path,
        )
        pids = []
        try:
            # Kill mid-point: both workers own a point that has checkpointed.
            deadline = time.monotonic() + 120
            while True:
                assert time.monotonic() < deadline, "the workers never checkpointed"
                assert process.poll() is None, "the sweep ended before the kill"
                try:
                    points = json.loads((sweep_dir / "manifest.json").read_text())["points"]
                except (OSError, ValueError):
                    points = []
                running = [point for point in points if point["status"] == STATUS_RUNNING
                           and (point["queue"] or {}).get("owner")
                           and list((sweep_dir / point["name"]).glob("checkpoints/*.ckpt.json"))]
                if len(running) == 2:
                    break
                time.sleep(0.02)
            process.kill()
            process.wait(timeout=60)
            pids = [int(point["queue"]["owner"].rsplit("pid", 1)[1]) for point in running]
            deadline = time.monotonic() + self.WORKER_EXIT_SECONDS
            while any(map(self.alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not [pid for pid in pids if self.alive(pid)], (
                "workers outlived their SIGKILLed parent")
        finally:
            if process.poll() is None:
                process.kill()
            for pid in pids:
                if self.alive(pid):
                    os.kill(pid, signal.SIGKILL)

        resumed = self.cli(tmp_path, spec_path, "--quiet", "--jobs", "2", "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert read_bytes(sweep_dir / "results.jsonl") == read_bytes(golden.combined_path)


class TestManifestOfAnEarlierBuild:
    @pytest.mark.parametrize("recorded", [True, False], ids=["payload", "no-payload"])
    def test_resume_reads_a_manifest_of_an_earlier_build(self, tmp_path, recorded):
        """Earlier builds recorded each point's checkpoint format in its
        manifest entry (``payload``; the first version-2 builds did not), and
        their base specs named one.  Nothing reads either any more: the
        sweep resumes to the uninterrupted result."""
        reference = Sweep(sweep_spec(tmp_path, "ref")).run()
        spec = sweep_spec(tmp_path, "int", base=dict(BASE, checkpoint_payload="sharded"))
        interrupted = Sweep(spec).run(stop_after_points=2)
        assert interrupted.interrupted
        manifest = json.loads(open(interrupted.manifest_path).read())
        for point in manifest["points"]:
            assert "payload" not in point
            if recorded:
                point["payload"] = "sharded" if point["status"] == STATUS_DONE else "npz"
        with open(interrupted.manifest_path, "w") as handle:
            json.dump(manifest, handle)

        result = Sweep(spec).run(resume=True)
        assert result.completed
        assert result.records == reference.records


class TestQueueExecutorSpec:
    """SweepSpec surface for the worker settings and the reference slot."""

    def test_queue_round_trip(self, tmp_path):
        spec = sweep_spec(
            tmp_path,
            queue={"lease_seconds": 2.0, "max_attempts": 2},
        )
        assert spec.queue == {"max_attempts": 2}, "the lease knob is lifted away"
        again = SweepSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.queue == {"max_attempts": 2}

    def test_reference_round_trip(self, tmp_path):
        spec = sweep_spec(
            tmp_path, reference={"kind": "statevector", "n_steps": 2}
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_removed_executor_field_rejected(self, tmp_path):
        """The option is gone, loudly: a spec that still names it fails with
        the unknown-field error, which lists the fields that exist."""
        with pytest.raises(ValueError, match=r"unknown SweepSpec fields \['executor'\]"):
            sweep_spec(tmp_path, executor="queue")

    def test_unknown_queue_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="queue config keys"):
            sweep_spec(tmp_path, queue={"lease_ms": 100})

    def test_unknown_reference_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="statevector"):
            sweep_spec(tmp_path, reference={"kind": "mps"})

    def test_pre_removal_manifest_resumes(self, tmp_path):
        """A manifest written while ``executor`` existed (top level and in its
        embedded spec) still resumes: resume reads only ``points``."""
        reference = Sweep(sweep_spec(tmp_path, "ref")).run()
        partial = Sweep(sweep_spec(tmp_path, "old")).run(jobs=2, stop_after_points=2)
        assert partial.interrupted
        manifest = json.loads(open(partial.manifest_path).read())
        manifest["executor"] = "pool"
        manifest["spec"]["executor"] = "pool"
        with open(partial.manifest_path, "w") as handle:
            json.dump(manifest, handle)
        resumed = Sweep(sweep_spec(tmp_path, "old")).run(jobs=2, resume=True)
        assert resumed.completed
        assert read_bytes(resumed.combined_path) == read_bytes(reference.combined_path)

    def test_single_remaining_point_still_runs_through_workers(self, tmp_path):
        """``jobs >= 2`` means workers whatever is left to run; ``jobs == 1``
        never forks one."""
        spec = sweep_spec(tmp_path, axes={"update.rank": [2]},
                          queue={"lease_seconds": 30.0})
        result = Sweep(spec).run(jobs=2)
        assert result.completed
        manifest = Sweep.load_manifest(result.manifest_path)
        assert "executor" not in manifest and "executor" not in manifest["spec"]
        assert manifest["queue"] == {"max_attempts": 3, "poll_seconds": 0.05, "fault": None}
        assert manifest["spec"]["queue"] == {}, "the lease knob is lifted away"
        assert [p["queue"]["state"] for p in manifest["points"]] == ["done"]

        serial = Sweep(sweep_spec(tmp_path, "serial", axes={"update.rank": [2]})).run()
        manifest = Sweep.load_manifest(serial.manifest_path)
        assert "queue" not in manifest
        assert [p["queue"] for p in manifest["points"]] == [None]


class TestSharedReference:
    """The content-addressed once-per-sweep statevector reference slot."""

    def reference_spec(self, tmp_path, subdir="refsweep", **overrides):
        return sweep_spec(
            tmp_path, subdir,
            reference={"kind": "statevector", "n_steps": 2},
            **overrides,
        )

    def test_reference_computed_once_and_in_combined_doc(self, tmp_path):
        spec = self.reference_spec(tmp_path)
        result = Sweep(spec).run()
        assert result.completed
        ref = result.reference
        assert ref["kind"] == "statevector"
        assert ref["cache_hit"] is False
        assert ref["n_sites"] == 4
        assert len(ref["energies"]) == 2
        assert os.path.basename(ref["path"]) == f"reference-{ref['key']}.npz"
        assert os.path.exists(ref["path"])

        with open(result.combined_path) as handle:
            first = json.loads(handle.readline())
        assert set(first) == {"reference"}
        assert first["reference"]["final_energy"] == ref["final_energy"]
        # Volatile bookkeeping (paths, cache hits) stays out of the document.
        assert "path" not in first["reference"]
        assert "cache_hit" not in first["reference"]

    def test_reference_cache_hits_on_second_run(self, tmp_path):
        spec = self.reference_spec(tmp_path)
        first = Sweep(spec).run()
        second = Sweep(self.reference_spec(tmp_path)).run(resume=True)
        assert second.reference["cache_hit"] is True
        assert second.reference["energies"] == first.reference["energies"]

    def test_reference_identical_across_executors(self, tmp_path):
        serial = Sweep(self.reference_spec(tmp_path, "ref-serial")).run()
        queued = Sweep(
            self.reference_spec(tmp_path, "ref-queue")
        ).run(jobs=2)
        assert queued.completed
        with open(serial.combined_path, "rb") as a, \
                open(queued.combined_path, "rb") as b:
            assert a.read() == b.read()

    def test_reference_refuses_large_lattices(self, tmp_path):
        huge = dict(BASE, lattice=[5, 5])
        spec = sweep_spec(
            tmp_path, base=huge,
            reference={"kind": "statevector", "n_steps": 2},
        )
        with pytest.raises(ValueError, match="max_sites"):
            Sweep(spec).run()

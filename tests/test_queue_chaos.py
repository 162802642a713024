"""Chaos tests for the forked sweep workers (Sweep jobs >= 2).

The scheduler's contract under failure: a worker killed mid-point (hard
SIGKILL or cooperative SIGTERM) must not lose its point — the parent sees the
worker die (or hand the point back) and requeues it — no point may ever
complete twice, a point that keeps crashing burns its bounded retry budget
and is marked ``failed`` without killing the rest of the grid, and through
all of it the combined results document stays **bitwise identical** to an
uninterrupted serial run.

Faults are injected with the spec-level ``queue.fault`` knob (the worker
kills itself deterministically after K records of a named point), so every
chaos scenario is exactly reproducible.
"""

import json
import os

import pytest

from repro.sim import Sweep, SweepSpec
from repro.sim.sweep import STATUS_DONE, STATUS_FAILED

from test_sweep import BASE


def make_spec(tmp_path, subdir, **overrides):
    payload = {
        "name": "chaos-sweep",
        "base": dict(BASE),
        "axes": {"update.rank": [1, 2], "contraction.bond": [2, 4]},
        "sweep_dir": str(tmp_path / subdir),
    }
    payload.update(overrides)
    return SweepSpec.from_dict(payload)


def golden_serial(tmp_path):
    """The uninterrupted serial run every chaos scenario must reproduce."""
    result = Sweep(make_spec(tmp_path, "golden")).run(jobs=1)
    assert result.completed
    with open(result.combined_path, "rb") as handle:
        return handle.read()


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def queue_stats(result, name):
    manifest = json.load(open(result.manifest_path))
    entries = {entry["name"]: entry for entry in manifest["points"]}
    return entries[name]["queue"]


@pytest.mark.parametrize("jobs", [2, 4])
def test_queue_parity_without_faults(tmp_path, jobs):
    golden = golden_serial(tmp_path)
    spec = make_spec(tmp_path, f"queue{jobs}")
    result = Sweep(spec).run(jobs=jobs)
    assert result.completed
    assert all(status == STATUS_DONE for status in result.statuses.values())
    assert read_bytes(result.combined_path) == golden


@pytest.mark.parametrize("jobs", [2, 4])
def test_sigkill_mid_lease_requeues_and_matches_golden(tmp_path, jobs):
    """A SIGKILLed worker's point requeues, and the combined document still
    matches the serial golden run byte for byte."""
    golden = golden_serial(tmp_path)
    victim = make_spec(tmp_path, "scratch").expand()[0].name
    spec = make_spec(
        tmp_path,
        f"sigkill{jobs}",
        queue={"fault": {"job": victim, "mode": "sigkill", "after_records": 1}},
    )
    result = Sweep(spec).run(jobs=jobs)
    assert result.completed
    assert all(status == STATUS_DONE for status in result.statuses.values())

    stats = queue_stats(result, victim)
    assert stats["state"] == STATUS_DONE
    assert stats["epochs"] >= 2, "the killed epoch must have been requeued"
    assert stats["requeues"] >= 1
    assert stats["burned"] >= 1, "a SIGKILL (a crashed worker) burns retry budget"

    assert read_bytes(result.combined_path) == golden


def test_sigterm_mid_lease_releases_without_burn(tmp_path):
    """SIGTERM takes the cooperative path: checkpoint, hand the point back
    (no budget burned), and the next worker resumes to an identical result."""
    golden = golden_serial(tmp_path)
    victim = make_spec(tmp_path, "scratch").expand()[0].name
    spec = make_spec(
        tmp_path,
        "sigterm",
        queue={"fault": {"job": victim, "mode": "sigterm", "after_records": 1}},
    )
    result = Sweep(spec).run(jobs=2)
    assert result.completed
    assert all(status == STATUS_DONE for status in result.statuses.values())

    stats = queue_stats(result, victim)
    assert stats["state"] == STATUS_DONE
    assert stats["epochs"] >= 2
    assert stats["burned"] == 0, "a released point must not burn retry budget"

    assert read_bytes(result.combined_path) == golden


def test_no_point_completes_twice_under_chaos(tmp_path):
    """With a requeue in the grid, every point reports ``done`` exactly once
    and leaves one results file, with no partial epoch file beside it."""
    victim = make_spec(tmp_path, "scratch").expand()[0].name
    spec = make_spec(
        tmp_path,
        "once",
        queue={"fault": {"job": victim, "mode": "sigkill", "after_records": 1}},
    )
    events = []
    result = Sweep(spec).run(jobs=2, progress=events.append)
    assert result.completed
    assert queue_stats(result, victim)["epochs"] >= 2

    done = [event["point"] for event in events
            if event["event"] == "finished" and event["status"] == STATUS_DONE]
    assert sorted(done) == sorted(result.statuses), "each point completes once"
    for name in result.statuses:
        point_dir = os.path.join(spec.sweep_dir, name)
        results = [f for f in os.listdir(point_dir) if f.startswith("results")]
        assert results == ["results.jsonl"], f"{name}: {results}"
        leftovers = [f for f in os.listdir(point_dir) if ".ep" in f]
        assert leftovers == [], f"epoch files for {name}: {leftovers}"


def test_retry_budget_exhaustion_fails_point_not_grid(tmp_path):
    """A point that crashes on *every* epoch burns its whole budget and is
    marked failed; the other points complete and the sweep exits cleanly."""
    points = make_spec(tmp_path, "scratch").expand()
    victim = points[0].name
    spec = make_spec(
        tmp_path,
        "budget",
        queue={
            "max_attempts": 2,
            "fault": {
                "job": victim,
                "mode": "sigkill",
                "after_records": 1,
                "epochs": "all",
            },
        },
    )
    result = Sweep(spec).run(jobs=2)
    assert not result.interrupted
    assert result.statuses[victim] == STATUS_FAILED
    assert "attempt" in result.errors[victim] or result.errors[victim]
    for name, status in result.statuses.items():
        if name != victim:
            assert status == STATUS_DONE, f"{name} should have survived the chaos"

    stats = queue_stats(result, victim)
    assert stats["state"] == STATUS_FAILED
    assert stats["burned"] >= 2

    # The failed point keeps the grid alive but the sweep is not "completed".
    assert not result.completed
    assert result.combined_path is None


def test_queue_resume_after_interrupt_matches_golden(tmp_path):
    """A stop mid-sweep (here after 2 points) hands out no more points;
    --resume finishes the rest and the combined doc matches the golden run."""
    golden = golden_serial(tmp_path)
    spec = make_spec(tmp_path, "resume")
    sweep = Sweep(spec)
    first = sweep.run(jobs=2, stop_after_points=2)
    assert first.interrupted
    assert sum(1 for s in first.statuses.values() if s == STATUS_DONE) >= 2

    resumed = Sweep(make_spec(tmp_path, "resume")).run(
        jobs=2, resume=True
    )
    assert resumed.completed
    assert read_bytes(resumed.combined_path) == golden

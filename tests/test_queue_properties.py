"""Property tests for the sweep's worker dispatch and manifest safety.

Two families:

* **Dispatch properties** — seeded random schedules of what each run of a
  point does in its forked worker: finish, fail, die by SIGKILL, or be
  stopped (checkpoint and hand the point back).  The points are stubs that
  log each run and act at once, so a schedule of real workers, pipes and
  process deaths runs in a fraction of a second.  After any schedule: no
  point is lost, no point runs in two workers at once, a point burns one
  attempt per death of its worker and never more than ``max_attempts``, and
  a point handed back burns nothing.

* **Torn-write injection** — the sweep manifest must remain valid JSON no
  matter where a writer dies.  Every manifest update in a short sweep is
  re-run with the atomic writer made to tear (partial temp bytes, then a
  crash before the rename); after each single injection the on-disk
  manifest still parses and a plain ``resume=True`` run completes to the
  golden document.
"""

import json
import multiprocessing
import os
import random
import signal
import time

import pytest

import repro.sim.sweep as sweep_module
from repro.sim import Sweep
from repro.sim.sweep import STATUS_DONE, STATUS_FAILED, STATUS_RUNNING

from test_queue_chaos import make_spec, read_bytes

MAX_ATTEMPTS = 3


def _schedule(seed, name, runs):
    """What the next run of point ``name`` does under ``seed``, given the
    actions of its earlier ``runs``.  A point meets at most ``MAX_ATTEMPTS``
    deaths and stops together, so the grid stays within the parent's spawn
    budget of ``MAX_ATTEMPTS`` per point."""
    faults = sum(1 for action in runs if action in ("kill", "stop"))
    choices = ["done", "fail"] if faults == MAX_ATTEMPTS else ["done", "fail", "kill", "stop"]
    weights = [4, 1] if faults == MAX_ATTEMPTS else [4, 1, 3, 2]
    return random.Random(f"{seed}-{name}-{len(runs)}").choices(choices, weights)[0]


def _stub_point(log_path, seed):
    """A stand-in for ``_execute_point`` that logs its run and acts on the
    schedule; forked workers inherit it."""

    def execute(payload, allow_resume, count_flops=False, register=None,
                record_progress=None):
        name = os.path.basename(os.path.dirname(payload["results"]))
        with open(log_path) as handle:
            runs = [entry["action"] for entry in map(json.loads, handle)
                    if entry["name"] == name]
        action = _schedule(seed, name, runs)
        start = time.monotonic()
        time.sleep(0.002)
        entry = {"name": name, "pid": os.getpid(), "action": action,
                 "resume": allow_resume, "start": start, "end": time.monotonic()}
        with open(log_path, "a") as handle:
            handle.write(json.dumps(entry) + "\n")
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "stop":
            sweep_module._stop_worker()  # as SIGTERM would, mid-point
            return {"status": STATUS_RUNNING, "interrupted": True}
        if action == "fail":
            return {"status": STATUS_FAILED, "error": "scheduled failure"}
        os.makedirs(os.path.dirname(payload["results"]), exist_ok=True)
        with open(payload["results"], "w") as handle:
            handle.write(json.dumps({"step": 1}) + "\n")
        return {"status": STATUS_DONE, "interrupted": False, "final_step": 1}

    return execute


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers inherit the stub point by fork")
@pytest.mark.parametrize("seed", range(40))
def test_random_schedules_never_lose_or_double_run_a_point(tmp_path, monkeypatch, seed):
    jobs = 2 + seed % 3
    spec = make_spec(tmp_path, f"dispatch{seed}", queue={"max_attempts": MAX_ATTEMPTS})
    log_path = tmp_path / "runs.jsonl"
    log_path.write_text("")
    monkeypatch.setattr(sweep_module, "_execute_point", _stub_point(log_path, seed))
    events = []
    result = Sweep(spec).run(jobs=jobs, progress=events.append)
    runs = [json.loads(line) for line in log_path.read_text().splitlines()]
    manifest = json.load(open(result.manifest_path))
    stats = {entry["name"]: entry["queue"] for entry in manifest["points"]}

    assert not result.interrupted, result.stop_reason
    for name, status in result.statuses.items():
        mine = [run for run in runs if run["name"] == name]
        actions = [run["action"] for run in mine]
        kills = actions.count("kill")
        # No point lost: each ends on its last run's verdict or its budget.
        expected = (STATUS_FAILED if kills == MAX_ATTEMPTS or actions[-1] == "fail"
                    else STATUS_DONE)
        assert status == expected, (name, actions)
        assert actions[-1] in ("done", "fail") or kills == MAX_ATTEMPTS
        # One burn per death of its worker, none for a stop, never above budget.
        assert stats[name]["burned"] == kills <= MAX_ATTEMPTS, (name, actions)
        assert stats[name]["epochs"] == len(mine)
        assert [event["point"] for event in events
                if event["event"] == "started"].count(name) == len(mine)
        # Never in two workers at once; every rerun resumes.
        for before, after in zip(mine, mine[1:]):
            assert before["end"] <= after["start"], (name, before, after)
            assert after["resume"]


# --------------------------------------------------------------------- #
# Torn-write injection: the manifest survives a crash at any write
# --------------------------------------------------------------------- #
class TornWrite(Exception):
    pass


def _install_torn_writer(monkeypatch, tear_at):
    """Replace the sweep module's atomic writer: call #``tear_at`` writes
    partial temp bytes and dies before the rename (a torn write)."""
    import repro.sim.io as sim_io
    import repro.sim.sweep as sweep_module

    real = sim_io.atomic_write_json
    calls = {"n": 0}

    def torn(path, payload):
        calls["n"] += 1
        if calls["n"] == tear_at:
            with open(os.fspath(path) + ".torn-tmp", "w") as handle:
                handle.write(json.dumps(payload)[: 17])  # partial bytes only
            raise TornWrite(f"torn write #{tear_at} at {path}")
        return real(path, payload)

    monkeypatch.setattr(sweep_module, "atomic_write_json", torn)
    return calls


def test_manifest_survives_any_single_torn_write(tmp_path, monkeypatch):
    """For every manifest write in a serial sweep: tearing exactly that
    write leaves valid JSON on disk, and resume completes to golden."""
    golden = Sweep(make_spec(tmp_path, "golden")).run(jobs=1)
    assert golden.completed
    golden_bytes = read_bytes(golden.combined_path)
    total_writes = 2 * len(golden.statuses) + 1  # started+finished each + init

    for tear_at in range(1, total_writes + 1):
        subdir = f"torn{tear_at}"
        spec = make_spec(tmp_path, subdir)
        with monkeypatch.context() as patch:
            _install_torn_writer(patch, tear_at)
            with pytest.raises(TornWrite):
                Sweep(spec).run(jobs=1)

        # Whatever survived the crash must parse; a crash before the very
        # first write legitimately leaves no manifest (resume starts fresh).
        manifest_path = spec.manifest_path
        has_manifest = os.path.exists(manifest_path)
        if has_manifest:
            manifest = json.load(open(manifest_path))  # must parse
            assert manifest["points"], "manifest must keep its points table"

        resumed = Sweep(make_spec(tmp_path, subdir)).run(jobs=1, resume=has_manifest)
        assert resumed.completed
        assert read_bytes(resumed.combined_path) == golden_bytes

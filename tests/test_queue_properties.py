"""Property tests for the lease queue (repro.sim.queue) and manifest safety.

Two families:

* **Interleaving properties** — seeded random schedules of claim /
  heartbeat / expire / release / complete / crash over a fake clock.  After
  any schedule: no job is lost, no job completes twice, at most one live
  lease exists per job at a time, terminal records are immutable, and the
  burn accounting never exceeds the retry budget.  The schedules are pure
  single-process state-machine drives (the chaos suite covers real
  processes and signals), so hundreds of interleavings run in milliseconds.

* **Torn-write injection** — the sweep manifest must remain valid JSON no
  matter where a writer dies.  Every manifest update in a short sweep is
  re-run with the atomic writer made to tear (partial temp bytes, then a
  crash before the rename); after each single injection the on-disk
  manifest still parses and a plain ``resume=True`` run completes to the
  golden document.
"""

import json
import os
import random

import pytest

from repro.sim import JobQueue, LeaseLost, Sweep
from repro.sim.queue import (
    STATE_DONE,
    STATE_EXPIRED,
    STATE_FAILED,
    STATE_LEASED,
    STATE_PENDING,
    STATE_RELEASED,
)

from test_queue_chaos import make_spec, read_bytes

N_JOBS = 5
MAX_ATTEMPTS = 3
LEASE = 10.0


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def fresh_queue(tmp_path, subdir, clock, max_attempts=MAX_ATTEMPTS):
    jobs = [{"id": f"job-{i}", "payload": {"i": i}} for i in range(N_JOBS)]
    return JobQueue.create(
        tmp_path / subdir, jobs,
        lease_seconds=LEASE, max_attempts=max_attempts, clock=clock,
    )


# --------------------------------------------------------------------- #
# Deterministic single-transition properties
# --------------------------------------------------------------------- #
class TestLeaseTransitions:
    def test_claim_is_exclusive_while_leased(self, tmp_path):
        clock = FakeClock()
        jq = fresh_queue(tmp_path, "excl", clock)
        leases = [jq.claim(f"w{i}") for i in range(N_JOBS)]
        assert sorted(lease.job_id for lease in leases) == sorted(
            f"job-{i}" for i in range(N_JOBS)
        )
        assert jq.claim("late") is None, "every job leased: nothing claimable"

    def test_heartbeat_extends_deadline(self, tmp_path):
        clock = FakeClock()
        jq = fresh_queue(tmp_path, "hb", clock)
        lease = jq.claim("w0")
        clock.advance(LEASE * 0.9)
        new_deadline = jq.heartbeat(lease)
        assert new_deadline == pytest.approx(clock.now + LEASE)
        clock.advance(LEASE * 0.9)  # past the original deadline, inside the new
        assert jq.status()[lease.job_id]["state"] == STATE_LEASED

    def test_expired_lease_requeues_and_zombie_is_refused(self, tmp_path):
        clock = FakeClock()
        jq = fresh_queue(tmp_path, "zombie", clock)
        stale = jq.claim("w0")
        clock.advance(LEASE + 1)
        assert jq.status()[stale.job_id]["state"] == STATE_EXPIRED

        # Another worker claims the expired job; the claim targets the SAME
        # job at a higher epoch.
        claims = [jq.claim("w1") for _ in range(N_JOBS)]
        successor = next(c for c in claims if c.job_id == stale.job_id)
        assert successor.epoch == stale.epoch + 1
        assert successor.requeues == 1

        # The zombie's stale lease is dead: heartbeat raises, complete is a
        # no-op returning False, and the successor's completion wins.
        with pytest.raises(LeaseLost):
            jq.heartbeat(stale)
        assert jq.complete(stale, {"who": "zombie"}) is False
        assert jq.complete(successor, {"who": "successor"}) is True
        terminal = jq.status()[stale.job_id]["terminal"]
        assert terminal["result"] == {"who": "successor"}

    def test_release_requeues_without_burning_budget(self, tmp_path):
        clock = FakeClock()
        jq = fresh_queue(tmp_path, "release", clock)
        for round_number in range(MAX_ATTEMPTS * 3):
            lease = jq.claim("w0")
            assert lease is not None, f"round {round_number}: job must requeue"
            assert lease.job_id == "job-0"
            jq.release(lease, {"status": "running", "interrupted": True})
        state = jq.status()["job-0"]
        assert state["state"] == STATE_RELEASED
        assert state["burned"] == 0, "cooperative releases never burn budget"

    def test_retry_budget_exhaustion_publishes_failed(self, tmp_path):
        clock = FakeClock()
        jq = fresh_queue(tmp_path, "budget", clock)
        for _ in range(MAX_ATTEMPTS):
            lease = jq.claim("w0")
            assert lease.job_id == "job-0"
            clock.advance(LEASE + 1)  # crash: no mark, lease expires
        # The next claim of this job observes the exhausted budget and
        # publishes the terminal failure instead of a new lease.
        next_lease = jq.claim("w0")
        assert next_lease is None or next_lease.job_id != "job-0"
        state = jq.status()["job-0"]
        assert state["state"] == STATE_FAILED
        assert state["burned"] == MAX_ATTEMPTS
        assert state["terminal"]["status"] == STATE_FAILED

    def test_resolve_expired_publishes_exhausted_failures(self, tmp_path):
        clock = FakeClock()
        jq = fresh_queue(tmp_path, "resolve", clock, max_attempts=1)
        lease = jq.claim("w0")
        clock.advance(LEASE + 1)
        failed = jq.resolve_expired()
        assert failed == [lease.job_id]
        assert jq.status()[lease.job_id]["state"] == STATE_FAILED

    def test_paused_queue_refuses_claims(self, tmp_path):
        clock = FakeClock()
        jq = fresh_queue(tmp_path, "pause", clock)
        jq.pause()
        assert jq.claim("w0") is None

    def test_terminal_record_is_immutable(self, tmp_path):
        clock = FakeClock()
        jq = fresh_queue(tmp_path, "immutable", clock)
        lease = jq.claim("w0")
        assert jq.complete(lease, {"round": 1}) is True
        assert jq.fail(lease, "late failure") is False
        assert jq.status()[lease.job_id]["terminal"]["result"] == {"round": 1}


# --------------------------------------------------------------------- #
# Randomized interleavings
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(25))
def test_random_interleavings_never_lose_or_duplicate(tmp_path, seed):
    """Any schedule of claim/heartbeat/expire/release/complete/crash drains
    to exactly one terminal record per job, with invariants held throughout."""
    rng = random.Random(seed)
    clock = FakeClock()
    jq = fresh_queue(tmp_path, f"rand{seed}", clock)
    workers = {f"w{i}": None for i in range(3)}  # worker -> held lease
    completions = {f"job-{i}": 0 for i in range(N_JOBS)}
    first_terminal = {}

    def check_invariants():
        status = jq.status()
        assert set(status) == set(completions), "jobs must never be lost"
        for job_id, state in status.items():
            assert state["burned"] <= MAX_ATTEMPTS
            if job_id in first_terminal:
                assert state["state"] == first_terminal[job_id]["status"], (
                    "terminal records are immutable"
                )
        live = [
            w for w, lease in workers.items()
            if lease is not None
            and status[lease.job_id]["state"] == STATE_LEASED
            and status[lease.job_id]["owner"] == w
        ]
        held_jobs = [workers[w].job_id for w in live]
        assert len(held_jobs) == len(set(held_jobs)), (
            "a job can have at most one live lease"
        )

    for _ in range(400):
        if jq.outstanding() == 0:
            break
        op = rng.choice(("claim", "heartbeat", "complete", "fail",
                         "release", "crash", "tick", "resolve"))
        worker = rng.choice(sorted(workers))
        lease = workers[worker]
        if op == "claim" and lease is None:
            workers[worker] = jq.claim(worker)
        elif op == "heartbeat" and lease is not None:
            try:
                jq.heartbeat(lease)
            except LeaseLost:
                workers[worker] = None
        elif op == "complete" and lease is not None:
            if jq.complete(lease, {"by": worker}):
                completions[lease.job_id] += 1
                record = jq.status()[lease.job_id]["terminal"]
                first_terminal.setdefault(lease.job_id, record)
            workers[worker] = None
        elif op == "fail" and lease is not None:
            if jq.fail(lease, "injected failure"):
                record = jq.status()[lease.job_id]["terminal"]
                first_terminal.setdefault(lease.job_id, record)
            workers[worker] = None
        elif op == "release" and lease is not None:
            try:
                jq.release(lease, {"status": "running"})
            except LeaseLost:
                pass
            workers[worker] = None
        elif op == "crash" and lease is not None:
            workers[worker] = None  # vanish without releasing: lease expires
        elif op == "tick":
            clock.advance(rng.choice((1.0, LEASE / 2, LEASE + 1)))
        elif op == "resolve":
            for job_id in jq.resolve_expired():
                first_terminal.setdefault(job_id, jq.status()[job_id]["terminal"])
        check_invariants()

    # Drain deterministically: completions and budget failures both count as
    # terminal; nothing may be left outstanding forever.
    guard = 0
    while jq.outstanding() > 0:
        guard += 1
        assert guard < 200, "queue failed to drain"
        clock.advance(LEASE + 1)
        jq.resolve_expired()
        lease = jq.claim("drain")
        if lease is not None:
            assert jq.complete(lease, {"by": "drain"})
            completions[lease.job_id] += 1
        check_invariants()

    status = jq.status()
    for job_id, state in status.items():
        assert state["state"] in (STATE_DONE, STATE_FAILED)
        assert completions[job_id] <= 1, "no job may ever complete twice"
        if state["state"] == STATE_DONE:
            assert completions[job_id] == 1


@pytest.mark.parametrize("seed", range(10))
def test_random_crash_heavy_schedules_drain_within_budget(tmp_path, seed):
    """Crash-only schedules: every job ends done or failed, and failed jobs
    burned exactly their budget — never more."""
    rng = random.Random(1000 + seed)
    clock = FakeClock()
    jq = fresh_queue(tmp_path, f"crash{seed}", clock)
    for _ in range(200):
        if jq.outstanding() == 0:
            break
        lease = jq.claim("w")
        if lease is None:
            clock.advance(LEASE + 1)
            jq.resolve_expired()
            continue
        if rng.random() < 0.6:
            clock.advance(LEASE + 1)  # crash mid-lease
        else:
            jq.complete(lease, {"ok": True})
    for state in jq.status().values():
        assert state["state"] in (STATE_DONE, STATE_FAILED)
        if state["state"] == STATE_FAILED:
            assert state["burned"] == MAX_ATTEMPTS


def test_jobs_survive_reopen_mid_flight(tmp_path):
    """A queue reopened from disk (a second worker process) sees the same
    jobs, leases and terminals — the directory IS the state."""
    clock = FakeClock()
    jq = fresh_queue(tmp_path, "reopen", clock)
    lease = jq.claim("w0")
    jq.complete(jq.claim("w0"), {"n": 2})

    other = JobQueue(tmp_path / "reopen", clock=clock)
    status = other.status()
    assert status[lease.job_id]["state"] == STATE_LEASED
    assert sum(1 for s in status.values() if s["state"] == STATE_DONE) == 1
    assert sum(1 for s in status.values() if s["state"] == STATE_PENDING) == N_JOBS - 2


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

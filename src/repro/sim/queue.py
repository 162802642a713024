"""File-backed, lease-based job queue for sweep points (and future tenants).

The sweep manifest (PR 4) is a tiny scheduler database maintained by one
parent process.  This module generalizes it into a *multi-worker* queue that
needs no lock server and no shared memory: every operation is an atomic
filesystem primitive, so the claimants can be threads, processes or — later —
hosts on a shared filesystem.

Layout (all under one queue directory)::

    jobs.json                 the immutable job list (written once at create)
    claims/<id>/0000.json     epoch-0 claim of job <id> (atomic, first wins)
    claims/<id>/0000.hb.json  heartbeat extending epoch 0's lease deadline
    claims/<id>/0000.mark.json  owner's release marker ("gave the job back")
    done/<id>.json            terminal record (atomic, first wins, immutable)
    paused                    claim gate: while present, claims return None

Protocol
--------
A worker **claims** the next available job by atomically creating the job's
next *epoch file* — a hardlink of a fully-written temp file, so creation is
both atomic and exclusive (the second claimant gets ``FileExistsError`` and
moves on).  The claim carries a **lease deadline**; the worker extends it by
atomically rewriting the epoch's heartbeat file.  A lease whose deadline
passes without a heartbeat is **expired**: the next claimant starts epoch
``e+1`` — same job, fresh lease — which is how crashed workers (SIGKILL,
OOM, power loss) get their work requeued.  A worker interrupted cooperatively
(SIGTERM → checkpoint) instead writes a **release marker**, which requeues
the job *without* burning retry budget.

Each expired epoch burns one attempt; once ``max_attempts`` epochs have
expired the job is marked terminally ``failed`` (by whoever notices — a
claimant or the parent's :meth:`JobQueue.resolve_expired`) so one poisoned
point can never take down a grid.  Success and failure are both published as
a **terminal record** in ``done/`` with the same first-wins atomic-link
write, which gives the queue its core invariant: *no job completes twice*,
even if an expired-lease zombie and a fresh claimant race to finish the same
point (the loser's publish is a no-op, and both produced bitwise-identical
results anyway — see ``docs/serve.md``).

Expiry is decided by wall-clock deadlines read at claim time; a zombie whose
heartbeat lands *before* the successor's claim revives its lease (the
claimant then sees an unexpired deadline), and one whose heartbeat lands
*after* observes the successor epoch on its next beat and gets
:class:`LeaseLost`.  The only overlap window is one heartbeat interval, and
the terminal-record invariant makes it harmless.

Telemetry: every transition moves a ``dist.queue.*`` counter in the calling
process's :data:`repro.telemetry.metrics.REGISTRY` (claims, claim_conflicts,
heartbeats, expirations, requeues, releases, completions{status=…},
retries_exhausted) — see ``docs/observability.md``.

The clock is injectable (``clock=``) so property tests can drive
claim/heartbeat/expire interleavings deterministically.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.sim.io import FORMAT_VERSION, atomic_write_json, check_payload
from repro.telemetry.metrics import REGISTRY

#: Queue job states (terminal states reuse the sweep manifest vocabulary).
STATE_PENDING = "pending"
STATE_LEASED = "leased"
STATE_RELEASED = "released"
STATE_EXPIRED = "expired"
STATE_DONE = "done"
STATE_FAILED = "failed"

_EPOCH_RE = re.compile(r"^(\d{4})\.json$")


class QueueError(RuntimeError):
    """A structural queue problem (bad directory, corrupt jobs file)."""


class LeaseLost(QueueError):
    """The lease was superseded (expired and re-claimed) or the job ended."""


@dataclass
class Job:
    """One unit of work: an opaque payload plus resume permission."""

    id: str
    payload: Dict[str, Any]
    allow_resume: bool = False


@dataclass
class Lease:
    """A live claim on one job epoch.  Extend with :meth:`JobQueue.heartbeat`."""

    job_id: str
    epoch: int
    owner: str
    deadline: float
    payload: Dict[str, Any] = field(default_factory=dict)
    allow_resume: bool = False
    #: Epochs that ran before this one (0 = first try).
    requeues: int = 0
    #: Expired epochs that burned retry budget before this claim.
    attempt: int = 0


def _write_json_exclusive(path: str, payload: Dict[str, Any]) -> bool:
    """Atomically create ``path`` with ``payload``; ``False`` if it exists.

    The file is fully written and fsynced under a temp name, then hardlinked
    into place: readers never observe a torn file, and of N racing writers
    exactly one wins (the rest get ``FileExistsError`` from ``os.link``).
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp_path, path)
            return True
        except FileExistsError:
            return False
    finally:
        os.unlink(tmp_path)


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    """Read a JSON file; ``None`` if missing (all queue writes are atomic)."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


class JobQueue:
    """A lease-based work queue over a directory (see the module docstring).

    Parameters
    ----------
    directory:
        A queue directory previously populated by :meth:`create`.
    clock:
        Wall-clock source for lease deadlines (injectable for tests).
    """

    JOBS_FILENAME = "jobs.json"

    def __init__(
        self, directory: Union[str, os.PathLike], clock: Callable[[], float] = time.time
    ) -> None:
        self.directory = os.fspath(directory)
        self._clock = clock
        payload = _read_json(os.path.join(self.directory, self.JOBS_FILENAME))
        if payload is None:
            raise QueueError(
                f"no job queue at {self.directory!r}; create one with JobQueue.create"
            )
        check_payload(payload, "JobQueue")
        self.lease_seconds = float(payload["lease_seconds"])
        self.max_attempts = int(payload["max_attempts"])
        self.jobs: List[Job] = [
            Job(
                id=str(entry["id"]),
                payload=entry.get("payload") or {},
                allow_resume=bool(entry.get("allow_resume")),
            )
            for entry in payload["jobs"]
        ]
        self._by_id = {job.id: job for job in self.jobs}
        #: Jobs already observed terminal (immutable once published).
        self._terminal_cache: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        directory: Union[str, os.PathLike],
        jobs: List[Dict[str, Any]],
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.time,
    ) -> "JobQueue":
        """Initialize a fresh queue directory holding ``jobs``.

        Each job dict needs an ``"id"`` (unique, filesystem-safe) and may
        carry an opaque ``"payload"`` and ``"allow_resume"``.  The job list
        is immutable after creation — a queue serves exactly one batch.
        """
        directory = os.fspath(directory)
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        entries = []
        seen = set()
        for job in jobs:
            job_id = str(job["id"])
            if job_id in seen:
                raise ValueError(f"duplicate job id {job_id!r}")
            if not job_id or "/" in job_id or job_id.startswith("."):
                raise ValueError(f"job id {job_id!r} is not filesystem-safe")
            seen.add(job_id)
            entries.append({
                "id": job_id,
                "payload": job.get("payload") or {},
                "allow_resume": bool(job.get("allow_resume")),
            })
        os.makedirs(os.path.join(directory, "done"), exist_ok=True)
        for entry in entries:
            os.makedirs(os.path.join(directory, "claims", entry["id"]), exist_ok=True)
        atomic_write_json(
            os.path.join(directory, cls.JOBS_FILENAME),
            {
                "format_version": FORMAT_VERSION,
                "type": "JobQueue",
                "lease_seconds": float(lease_seconds),
                "max_attempts": int(max_attempts),
                "jobs": entries,
            },
        )
        return cls(directory, clock=clock)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def _claims_dir(self, job_id: str) -> str:
        return os.path.join(self.directory, "claims", job_id)

    def _epoch_path(self, job_id: str, epoch: int) -> str:
        return os.path.join(self._claims_dir(job_id), f"{epoch:04d}.json")

    def _heartbeat_path(self, job_id: str, epoch: int) -> str:
        return os.path.join(self._claims_dir(job_id), f"{epoch:04d}.hb.json")

    def _mark_path(self, job_id: str, epoch: int) -> str:
        return os.path.join(self._claims_dir(job_id), f"{epoch:04d}.mark.json")

    def _terminal_path(self, job_id: str) -> str:
        return os.path.join(self.directory, "done", f"{job_id}.json")

    @property
    def _pause_path(self) -> str:
        return os.path.join(self.directory, "paused")

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #
    def _terminal(self, job_id: str) -> Optional[Dict[str, Any]]:
        cached = self._terminal_cache.get(job_id)
        if cached is not None:
            return cached
        record = _read_json(self._terminal_path(job_id))
        if record is not None:
            self._terminal_cache[job_id] = record
        return record

    def _epochs(self, job_id: str) -> List[int]:
        try:
            names = os.listdir(self._claims_dir(job_id))
        except FileNotFoundError:
            return []
        epochs = []
        for name in names:
            match = _EPOCH_RE.match(name)
            if match:
                epochs.append(int(match.group(1)))
        return sorted(epochs)

    def _epoch_deadline(self, job_id: str, epoch: int) -> float:
        """The epoch's live deadline: its newest heartbeat, else its claim."""
        beat = _read_json(self._heartbeat_path(job_id, epoch))
        if beat is not None:
            return float(beat["deadline"])
        claim = _read_json(self._epoch_path(job_id, epoch))
        if claim is None:  # linked-but-unreadable cannot happen; be safe
            return float("-inf")
        return float(claim["deadline"])

    def _job_state(self, job_id: str, now: float) -> Dict[str, Any]:
        """One job's current queue state (terminal / leased / claimable)."""
        terminal = self._terminal(job_id)
        epochs = self._epochs(job_id)
        burned = 0
        released_outcome = None
        for epoch in epochs:
            if _read_json(self._mark_path(job_id, epoch)) is None:
                # No release marker: if it is a *prior* epoch it necessarily
                # ended by expiring; the current epoch burns only once its
                # deadline passes.
                if epoch != epochs[-1] or self._epoch_deadline(job_id, epoch) <= now:
                    burned += 1
        if terminal is not None:
            return {
                "state": terminal["status"],
                "epochs": len(epochs),
                "burned": burned,
                "owner": terminal.get("owner"),
                "terminal": terminal,
            }
        state = STATE_PENDING
        owner = None
        deadline = None
        if epochs:
            current = epochs[-1]
            claim = _read_json(self._epoch_path(job_id, current)) or {}
            owner = claim.get("owner")
            mark = _read_json(self._mark_path(job_id, current))
            deadline = self._epoch_deadline(job_id, current)
            if mark is not None:
                state = STATE_RELEASED
                released_outcome = mark.get("outcome")
            elif deadline > now:
                state = STATE_LEASED
            else:
                state = STATE_EXPIRED
        return {
            "state": state,
            "epochs": len(epochs),
            "burned": burned,
            "owner": owner,
            "deadline": deadline,
            "released_outcome": released_outcome,
        }

    def status(self) -> Dict[str, Dict[str, Any]]:
        """A point-in-time state dict for every job (in job order)."""
        now = self._clock()
        return {job.id: self._job_state(job.id, now) for job in self.jobs}

    def outstanding(self) -> int:
        """How many jobs have not reached a terminal state."""
        return sum(1 for job in self.jobs if self._terminal(job.id) is None)

    # ------------------------------------------------------------------ #
    # Claim / heartbeat / release / complete
    # ------------------------------------------------------------------ #
    def claim(self, owner: str) -> Optional[Lease]:
        """Claim the first available job, or ``None`` if nothing is claimable.

        Scans jobs in creation order, so grids drain in expansion order
        whenever workers are free.  Claiming may, as a side effect, publish
        a terminal ``failed`` record for a job whose retry budget is gone.
        """
        if self.paused():
            return None
        now = self._clock()
        for job in self.jobs:
            if job.id in self._terminal_cache:
                continue
            state = self._job_state(job.id, now)
            if state["state"] in (STATE_DONE, STATE_FAILED, STATE_LEASED):
                continue
            if state["burned"] >= self.max_attempts:
                self._fail_exhausted(job.id, state)
                continue
            epoch = state["epochs"]
            deadline = now + self.lease_seconds
            created = _write_json_exclusive(
                self._epoch_path(job.id, epoch),
                {
                    "owner": owner,
                    "epoch": epoch,
                    "claimed_at": now,
                    "deadline": deadline,
                    "attempt": state["burned"],
                },
            )
            if not created:
                REGISTRY.counter("dist.queue.claim_conflicts").add()
                continue
            REGISTRY.counter("dist.queue.claims").add()
            if epoch > 0:
                REGISTRY.counter("dist.queue.requeues").add()
                if state["state"] == STATE_EXPIRED:
                    REGISTRY.counter("dist.queue.expirations").add()
            return Lease(
                job_id=job.id,
                epoch=epoch,
                owner=owner,
                deadline=deadline,
                payload=job.payload,
                allow_resume=job.allow_resume,
                requeues=epoch,
                attempt=state["burned"],
            )
        return None

    def heartbeat(self, lease: Lease) -> float:
        """Extend the lease's deadline; raises :class:`LeaseLost` if superseded."""
        now = self._clock()
        if self._terminal(lease.job_id) is not None:
            raise LeaseLost(f"job {lease.job_id!r} already reached a terminal state")
        epochs = self._epochs(lease.job_id)
        if not epochs or epochs[-1] != lease.epoch:
            raise LeaseLost(
                f"lease on {lease.job_id!r} epoch {lease.epoch} was superseded "
                f"by epoch {epochs[-1] if epochs else '?'}"
            )
        deadline = now + self.lease_seconds
        atomic_write_json(
            self._heartbeat_path(lease.job_id, lease.epoch),
            {"owner": lease.owner, "epoch": lease.epoch, "at": now, "deadline": deadline},
        )
        REGISTRY.counter("dist.queue.heartbeats").add()
        lease.deadline = deadline
        return deadline

    def release(self, lease: Lease, outcome: Optional[Dict[str, Any]] = None) -> None:
        """Give the job back cooperatively (no retry budget burned).

        Written when a worker is interrupted (SIGTERM → the point
        checkpointed): the job becomes claimable again and the next epoch
        resumes from the checkpoint.  ``outcome`` (e.g. the interrupted
        point's partial metrics) is recorded on the marker for observers.
        """
        _write_json_exclusive(
            self._mark_path(lease.job_id, lease.epoch),
            {
                "reason": "released",
                "owner": lease.owner,
                "at": self._clock(),
                "outcome": outcome,
            },
        )
        REGISTRY.counter("dist.queue.releases").add()

    def complete(self, lease: Lease, result: Optional[Dict[str, Any]] = None) -> bool:
        """Publish the job's terminal ``done`` record.  First publisher wins.

        Returns ``False`` when another epoch already published a terminal
        record (the caller's work is then redundant — by construction it was
        bitwise identical — and must not be re-reported), or when the lease
        was superseded by a newer epoch: once a successor claimed the job,
        only the successor may publish its outcome, so a zombie can never
        "complete" a point a live worker is still running.
        """
        if self._superseded(lease):
            return False
        return self._publish_terminal(
            lease.job_id,
            {
                "status": STATE_DONE,
                "job": lease.job_id,
                "epoch": lease.epoch,
                "owner": lease.owner,
                "attempt": lease.attempt,
                "result": result,
            },
        )

    def fail(
        self,
        lease: Lease,
        error: str,
        result: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Publish a terminal ``failed`` record (deterministic point failure).

        Used for failures *of the job itself* (bad config, raising run) that
        retrying cannot fix; crashes of the worker never call this — they
        surface as lease expiry and consume retry budget instead.

        Refused (``False``) for superseded leases, like :meth:`complete`.
        """
        if self._superseded(lease):
            return False
        return self._publish_terminal(
            lease.job_id,
            {
                "status": STATE_FAILED,
                "job": lease.job_id,
                "epoch": lease.epoch,
                "owner": lease.owner,
                "attempt": lease.attempt,
                "error": error,
                "result": result,
            },
        )

    def _superseded(self, lease: Lease) -> bool:
        """Whether a newer epoch exists for the lease's job (zombie check)."""
        epochs = self._epochs(lease.job_id)
        if bool(epochs) and epochs[-1] != lease.epoch:
            self._terminal(lease.job_id)  # refresh: the successor may be done
            return True
        return False

    def _publish_terminal(self, job_id: str, record: Dict[str, Any]) -> bool:
        won = _write_json_exclusive(self._terminal_path(job_id), record)
        if won:
            self._terminal_cache[job_id] = record
            REGISTRY.counter(
                "dist.queue.completions", status=record["status"]
            ).add()
        else:
            self._terminal(job_id)  # refresh the cache with the winner
        return won

    def _fail_exhausted(self, job_id: str, state: Dict[str, Any]) -> None:
        won = self._publish_terminal(
            job_id,
            {
                "status": STATE_FAILED,
                "job": job_id,
                "epoch": state["epochs"] - 1,
                "owner": None,
                "attempt": state["burned"],
                "error": (
                    f"lease expired {state['burned']} times; "
                    f"retry budget ({self.max_attempts}) exhausted"
                ),
            },
        )
        if won:
            REGISTRY.counter("dist.queue.retries_exhausted").add()

    def resolve_expired(self) -> List[str]:
        """Fail jobs whose retry budget is exhausted; returns their ids.

        The parent calls this while polling so a grid converges even if no
        worker ever scans past the poisoned job again (e.g. every worker
        died).  Jobs with budget left are *not* touched here — they requeue
        lazily at the next claim.
        """
        failed = []
        now = self._clock()
        for job in self.jobs:
            if job.id in self._terminal_cache:
                continue
            state = self._job_state(job.id, now)
            if state["state"] == STATE_EXPIRED and state["burned"] >= self.max_attempts:
                self._fail_exhausted(job.id, state)
                failed.append(job.id)
        return failed

    # ------------------------------------------------------------------ #
    # Claim gating
    # ------------------------------------------------------------------ #
    def pause(self) -> None:
        """Gate new claims (in-flight leases keep running to completion)."""
        with open(self._pause_path, "w") as handle:
            handle.write("paused\n")

    def paused(self) -> bool:
        return os.path.exists(self._pause_path)

"""Parameter sweeps: fan one base RunSpec into a grid of resumable runs.

The paper's headline results (the Fig. 13/14 accuracy-vs-bond-dimension
curves) are grids of runs over ``(r, m, chi)``.  A :class:`SweepSpec` captures
such a grid declaratively: one base :class:`~repro.sim.spec.RunSpec` payload
plus an ``axes`` block of dotted-path overrides::

    sweep = SweepSpec.from_dict({
        "name": "fig13",
        "base": { ... any RunSpec payload ... },
        "axes": {"update.rank": [1, 2, 3], "contraction.bond": [4, 8]},
        "sweep_dir": "fig13-sweep",
        "jobs": 4,
    })
    result = Sweep(sweep).run()                 # or: python -m repro.sim sweep
    result = Sweep(sweep).run(resume=True)      # skip/resume after a crash

Expansion is deterministic: the axes expand as a product in declaration
order (last axis fastest), and an explicit ``points`` list of override dicts
(paired values, say) replaces ``axes`` entirely.  Every point gets a stable
name (``0003-rank2-bond8``), a per-run working directory ``<sweep_dir>/<point>/``
holding its checkpoints and a ``results.jsonl`` stream, and — unless its
overrides set ``seed`` — its own seed derived from the base seed via
:func:`repro.utils.rng.derive_rng`, so the whole grid is a pure function of
one integer.

The :class:`Sweep` driver executes the grid in-process (``jobs == 1``) or
through lease-queue worker processes (``jobs >= 2``: workers claim points
from a file-backed :class:`~repro.sim.queue.JobQueue` with heartbeat leases,
a crashed worker's lease expires and the point requeues), maintains an atomic
sweep-level manifest (``<sweep_dir>/manifest.json``, one status per point:
``pending`` / ``running`` / ``done`` / ``failed``), propagates SIGTERM/SIGINT
to workers (each in-flight run finishes its step, checkpoints and reports
``interrupted``), and on completion merges the per-point record streams into
one combined JSONL/JSON document through a
:class:`~repro.sim.sinks.SweepSink`.  Because each point rides the existing
checkpoint/resume machinery, a resumed sweep skips completed points,
continues interrupted ones float-for-float, and produces a combined document
bitwise identical to an uninterrupted sweep's.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import multiprocessing
import multiprocessing.connection
import os
import re
import shutil
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.sim.io import (
    FORMAT_VERSION,
    NpzPayloadStore,
    atomic_write_json,
    check_payload,
)
from repro.sim.queue import (
    STATE_DONE,
    STATE_FAILED,
    STATE_LEASED,
    STATE_RELEASED,
    JobQueue,
    LeaseLost,
)
from repro.sim.runner import Simulation
from repro.sim.sinks import SweepSink, make_sink
from repro.sim.spec import SPEC_VERSION, RunSpec, apply_spec_override, canonical_json
from repro.sim.upgrade import MANIFEST, SWEEP_SPEC, upgrade
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.trace import span as _span
from repro.utils.checks import positive_int
from repro.utils.rng import derive_rng

#: Manifest point statuses.
STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"

#: Filename of the sweep manifest inside ``sweep_dir``.
MANIFEST_FILENAME = "manifest.json"

#: A sweep progress event: ``{"event": "started"|"finished", "point": name,
#: "status": ..., ...}``.
SweepProgress = Callable[[Dict[str, Any]], None]


def derive_point_seed(root_seed: Optional[int], index: int) -> Optional[int]:
    """The derived child seed of sweep point ``index``.

    Uses the ``(root_seed, "sweep", index)`` substream of
    :func:`repro.utils.rng.derive_rng`; pinned by a golden regression test so
    existing sweep results can never silently reshuffle.  ``None`` root seeds
    stay ``None`` (non-reproducible runs stay non-reproducible).
    """
    if root_seed is None:
        return None
    return int(derive_rng(root_seed, "sweep", index).integers(1 << 63))


def _format_override(path: str, value: Any) -> str:
    """One filesystem-safe name fragment for an override, e.g. ``rank2``."""
    leaf = path.split(".")[-1]
    text = repr(value) if isinstance(value, float) else str(value)
    return re.sub(r"[^A-Za-z0-9.+_-]+", "-", f"{leaf}{text}").strip("-")


@dataclass
class SweepPoint:
    """One expanded grid point: its name, overrides and child RunSpec payload."""

    index: int
    name: str
    overrides: Dict[str, Any]
    payload: Dict[str, Any]

    @property
    def spec(self) -> RunSpec:
        return RunSpec.from_dict(self.payload)

    @property
    def results_path(self) -> str:
        return self.payload["results"]


@dataclass
class SweepSpec:
    """Declarative description of a parameter-sweep grid.

    Attributes
    ----------
    name:
        Sweep identifier; prefixes child run names.
    base:
        The base :class:`RunSpec` payload dict every point starts from.
    axes:
        Ordered mapping of dotted override path (see
        :func:`repro.sim.spec.apply_spec_override`) to the list of values it
        takes; the full grid is expanded (last axis fastest).
    points:
        Explicit list of override dicts replacing ``axes`` (mutually
        exclusive with it), e.g. for axes whose values go in pairs.
    sweep_dir:
        Working directory: per-point subdirectories, the manifest and (by
        default) the combined results document live here.
    results:
        Combined results document path (``.jsonl`` streams one record per
        line, anything else one JSON document); defaults to
        ``<sweep_dir>/results.jsonl``.
    jobs:
        Default worker count for :meth:`Sweep.run`: 1 runs the points
        in-process, ``>= 2`` spawns that many lease-queue workers.  Both
        produce bitwise-identical combined documents (same seeds, same merge
        order).  Every point runs its own :func:`derive_point_seed`
        substream of the base seed unless a ``"seed"`` axis or override sets
        it (a one-value ``"seed"`` axis runs every point at that seed).
    queue:
        Lease-queue tuning (read when ``jobs >= 2``): ``lease_seconds``
        (default 30; workers renew their leases every quarter of it),
        ``max_attempts`` (expired leases before the point is failed, default
        3), ``poll_seconds`` (claim/status poll interval, default 0.05), and the
        test-only ``fault`` knob ``{"job": <point name>, "mode": "sigkill" |
        "sigterm", "after_records": k, "epochs": [..] | "all"}`` making the
        worker kill itself mid-point deterministically (chaos tests).
    reference:
        Shared reference-payload slot: computed **once per sweep** in the
        parent, content-addressed under ``<sweep_dir>/shared/`` through the
        npz :class:`~repro.sim.io.PayloadStore`, surfaced in the manifest
        and as the leading ``{"reference": ...}`` row of the combined
        document.  Currently ``{"kind": "statevector"}`` (+ optional
        ``tau``/``n_steps``/``max_sites``): the exact statevector ITE
        baseline of the base spec's model (the Fig. 13 reference), instead
        of recomputing it per point.
    """

    name: str = "sweep"
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    points: Optional[List[Dict[str, Any]]] = None
    sweep_dir: str = "sweep"
    results: Optional[str] = None
    jobs: int = 1
    queue: Optional[Dict[str, Any]] = None
    reference: Optional[Dict[str, Any]] = None

    _QUEUE_KEYS = frozenset({"lease_seconds", "max_attempts", "poll_seconds", "fault"})
    _REFERENCE_KEYS = frozenset({"kind", "tau", "n_steps", "max_sites"})

    def __post_init__(self) -> None:
        if not isinstance(self.base, dict):
            raise ValueError(f"sweep base must be a RunSpec payload dict, got {type(self.base).__name__}")
        if self.points is not None and self.axes:
            raise ValueError('give either "axes" or an explicit "points" list, not both')
        for path, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ValueError(f"sweep axis {path!r} needs a non-empty list of values")
        if self.points is not None:
            if len(self.points) == 0:
                raise ValueError("an explicit points list must not be empty")
            for i, overrides in enumerate(self.points):
                if not isinstance(overrides, dict):
                    raise ValueError(f"sweep point {i} must be an override dict")
        self.jobs = positive_int(self.jobs, "jobs")
        if self.queue is not None:
            if not isinstance(self.queue, dict):
                raise ValueError(
                    f"queue config must be a dict, got {type(self.queue).__name__}"
                )
            unknown = set(self.queue) - self._QUEUE_KEYS
            if unknown:
                raise ValueError(
                    f"unknown queue config keys {sorted(unknown)}; "
                    f"known: {sorted(self._QUEUE_KEYS)}"
                )
        if self.reference is not None:
            if not isinstance(self.reference, dict):
                raise ValueError(
                    f"reference config must be a dict, got {type(self.reference).__name__}"
                )
            unknown = set(self.reference) - self._REFERENCE_KEYS
            if unknown:
                raise ValueError(
                    f"unknown reference config keys {sorted(unknown)}; "
                    f"known: {sorted(self._REFERENCE_KEYS)}"
                )
            if self.reference.get("kind") != "statevector":
                raise ValueError(
                    f'reference kind must be "statevector", '
                    f"got {self.reference.get('kind')!r}"
                )

    # ------------------------------------------------------------------ #
    # Dict / JSON round trip (mirrors RunSpec)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepSpec":
        payload = dict(upgrade(payload, SWEEP_SPEC))
        version = payload.pop("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported spec_version {version!r} (this build reads {SPEC_VERSION})"
            )
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown SweepSpec fields {sorted(unknown)}; known fields: {sorted(known)}"
            )
        return cls(**payload)

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike]) -> "SweepSpec":
        with open(os.fspath(path)) as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "base": copy.deepcopy(self.base),
            "axes": {path: list(values) for path, values in self.axes.items()},
            "points": copy.deepcopy(self.points),
            "sweep_dir": self.sweep_dir,
            "results": self.results,
            "jobs": self.jobs,
            "queue": copy.deepcopy(self.queue),
            "reference": copy.deepcopy(self.reference),
        }

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def override_sets(self) -> List[Dict[str, Any]]:
        """The per-point override dicts, in deterministic expansion order."""
        if self.points is not None:
            return [dict(overrides) for overrides in self.points]
        if not self.axes:
            return [{}]
        paths = list(self.axes)
        combos = itertools.product(*(self.axes[path] for path in paths))
        return [dict(zip(paths, combo)) for combo in combos]

    @property
    def combined_results_path(self) -> str:
        if self.results is not None:
            return self.results
        return os.path.join(self.sweep_dir, "results.jsonl")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.sweep_dir, MANIFEST_FILENAME)

    def expand(self) -> List[SweepPoint]:
        """Expand into named child points with payloads, dirs and seeds set.

        Deterministic: the same spec always yields the same point names,
        overrides and derived seeds, which is what lets a resumed sweep match
        its manifest against a fresh expansion.
        """
        base_seed = self.base.get("seed", 0)  # RunSpec's default seed
        points: List[SweepPoint] = []
        seen: Dict[str, int] = {}
        for index, overrides in enumerate(self.override_sets()):
            payload = copy.deepcopy(self.base)
            for path, value in overrides.items():
                apply_spec_override(payload, path, value)
            fragments = [f"{index:04d}"] + [
                _format_override(path, value) for path, value in overrides.items()
            ]
            name = "-".join(fragment for fragment in fragments if fragment)
            if name in seen:  # sanitization collisions get the index anyway
                raise ValueError(f"duplicate sweep point name {name!r}")
            seen[name] = index
            if "seed" not in overrides:
                payload["seed"] = derive_point_seed(base_seed, index)
            payload["name"] = f"{self.name}-{name}"
            point_dir = os.path.join(self.sweep_dir, name)
            payload["checkpoint_dir"] = os.path.join(point_dir, "checkpoints")
            payload["results"] = os.path.join(point_dir, "results.jsonl")
            # Validate eagerly so a bad axis fails at expansion, not mid-grid.
            RunSpec.from_dict(payload)
            points.append(
                SweepPoint(index=index, name=name, overrides=dict(overrides), payload=payload)
            )
        return points


@dataclass
class SweepResult:
    """Outcome of a (possibly interrupted) sweep."""

    spec: SweepSpec
    statuses: Dict[str, str]
    records: List[Dict[str, Any]] = field(default_factory=list)
    interrupted: bool = False
    stop_reason: Optional[str] = None
    completed: bool = False
    combined_path: Optional[str] = None
    manifest_path: Optional[str] = None
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    #: The shared reference payload (``spec.reference``), when configured.
    reference: Optional[Dict[str, Any]] = None

    @property
    def failed(self) -> List[str]:
        return [name for name, status in self.statuses.items() if status == STATUS_FAILED]

    def point_records(self, name: str) -> List[Dict[str, Any]]:
        """The combined-document records of one point (tag stripped)."""
        return [
            {key: value for key, value in record.items() if key != "point"}
            for record in self.records
            if record.get("point") == name
        ]


# --------------------------------------------------------------------- #
# Per-point execution (shared by the serial path and queue workers)
# --------------------------------------------------------------------- #
def _execute_point(
    payload: Dict[str, Any],
    allow_resume: bool,
    count_flops: bool = False,
    register: Optional[Callable[[Optional[Simulation]], None]] = None,
    record_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run one child spec to completion/interruption; never raises."""
    flop_counter = None
    try:
        spec = RunSpec.from_dict(payload)
        if count_flops and isinstance(spec.backend, str) and spec.backend in ("numpy", "np"):
            from repro.backends import get_backend
            from repro.utils.flops import FlopCounter

            flop_counter = FlopCounter()
            spec.backend = get_backend(spec.backend, flop_counter=flop_counter)
        simulation = Simulation(spec)
    except Exception as exc:  # config/build error: report, don't kill the grid
        return {"status": STATUS_FAILED, "error": f"{type(exc).__name__}: {exc}"}
    if register is not None:
        register(simulation)
    resume_run = bool(allow_resume) and simulation.latest_checkpoint() is not None
    start = time.perf_counter()
    # One registry snapshot/delta replaces the old hand-rolled per-counter
    # bookkeeping: whatever global counters the point moves show up in its
    # manifest metrics (workers each snapshot their own process's registry).
    registry_mark = REGISTRY.snapshot()
    try:
        with _span("sweep_point", point=spec.name):
            result = simulation.run(resume=resume_run, progress=record_progress)
    except Exception as exc:
        return {"status": STATUS_FAILED, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if register is not None:
            register(None)
    delta = REGISTRY.delta(registry_mark)
    metrics: Dict[str, Any] = {
        "wall_time_s": time.perf_counter() - start,
        "row_absorptions": int(delta.get("peps.row_absorptions", 0)),
        "ctm_moves": int(delta.get("peps.ctm_moves", 0)),
        "batched_contractions": int(delta.get("peps.batched_contractions", 0)),
        "strip_cache_hits": int(delta.get("peps.strip_cache_hits", 0)),
        "strip_cache_misses": int(delta.get("peps.strip_cache_misses", 0)),
    }
    if flop_counter is not None:
        metrics["flops"] = flop_counter.total
        metrics["flops_by_category"] = flop_counter.by_category()
    return {
        "status": STATUS_RUNNING if result.interrupted else STATUS_DONE,
        "interrupted": result.interrupted,
        "final_step": result.final_step,
        "n_records": len(result.records),
        "metrics": metrics,
    }


#: Worker-process state: the in-flight Simulation (for signal-handler stop
#: requests) and whether a stop was requested.
_WORKER_STATE: Dict[str, Any] = {"simulation": None, "stop": False}


def _worker_register(simulation: Optional[Simulation]) -> None:
    _WORKER_STATE["simulation"] = simulation
    # A signal that raced the registration must still reach the run.
    if simulation is not None and _WORKER_STATE["stop"]:
        simulation.request_stop()


def _worker_signal_handler(signum, frame) -> None:
    # Only set flags: the in-flight run finishes its step, writes one
    # off-schedule checkpoint and returns interrupted (the same contract as
    # the single-run CLI), then the worker loop exits before taking new work.
    _WORKER_STATE["stop"] = True
    simulation = _WORKER_STATE.get("simulation")
    if simulation is not None:
        simulation.request_stop()


# --------------------------------------------------------------------- #
# Parallel execution (jobs >= 2): lease-claiming worker processes
# --------------------------------------------------------------------- #
def _fault_hook(fault: Optional[Dict[str, Any]], job_id: str, epoch: int):
    """Deterministic chaos knob: self-kill after K records of one point.

    ``fault = {"job": name, "mode": "sigkill"|"sigterm", "after_records": k,
    "epochs": [0] | "all"}`` — SIGKILL models a hard crash (the lease must
    expire and requeue), SIGTERM the cooperative checkpoint-and-release
    path.  Follows the distributed backend's ``WorkerFault`` precedent: the
    fault is part of the config so chaos tests are exactly reproducible.
    """
    if fault is None or fault.get("job") != job_id:
        return None
    epochs = fault.get("epochs", [0])
    if epochs != "all" and epoch not in epochs:
        return None
    mode = fault.get("mode", "sigkill")
    after = max(1, int(fault.get("after_records", 1)))
    seen = {"n": 0}

    def hook(record: Dict[str, Any]) -> None:
        seen["n"] += 1
        if seen["n"] >= after:
            os.kill(
                os.getpid(),
                signal.SIGKILL if mode == "sigkill" else signal.SIGTERM,
            )

    return hook


def _run_leased_point(
    jq: JobQueue,
    lease,
    count_flops: bool,
    fault: Optional[Dict[str, Any]],
) -> None:
    """Run one claimed point under a heartbeat (every quarter of the lease,
    at least every 10 ms), then publish its outcome.

    The point writes its records to an **epoch-scoped** results path
    (``results.jsonl.ep0001``); only a *completed* epoch atomically renames
    it onto the final path, immediately before publishing the first-wins
    terminal record.  A zombie epoch (lease expired, successor running) can
    therefore never tear the final results file: partial epoch files are
    never renamed, and racing renames of completed epochs carry bitwise-
    identical bytes.
    """
    payload = dict(lease.payload)
    final_results = payload["results"]
    # Keep the extension so the epoch file gets the same sink kind (.jsonl
    # stream vs .json document) as the final path it is renamed onto.
    root, ext = os.path.splitext(final_results)
    epoch_results = f"{root}.ep{lease.epoch:04d}{ext}"
    payload["results"] = epoch_results

    lost = threading.Event()
    stop_beats = threading.Event()
    interval = max(jq.lease_seconds / 4.0, 0.01)

    def beat() -> None:
        while not stop_beats.wait(interval):
            try:
                jq.heartbeat(lease)
            except LeaseLost:
                # Superseded: abandon the point (the successor owns it now).
                lost.set()
                REGISTRY.counter("dist.queue.lease_lost").add()
                simulation = _WORKER_STATE.get("simulation")
                if simulation is not None:
                    simulation.request_stop()
                return
            except OSError:  # pragma: no cover - transient fs error
                continue

    beats = threading.Thread(target=beat, daemon=True)
    beats.start()
    try:
        with _span("queue_point", point=lease.job_id, epoch=lease.epoch):
            outcome = _execute_point(
                payload,
                # Requeued epochs always resume: epoch 0 may have
                # checkpointed before its worker died.
                lease.allow_resume or lease.epoch > 0,
                count_flops=count_flops,
                register=_worker_register,
                record_progress=_fault_hook(fault, lease.job_id, lease.epoch),
            )
    finally:
        stop_beats.set()
        beats.join(timeout=interval + 5.0)
    outcome["queue"] = {
        "epoch": lease.epoch,
        "attempt": lease.attempt,
        "requeues": lease.requeues,
        "owner": lease.owner,
    }
    if lost.is_set():
        return
    if outcome["status"] == STATUS_DONE:
        try:
            os.replace(epoch_results, final_results)
        except FileNotFoundError:
            # A successor completed first and swept our epoch file while we
            # raced it; its terminal record already carries this outcome.
            return
        jq.complete(lease, outcome)
        # Sweep partial epoch files from crashed prior epochs: they never
        # touch the final path, but leaving them around would look like lost
        # results.  Best-effort — a racing unlink is fine either way.
        directory = os.path.dirname(final_results) or "."
        prefix = os.path.basename(root) + ".ep"
        for name in os.listdir(directory):
            if name.startswith(prefix) and name.endswith(ext):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass
    elif outcome["status"] == STATUS_FAILED:
        jq.fail(lease, outcome.get("error") or "point failed", result=outcome)
    else:  # interrupted: checkpointed, give the lease back without burn
        try:
            os.unlink(epoch_results)
        except FileNotFoundError:  # pragma: no cover - interrupted pre-open
            pass
        jq.release(lease, outcome)


def _queue_worker(
    queue_dir: str,
    worker_index: int,
    poll_seconds: float,
    count_flops: bool,
    fault: Optional[Dict[str, Any]],
    closing,
) -> None:
    """Queue worker: claim points until the grid drains, pauses or stops."""
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _worker_signal_handler)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    jq = JobQueue(queue_dir)
    owner = f"worker-{worker_index}:pid{os.getpid()}"
    while not _WORKER_STATE["stop"]:
        if jq.paused():
            break
        lease = jq.claim(owner)
        if lease is None:
            if jq.outstanding() == 0:
                break
            closing.wait(poll_seconds)  # the parent sets it at shutdown
            continue
        _run_leased_point(jq, lease, count_flops, fault)


class Sweep:
    """Driver executing a :class:`SweepSpec` grid with manifest + resume.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` (or plain dict parsed with
        :meth:`SweepSpec.from_dict`).
    """

    def __init__(self, spec: Union[SweepSpec, Dict[str, Any]]) -> None:
        self.spec = spec if isinstance(spec, SweepSpec) else SweepSpec.from_dict(spec)
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._stop_requested = False
        self._current_simulation: Optional[Simulation] = None
        self._uses_queue = False
        self._reference: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # External stop requests (preemption / signal handling)
    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        """Stop dispatching new points and interrupt the in-flight ones.

        Safe to call from a signal handler.  Serial runs forward the request
        to the current :class:`Simulation`; parallel runs see the flag at
        their next poll, pause the queue and SIGTERM every live worker,
        whose handler does the same.  In-flight points finish their step,
        checkpoint and report ``interrupted``; the sweep resumes them with
        ``resume=True`` later.
        """
        self._stop_requested = True
        simulation = self._current_simulation
        if simulation is not None:
            simulation.request_stop()

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #
    def _write_manifest(self) -> str:
        payload = {
            "format_version": FORMAT_VERSION,
            "type": "SweepManifest",
            "sweep": self.spec.name,
            "spec": self.spec.to_dict(),
            "points": list(self._entries.values()),
        }
        if self._uses_queue:
            payload["queue"] = self._queue_config()
        if self._reference is not None:
            payload["reference"] = self._reference
        return atomic_write_json(self.spec.manifest_path, payload)

    @staticmethod
    def load_manifest(path: Union[str, os.PathLike]) -> Dict[str, Any]:
        """Load and validate a sweep manifest document."""
        with open(os.fspath(path)) as handle:
            payload = upgrade(json.load(handle), MANIFEST)
        check_payload(payload, "SweepManifest")
        return payload

    def _fresh_entries(self, points: List[SweepPoint]) -> Dict[str, Dict[str, Any]]:
        return {
            point.name: {
                "name": point.name,
                "index": point.index,
                "overrides": dict(point.overrides),
                "seed": point.payload.get("seed"),
                "status": STATUS_PENDING,
                "final_step": None,
                "error": None,
                "metrics": None,
                "queue": None,
            }
            for point in points
        }

    def _resume_entries(self, points: List[SweepPoint]) -> Dict[str, Dict[str, Any]]:
        """Statuses from the on-disk manifest, validated against ``points``."""
        path = self.spec.manifest_path
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"no sweep manifest at {path!r}; run without --resume first"
            )
        saved = self.load_manifest(path)["points"]
        if len(saved) != len(points):
            raise ValueError(
                f"sweep manifest {path!r} holds {len(saved)} points but the spec "
                f"expands to {len(points)}; refusing to resume"
            )
        entries: Dict[str, Dict[str, Any]] = {}
        for point, entry in zip(points, saved):
            mismatched = (
                entry.get("name") != point.name
                or canonical_json(entry.get("overrides")) != canonical_json(point.overrides)
                or entry.get("seed") != point.payload.get("seed")
            )
            if mismatched:
                raise ValueError(
                    f"sweep manifest {path!r} was written by an incompatible spec "
                    f"(point {point.index}: {entry.get('name')!r} vs {point.name!r}); "
                    f"refusing to resume"
                )
            entry = dict(entry)
            if entry.get("status") == STATUS_DONE and not os.path.exists(point.results_path):
                entry["status"] = STATUS_PENDING  # results lost: run it again
            entries[point.name] = entry
        return entries

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        jobs: Optional[int] = None,
        resume: bool = False,
        stop_after_points: Optional[int] = None,
        count_flops: bool = False,
        progress: Optional[SweepProgress] = None,
        record_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> SweepResult:
        """Execute (or continue) the grid.

        Parameters
        ----------
        jobs:
            Worker count; ``None`` uses ``spec.jobs``.  1 runs the points
            in-process; ``>= 2`` spawns lease-queue workers, however many
            points remain.
        resume:
            Skip points the manifest marks ``done`` and resume interrupted
            ones from their checkpoints (float-for-float, like single runs).
        stop_after_points:
            Interrupt the sweep after this many points *finish in this
            session* — the deterministic crash knob for tests/CI (mirrors the
            single-run ``--stop-after``).
        count_flops:
            Attach a :class:`~repro.utils.flops.FlopCounter` to each point's
            NumPy backend and report per-point flops in the metrics.
        progress:
            Called with ``{"event": "started"|"finished", "point": ...}``
            dicts as points start and finish.
        record_progress:
            Serial mode only: forwarded to each point's
            :meth:`Simulation.run` so step records stream as they appear.
        """
        spec = self.spec
        jobs = spec.jobs if jobs is None else positive_int(jobs, "jobs")
        points = spec.expand()
        os.makedirs(spec.sweep_dir, exist_ok=True)
        # Deliberately no reset of _stop_requested (mirroring Simulation.run):
        # a signal that races the expansion/manifest setup must survive into
        # the dispatch loop so the sweep still stops before its first point.
        self._entries = self._resume_entries(points) if resume else self._fresh_entries(points)
        if spec.reference is not None:
            self._reference = self._ensure_reference()

        tasks: List[Tuple[str, Dict[str, Any], bool]] = [
            (point.name, point.payload, resume)
            for point in points
            if self._entries[point.name]["status"] != STATUS_DONE
        ]
        self._uses_queue = bool(tasks) and jobs >= 2
        self._write_manifest()
        interrupted = False
        stop_reason: Optional[str] = None
        if tasks:
            if jobs == 1:
                interrupted, stop_reason = self._run_serial(
                    tasks, stop_after_points, count_flops, progress, record_progress
                )
            else:
                interrupted, stop_reason = self._run_queue(
                    tasks, jobs, stop_after_points, count_flops, progress
                )

        statuses = {name: entry["status"] for name, entry in self._entries.items()}
        metrics = {
            name: entry["metrics"]
            for name, entry in self._entries.items()
            if entry.get("metrics")
        }
        errors = {
            name: entry["error"]
            for name, entry in self._entries.items()
            if entry.get("error")
        }
        completed = all(status == STATUS_DONE for status in statuses.values())
        combined_path: Optional[str] = None
        records: List[Dict[str, Any]] = []
        if completed:
            combined_path, records = self._write_combined(points)
        return SweepResult(
            spec=spec,
            statuses=statuses,
            records=records,
            interrupted=interrupted,
            stop_reason=stop_reason,
            completed=completed,
            combined_path=combined_path,
            manifest_path=spec.manifest_path,
            metrics=metrics,
            errors=errors,
            reference=self._reference,
        )

    # ------------------------------------------------------------------ #
    # Point transitions: ``_started`` / ``_finished`` update the manifest
    # entry and return the progress event; ``_publish`` writes the manifest
    # once for a batch of them, then emits the events.
    def _started(self, name: str) -> Dict[str, Any]:
        self._entries[name]["status"] = STATUS_RUNNING
        return {"event": "started", "point": name}

    def _finished(self, name: str, outcome: Dict[str, Any]) -> Dict[str, Any]:
        entry = self._entries[name]
        entry["status"] = outcome["status"]
        entry["final_step"] = outcome.get("final_step")
        entry["error"] = outcome.get("error")
        entry["metrics"] = outcome.get("metrics")
        return {
            "event": "finished",
            "point": name,
            "status": outcome["status"],
            "interrupted": bool(outcome.get("interrupted")),
            "error": outcome.get("error"),
        }

    def _publish(
        self, events: List[Dict[str, Any]], progress: Optional[SweepProgress]
    ) -> None:
        self._write_manifest()
        if progress is not None:
            for event in events:
                progress(event)

    def _register_simulation(self, simulation: Optional[Simulation]) -> None:
        self._current_simulation = simulation
        # A stop request that raced the registration must still reach the run.
        if simulation is not None and self._stop_requested:
            simulation.request_stop()

    def _run_serial(
        self,
        tasks: List[Tuple[str, Dict[str, Any], bool]],
        stop_after_points: Optional[int],
        count_flops: bool,
        progress: Optional[SweepProgress],
        record_progress: Optional[Callable[[Dict[str, Any]], None]],
    ) -> Tuple[bool, Optional[str]]:
        finished = 0
        for name, payload, allow_resume in tasks:
            if self._stop_requested:
                return True, "stop_requested"
            if stop_after_points is not None and finished >= stop_after_points:
                return True, "stop_after_points"
            self._publish([self._started(name)], progress)
            point_records = None
            if record_progress is not None:
                point_records = lambda record, _name=name: record_progress(
                    {"point": _name, **record}
                )
            outcome = _execute_point(
                payload,
                allow_resume,
                count_flops=count_flops,
                register=self._register_simulation,
                record_progress=point_records,
            )
            self._publish([self._finished(name, outcome)], progress)
            if outcome.get("interrupted"):
                return True, "stop_requested"
            if outcome["status"] == STATUS_DONE:
                finished += 1
        return False, None

    # ------------------------------------------------------------------ #
    # Lease-queue workers
    # ------------------------------------------------------------------ #
    def _queue_config(self) -> Dict[str, Any]:
        """The resolved lease-queue configuration (defaults applied)."""
        cfg = dict(self.spec.queue or {})
        lease_seconds = float(cfg.get("lease_seconds", 30.0))
        return {
            "dir": os.path.join(self.spec.sweep_dir, "queue"),
            "lease_seconds": lease_seconds,
            "max_attempts": int(cfg.get("max_attempts", 3)),
            "poll_seconds": float(cfg.get("poll_seconds", 0.05)),
            "fault": cfg.get("fault"),
        }

    def _run_queue(
        self,
        tasks: List[Tuple[str, Dict[str, Any], bool]],
        jobs: int,
        stop_after_points: Optional[int],
        count_flops: bool,
        progress: Optional[SweepProgress],
    ) -> Tuple[bool, Optional[str]]:
        """Execute the grid through the lease-based :class:`JobQueue`.

        The parent builds a fresh queue under ``<sweep_dir>/queue/`` (queue
        state is per-session; cross-session resume state lives in the
        manifest + checkpoints as before), spawns claim-loop workers, and
        polls queue state into the manifest.  Crashed workers are respawned
        while work remains; expired leases requeue lazily at claim time and
        :meth:`JobQueue.resolve_expired` fails budget-exhausted points.

        ``stop_after_points`` keeps its "no new point starts once stopping"
        determinism by submitting only the first K remaining points to the
        queue (workers self-claim, so a post-hoc stop could race an extra
        claim); requeued epochs of a submitted point never count extra.
        """
        # Deterministic stop knob: submit only the first K remaining points.
        submit = tasks if stop_after_points is None else tasks[: max(0, stop_after_points)]
        held_back = len(tasks) - len(submit)
        if not submit:
            return True, "stop_after_points"
        cfg = self._queue_config()
        queue_dir = cfg["dir"]
        if os.path.isdir(queue_dir):
            shutil.rmtree(queue_dir)
        jq = JobQueue.create(
            queue_dir,
            [
                {"id": name, "payload": payload, "allow_resume": allow_resume}
                for name, payload, allow_resume in submit
            ],
            lease_seconds=cfg["lease_seconds"],
            max_attempts=cfg["max_attempts"],
        )
        context = multiprocessing.get_context()
        n_workers = max(1, min(jobs, len(submit)))
        # Set at shutdown so idle workers leave at once instead of sleeping
        # out their poll interval while the parent waits to join them.
        closing = context.Event()
        spawned = 0

        def spawn():
            nonlocal spawned
            worker = context.Process(
                target=_queue_worker,
                args=(
                    queue_dir,
                    spawned,
                    cfg["poll_seconds"],
                    count_flops,
                    cfg["fault"],
                    closing,
                ),
                daemon=True,
            )
            spawned += 1
            worker.start()
            return worker

        workers = [spawn() for _ in range(n_workers)]
        # Crashed workers are replaced while work remains; the budget bounds
        # pathological crash loops (a fault that kills every epoch burns at
        # most max_attempts workers per point before the point is failed).
        respawn_budget = len(submit) * cfg["max_attempts"] + n_workers

        observed = {name: {"state": "pending", "epochs": 0} for name, _, _ in submit}
        stopping = False
        stop_reason: Optional[str] = None
        if held_back:
            stop_reason = "stop_after_points"

        def observe() -> None:
            """Fold queue-state transitions into one manifest update."""
            jq.resolve_expired()
            status = jq.status()
            changed = False
            events = []
            for name, _, _ in submit:
                state = status[name]
                prev = observed[name]
                if (state["state"], state["epochs"]) == (prev["state"], prev["epochs"]):
                    continue
                changed = True
                observed[name] = {"state": state["state"], "epochs": state["epochs"]}
                entry = self._entries[name]
                entry["queue"] = {
                    "state": state["state"],
                    "epochs": state["epochs"],
                    "requeues": max(0, state["epochs"] - 1),
                    "burned": state["burned"],
                    "owner": state.get("owner"),
                }
                if state["state"] == STATE_LEASED:
                    # First lease marks the point running; requeued epochs
                    # re-announce so retries are visible to observers.
                    events.append(self._started(name))
                elif state["state"] == STATE_RELEASED:
                    outcome = state.get("released_outcome") or {
                        "status": STATUS_RUNNING,
                        "interrupted": True,
                    }
                    events.append(self._finished(name, outcome))
                elif state["state"] in (STATE_DONE, STATE_FAILED):
                    terminal = state["terminal"]
                    outcome = dict(terminal.get("result") or {})
                    outcome["status"] = terminal["status"]
                    if terminal.get("error") and not outcome.get("error"):
                        outcome["error"] = terminal["error"]
                    events.append(self._finished(name, outcome))
                # STATE_EXPIRED keeps the manifest status "running": either
                # the next claim requeues it or the budget check fails it.
            if changed:
                self._publish(events, progress)

        try:
            while True:
                if self._stop_requested and not stopping:
                    stopping = True
                    stop_reason = "stop_requested"
                    jq.pause()
                    for worker in workers:
                        if worker.is_alive():
                            try:
                                os.kill(worker.pid, signal.SIGTERM)
                            except (OSError, ValueError):  # pragma: no cover
                                pass
                observe()
                if jq.outstanding() == 0:
                    break
                if stopping:
                    if not any(worker.is_alive() for worker in workers):
                        break
                else:
                    for i, worker in enumerate(workers):
                        if (
                            not worker.is_alive()
                            and respawn_budget > 0
                            and jq.outstanding() > 0
                        ):
                            worker.join(timeout=1)
                            workers[i] = spawn()
                            respawn_budget -= 1
                    if not any(worker.is_alive() for worker in workers):
                        stop_reason = stop_reason or "workers_exhausted"
                        break
                # One poll interval, cut short the moment a worker exits:
                # workers leave when the grid drains (or when they crash).
                multiprocessing.connection.wait(
                    [worker.sentinel for worker in workers if worker.is_alive()],
                    timeout=cfg["poll_seconds"],
                )
        finally:
            jq.pause()
            closing.set()
            for worker in workers:
                worker.join(timeout=60)
            for worker in workers:
                if worker.is_alive():  # pragma: no cover - stuck worker
                    worker.terminate()
                    worker.join(timeout=5)
            observe()  # transitions that landed after the last poll

        interrupted = bool(
            self._stop_requested or held_back or jq.outstanding() > 0
        )
        if interrupted:
            stop_reason = stop_reason or "stop_requested"
        return interrupted, stop_reason

    # ------------------------------------------------------------------ #
    # Shared reference payload
    # ------------------------------------------------------------------ #
    #: Keys of the reference surfaced in the combined document (the on-disk
    #: path and cache_hit flag are execution details, excluded so serial /
    #: parallel / cached runs stay bitwise identical).
    _REFERENCE_ROW_KEYS = (
        "kind", "key", "n_sites", "tau", "n_steps", "final_energy", "energies",
    )

    def _ensure_reference(self) -> Dict[str, Any]:
        """Compute (or load) the sweep's shared statevector reference.

        Content-addressed: the key hashes the physics inputs (model, lattice,
        tau, n_steps, initial state), so re-runs and resumed sweeps reuse the
        ``<sweep_dir>/shared/reference-<key>.npz`` payload instead of
        recomputing, and an edited base spec can never alias a stale
        reference.  Stored through the npz :class:`PayloadStore` (atomic,
        deterministic bytes); the float64 energy trace round-trips bitwise,
        so a cache hit surfaces the exact floats the miss computed.
        """
        import numpy as np

        cfg = dict(self.spec.reference or {})
        base = RunSpec.from_dict(copy.deepcopy(self.spec.base))
        n_sites = base.n_sites
        max_sites = int(cfg.get("max_sites", 12))
        if n_sites > max_sites:
            raise ValueError(
                f"statevector reference is dense ({2 ** n_sites} amplitudes): "
                f"n_sites={n_sites} exceeds max_sites={max_sites} "
                f'(raise {{"reference": {{"max_sites": ...}}}} explicitly to allow it)'
            )
        algorithm = base.algorithm or {}
        tau = float(cfg.get("tau", algorithm.get("tau", 0.05)))
        n_steps = int(cfg.get("n_steps", base.n_steps or 0))
        if n_steps < 1:
            raise ValueError("statevector reference needs n_steps >= 1")
        lattice = base.lattice if isinstance(base.lattice, dict) else list(base.lattice)
        key_doc = {
            "kind": "statevector",
            "lattice": lattice,
            "model": base.model,
            "tau": tau,
            "n_steps": n_steps,
            "initial_state": "plus",
        }
        key = hashlib.sha256(canonical_json(key_doc).encode()).hexdigest()[:16]
        path = os.path.join(self.spec.sweep_dir, "shared", f"reference-{key}.npz")
        cache_hit = os.path.exists(path)
        if cache_hit:
            store = NpzPayloadStore.open(path)
            try:
                trace = store.get({"npz": "reference/energies"})
            finally:
                store.close()
            energies = [float(value) for value in np.asarray(trace)]
            REGISTRY.counter("sweep.reference_cache", outcome="hit").add()
        else:
            from repro.statevector.statevector import StateVector

            hamiltonian = base.build_model()
            amplitudes = np.full(
                2 ** n_sites, 2.0 ** (-n_sites / 2.0), dtype=np.complex128
            )
            with _span("sweep_reference", key=key):
                final, trace = StateVector(
                    amplitudes, n_sites
                ).imaginary_time_evolution(hamiltonian, tau, n_steps)
            store = NpzPayloadStore(inline_threshold=0)
            store.put("reference/amplitudes", np.ascontiguousarray(final.amplitudes))
            store.put("reference/energies", np.asarray(trace, dtype=np.float64))
            store.save(path)
            energies = [float(value) for value in trace]
            REGISTRY.counter("sweep.reference_cache", outcome="miss").add()
        return {
            "kind": "statevector",
            "key": key,
            "path": path,
            "cache_hit": cache_hit,
            "n_sites": n_sites,
            "tau": tau,
            "n_steps": n_steps,
            "final_energy": energies[-1],
            "energies": energies,
        }

    # ------------------------------------------------------------------ #
    # Combined results
    # ------------------------------------------------------------------ #
    def _write_combined(
        self, points: List[SweepPoint]
    ) -> Tuple[str, List[Dict[str, Any]]]:
        """Merge per-point record streams into the combined document.

        Always written in expansion order from the per-point results files,
        so serial, parallel and resumed sweeps produce byte-identical
        documents.
        """
        path = self.spec.combined_results_path
        sink = SweepSink(make_sink(path))
        sink.open()
        try:
            if self._reference is not None:
                sink.write_reference(
                    {key: self._reference[key] for key in self._REFERENCE_ROW_KEYS}
                )
            for point in points:
                sink.write_point(point.name, _read_point_records(point.results_path))
        finally:
            sink.close()
        return path, sink.records


def _read_point_records(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def run_sweep(spec: Union[SweepSpec, Dict[str, Any]], **kwargs) -> SweepResult:
    """One-call convenience: build a :class:`Sweep` and run it (``kwargs``
    go to :meth:`Sweep.run`)."""
    return Sweep(spec).run(**kwargs)

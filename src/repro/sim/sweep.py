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
through worker processes it forks and feeds (``jobs >= 2``: one pipe per
worker, one point per worker at a time; a worker that dies mid-point has its
point requeued, and a worker whose parent dies stops), maintains an atomic
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
import signal
import threading
import time
from dataclasses import dataclass, field
from queue import SimpleQueue
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.sim.io import (
    FORMAT_VERSION,
    NpzPayloadStore,
    atomic_write_json,
    check_payload,
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

#: Worker states of a point in its manifest ``queue`` stats, besides the
#: statuses above: handed to a worker, handed back interrupted, and back in
#: line after its worker died.
_LEASED = "leased"
_RELEASED = "released"
_EXPIRED = "expired"

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
        in-process, ``>= 2`` forks that many workers.  Both
        produce bitwise-identical combined documents (same seeds, same merge
        order).  Every point runs its own :func:`derive_point_seed`
        substream of the base seed unless a ``"seed"`` axis or override sets
        it (a one-value ``"seed"`` axis runs every point at that seed).
    queue:
        Worker tuning (read when ``jobs >= 2``): ``max_attempts`` (worker
        crashes on one point before the point is failed, default 3),
        ``poll_seconds`` (how often the parent looks for a stop request,
        default 0.05), and the test-only ``fault`` knob ``{"job": <point
        name>, "mode": "sigkill" | "sigterm", "after_records": k, "epochs":
        [..] | "all"}`` making the worker kill itself mid-point
        deterministically (chaos tests).
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

    _QUEUE_KEYS = frozenset({"max_attempts", "poll_seconds", "fault"})
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
# Per-point execution (shared by the serial path and the workers)
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


#: Worker-process state: the in-flight Simulation (for stop requests) and
#: whether a stop was requested.
_WORKER_STATE: Dict[str, Any] = {"simulation": None, "stop": False}


def _worker_register(simulation: Optional[Simulation]) -> None:
    _WORKER_STATE["simulation"] = simulation
    # A stop that raced the registration must still reach the run.
    if simulation is not None and _WORKER_STATE["stop"]:
        simulation.request_stop()


def _stop_worker(*_signal) -> None:
    # Only set flags (this is also a signal handler): the in-flight run
    # finishes its step, writes one off-schedule checkpoint and returns
    # interrupted (the same contract as the single-run CLI), then the worker
    # exits instead of taking new work.
    _WORKER_STATE["stop"] = True
    simulation = _WORKER_STATE.get("simulation")
    if simulation is not None:
        simulation.request_stop()


# --------------------------------------------------------------------- #
# Parallel execution (jobs >= 2): workers the parent forks and feeds
# --------------------------------------------------------------------- #
def _fault_hook(fault: Optional[Dict[str, Any]], name: str, epoch: int):
    """Deterministic chaos knob: self-kill after K records of one point.

    ``fault = {"job": name, "mode": "sigkill"|"sigterm", "after_records": k,
    "epochs": [0] | "all"}``, an epoch being one dispatch of the point —
    SIGKILL models a hard crash (the parent requeues the point and burns an
    attempt), SIGTERM the cooperative checkpoint-and-requeue path.  Follows
    the distributed backend's ``WorkerFault`` precedent: the fault is part
    of the config so chaos tests are exactly reproducible.
    """
    if fault is None or fault.get("job") != name:
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


def _sweep_worker(conn, inherited, count_flops: bool, fault: Optional[Dict[str, Any]]) -> None:
    """Run each point the parent sends down ``conn``; answer with its outcome.

    A thread reads the pipe so that the end of the parent's messages — a
    ``None`` when the grid drains or the sweep stops, end of file when the
    parent is gone — reaches a point in flight: the run checkpoints at its
    next step boundary and the worker exits.  ``inherited`` are the forked
    copies of the parent's pipe ends, closed first so that the parent's
    death is this worker's end of file.
    """
    for connection in inherited:
        connection.close()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _stop_worker)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    tasks: SimpleQueue = SimpleQueue()

    def listen() -> None:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                task = None
            tasks.put(task)
            if task is None:
                _stop_worker()
                return

    threading.Thread(target=listen, daemon=True).start()
    while True:
        task = tasks.get()
        if task is None:
            return
        name, payload, allow_resume, epoch = task
        outcome = _execute_point(
            payload,
            allow_resume,
            count_flops=count_flops,
            register=_worker_register,
            record_progress=_fault_hook(fault, name, epoch),
        )
        try:
            conn.send(outcome)
        except OSError:  # the parent is gone
            return
        if _WORKER_STATE["stop"]:
            return


@dataclass
class _Worker:
    """The parent's handle on one forked worker."""

    process: Any
    owner: str
    #: The point it runs, if any.
    point: Optional[str] = None
    #: Told to stop after an interrupted point; it takes no more work.
    retiring: bool = False


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
        to the current :class:`Simulation`; parallel runs see the flag
        within ``poll_seconds`` and send every worker its stop message,
        which does the same in the worker.  In-flight points finish their step,
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
            in-process; ``>= 2`` forks that many workers, however many
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
                interrupted, stop_reason = self._run_workers(
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
    # Forked workers
    # ------------------------------------------------------------------ #
    def _queue_config(self) -> Dict[str, Any]:
        """The resolved worker configuration (defaults applied)."""
        cfg = dict(self.spec.queue or {})
        return {
            "max_attempts": int(cfg.get("max_attempts", 3)),
            "poll_seconds": float(cfg.get("poll_seconds", 0.05)),
            "fault": cfg.get("fault"),
        }

    def _run_workers(
        self,
        tasks: List[Tuple[str, Dict[str, Any], bool]],
        jobs: int,
        stop_after_points: Optional[int],
        count_flops: bool,
        progress: Optional[SweepProgress],
    ) -> Tuple[bool, Optional[str]]:
        """Execute the grid on forked workers, one pipe and one point each.

        The parent hands out points in expansion order and reads each
        outcome off the worker's pipe.  A worker whose process exits before
        it answers has crashed: its point goes back in line (resuming its
        checkpoint) and burns one of ``max_attempts``, and a point that burns
        them all fails without stopping the grid.  An ``interrupted`` outcome
        (the worker was stopped and checkpointed) goes back in line without a
        burn, and that worker is let go.  Dead workers are replaced while
        points wait, within ``max_attempts`` spawns per point.  The parent
        wakes on every outcome and every exit, and every ``poll_seconds`` to
        look for a stop request; stopping sends every worker ``None``.

        ``stop_after_points`` hands out only the first K remaining points,
        so no point beyond them starts; requeued epochs never count extra.
        """
        submit = tasks if stop_after_points is None else tasks[: max(0, stop_after_points)]
        held_back = len(tasks) - len(submit)
        if not submit:
            return True, "stop_after_points"
        cfg = self._queue_config()
        max_attempts = cfg["max_attempts"]
        runs = {name: (payload, allow_resume) for name, payload, allow_resume in submit}
        order = {name: index for index, name in enumerate(runs)}
        pending = list(runs)
        stats = {
            name: {"state": STATUS_PENDING, "epochs": 0, "requeues": 0, "burned": 0, "owner": None}
            for name in runs
        }
        context = multiprocessing.get_context()
        n_workers = max(1, min(jobs, len(submit)))
        spawns = len(submit) * max_attempts + n_workers
        workers: Dict[Any, _Worker] = {}
        spawned = 0
        stopping = False
        stop_reason: Optional[str] = "stop_after_points" if held_back else None

        def spawn() -> None:
            nonlocal spawned
            conn, child_conn = context.Pipe()
            process = context.Process(
                target=_sweep_worker,
                args=(child_conn, [*workers, conn], count_flops, cfg["fault"]),
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers[conn] = _Worker(process, f"worker-{spawned}:pid{process.pid}")
            spawned += 1

        def tell(conn, message) -> None:
            try:
                conn.send(message)
            except OSError:  # the worker died; its exit is handled below
                pass

        def update(name: str, **changes: Any) -> None:
            stats[name].update(changes)
            self._entries[name]["queue"] = dict(stats[name])

        def requeue(name: str) -> None:
            pending.append(name)
            pending.sort(key=order.__getitem__)

        try:
            while True:
                if self._stop_requested and not stopping:
                    stopping, stop_reason = True, "stop_requested"
                    for conn in workers:
                        tell(conn, None)
                events: List[Dict[str, Any]] = []
                if not stopping:
                    idle = [conn for conn, worker in workers.items()
                            if worker.point is None and not worker.retiring]
                    while len(pending) > len(idle) and len(workers) < n_workers and spawns:
                        spawn()
                        spawns -= 1
                        idle.append(next(reversed(workers)))
                    for conn in idle[: len(pending)]:
                        name = pending.pop(0)
                        worker = workers[conn]
                        worker.point = name
                        epoch = stats[name]["epochs"]
                        update(name, state=_LEASED, epochs=epoch + 1, requeues=epoch,
                               owner=worker.owner)
                        payload, allow_resume = runs[name]
                        # A requeued epoch always resumes: the one before it
                        # may have checkpointed before it stopped.
                        tell(conn, (name, payload, allow_resume or epoch > 0, epoch))
                        # Every dispatch announces the point, retries included.
                        events.append(self._started(name))
                if events:
                    self._publish(events, progress)
                if not any(worker.point is not None for worker in workers.values()):
                    if stopping or not pending:
                        break
                    if not workers:  # points wait, but no spawn is left
                        stop_reason = stop_reason or "workers_exhausted"
                        break
                multiprocessing.connection.wait(
                    [*workers, *(worker.process.sentinel for worker in workers.values())],
                    timeout=cfg["poll_seconds"],
                )
                events, changed = [], False
                for conn, worker in list(workers.items()):
                    # Exit first, pipe second: whatever a dead worker sent
                    # is already readable.
                    exited = not worker.process.is_alive()
                    outcome = None
                    try:
                        if conn.poll():
                            outcome = conn.recv()
                    except (EOFError, OSError):
                        exited = True
                    if outcome is not None:
                        name, worker.point = worker.point, None
                        if outcome.get("interrupted"):
                            update(name, state=_RELEASED)
                            worker.retiring = True
                            tell(conn, None)
                            if not stopping:
                                requeue(name)
                        else:
                            update(name, state=outcome["status"])
                        events.append(self._finished(name, outcome))
                    if exited:
                        worker.process.join()
                        conn.close()
                        del workers[conn]
                        name = worker.point
                        if name is None:
                            continue
                        changed = True
                        burned = stats[name]["burned"] + 1
                        if burned < max_attempts:
                            update(name, state=_EXPIRED, burned=burned)
                            requeue(name)
                        else:
                            update(name, state=STATUS_FAILED, burned=burned)
                            events.append(self._finished(name, {
                                "status": STATUS_FAILED,
                                "error": f"its worker died {burned} times; "
                                f"retry budget ({max_attempts}) exhausted",
                            }))
                if events or changed:
                    self._publish(events, progress)
        finally:
            for conn in workers:
                tell(conn, None)
            for worker in workers.values():
                worker.process.join(timeout=60)
                if worker.process.is_alive():  # pragma: no cover - stuck worker
                    worker.process.terminate()
                    worker.process.join(timeout=5)
            for conn in workers:
                conn.close()

        outstanding = any(stat["state"] not in (STATUS_DONE, STATUS_FAILED)
                          for stat in stats.values())
        interrupted = bool(self._stop_requested or held_back or outstanding)
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

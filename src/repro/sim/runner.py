"""The simulation driver: owns the step loop, measurements and checkpoints.

:class:`Simulation` turns a :class:`~repro.sim.spec.RunSpec` into a running
study: it builds the workload, fires registered measurement hooks on the
spec's schedule, streams step records to a result sink, persists atomic
checkpoints every ``checkpoint_every`` steps, and resumes from the latest
checkpoint on request::

    spec = RunSpec.from_file("fig13.json")
    result = Simulation(spec).run()                # fresh run
    result = Simulation(spec).run(resume=True)     # continue after a crash

Because workload state round-trips bitwise (see :mod:`repro.sim.io`) and the
library's randomized algorithms are seeded per call, a resumed run reproduces
the uninterrupted run's records float-for-float.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.backends import BackendExecutionError
from repro.sim import io as sim_io
from repro.sim.sinks import make_sink
from repro.sim.spec import RunSpec, canonical_backend_kind, canonical_json
from repro.sim.workloads import Workload, build_workload
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.trace import TRACER, span as _span

#: A measurement hook: ``hook(simulation, step_index) -> dict`` merged into
#: the step record (return ``None`` for nothing).
MeasurementHook = Callable[["Simulation", int], Optional[Dict[str, Any]]]

#: Exit code of ``python -m repro.sim`` when ``--stop-after`` /
#: ``--stop-after-points`` interrupted the run.
EXIT_INTERRUPTED = 3

#: Exit code of ``python -m repro.sim`` when the run stopped through no fault
#: of the spec but remains resumable from its last checkpoint: a termination
#: signal arrived (checkpoint written on the way out), or the backend lost
#: the ability to execute (e.g. a pool worker died past its restart budget;
#: the last scheduled checkpoint is kept).  Distinct from --stop-after so
#: schedulers — the ``serve`` daemon among them — can tell "evicted/failed but
#: resumable" from a test crash.
EXIT_SIGNALED = 4


@dataclass
class SimulationResult:
    """Outcome of a (possibly interrupted) simulation run."""

    spec: RunSpec
    records: List[Dict[str, Any]] = field(default_factory=list)
    final_step: int = 0
    interrupted: bool = False
    checkpoint_path: Optional[str] = None
    summary: Dict[str, Any] = field(default_factory=dict)
    #: why the run stopped early: ``None`` (ran to completion),
    #: ``"stop_after"`` (the testing knob), ``"stop_requested"`` (an
    #: external stop request, e.g. a SIGTERM/SIGINT handler) or
    #: ``"backend_failure"`` (the backend lost the ability to execute, e.g.
    #: a pool worker died past its restart budget; the last *scheduled*
    #: checkpoint is kept and no new one is written, because the in-place
    #: mutated state of the failed step is torn).
    stop_reason: Optional[str] = None
    #: the backend error message when ``stop_reason == "backend_failure"``.
    error: Optional[str] = None

    @property
    def energies(self) -> List[float]:
        """Convenience series: the ``energy`` field of every record carrying one."""
        return [r["energy"] for r in self.records if "energy" in r]

    @property
    def measured_steps(self) -> List[int]:
        return [r["step"] for r in self.records]

    @property
    def final_energy(self) -> float:
        energies = self.energies
        if not energies:
            raise ValueError("no energies were recorded during the run")
        return energies[-1]


class Simulation:
    """Config-driven driver for one workload run.

    Parameters
    ----------
    spec:
        A :class:`RunSpec` (or a plain dict parsed with
        :meth:`RunSpec.from_dict`).  Records go to the sink ``spec.results``
        implies (JSONL/JSON file, or in-memory).
    """

    def __init__(self, spec: Union[RunSpec, Dict[str, Any]]) -> None:
        self.spec = spec if isinstance(spec, RunSpec) else RunSpec.from_dict(spec)
        self.workload: Workload = build_workload(self.spec)
        self.sink = make_sink(self.spec.results)
        self._hooks: Dict[str, MeasurementHook] = {}
        self._stop_requested = False

    # ------------------------------------------------------------------ #
    # External stop requests (preemption / signal handling)
    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        """Ask the run loop to checkpoint and stop after the current step.

        Safe to call from a signal handler: it only sets a flag.  The loop
        finishes the step in flight, writes one checkpoint (regardless of the
        ``checkpoint_every`` schedule, so a preempted run can always resume)
        and returns with ``interrupted=True`` and
        ``stop_reason="stop_requested"``.  A request that arrives before
        :meth:`run` starts (e.g. a signal racing the workload build) is not
        lost: the next run stops after its first step.
        """
        self._stop_requested = True

    # ------------------------------------------------------------------ #
    # Measurement hooks
    # ------------------------------------------------------------------ #
    def add_measurement_hook(self, name: str, hook: MeasurementHook) -> None:
        """Register an extra measurement fired on the spec's schedule.

        The hook runs after the workload's own ``measure`` and its dict is
        merged into the step record under no namespace — pick distinct keys.
        """
        self._hooks[name] = hook

    # ------------------------------------------------------------------ #
    # Checkpoints
    # ------------------------------------------------------------------ #
    def latest_checkpoint(self) -> Optional[str]:
        """Path of this run's newest checkpoint (``None`` if there is none)."""
        return sim_io.latest_checkpoint(self.spec.checkpoint_dir, self.spec.name)

    def _write_checkpoint(self, step: int, records: List[Dict[str, Any]]) -> str:
        # One fresh store per checkpoint: the workload serializes its tensors
        # through it, then write_checkpoint lands the arrays in the sidecar.
        store = sim_io.NpzPayloadStore()
        # Telemetry is observational, never part of the run definition: strip
        # it from the persisted spec so traced and untraced sessions write
        # bitwise-identical checkpoints (and resume across each other).  The
        # backend persists as its canonical kind for the same reason: the
        # executor and rank count affect where the arithmetic runs, not what
        # it computes, so pool and simulated sessions of one run must write
        # bitwise-identical checkpoints (and resume across each other).
        spec_payload = self.spec.to_dict()
        spec_payload.pop("telemetry", None)
        spec_payload["backend"] = canonical_backend_kind(self.spec.backend)
        with _span("checkpoint", step=step):
            return sim_io.write_checkpoint(
                self.spec.checkpoint_dir,
                self.spec.name,
                step,
                spec_payload,
                self.workload.state_to_dict(store=store),
                records,
                keep=self.spec.keep_checkpoints,
                store=store,
            )

    def _load_checkpoint(self, resume: Union[bool, str, os.PathLike]):
        """Load the checkpoint ``resume`` names; returns ``(payload, path)``."""
        path = resume if not isinstance(resume, bool) else self.latest_checkpoint()
        if path is None:
            raise FileNotFoundError(
                f"no checkpoint for run {self.spec.name!r} in "
                f"{self.spec.checkpoint_dir!r}"
            )
        payload = sim_io.load_checkpoint(path)
        # Everything that defines the physics/trajectory must match; schedule
        # and output knobs (n_steps, measure_every, results, checkpointing)
        # may legitimately change between sessions (e.g. extending a run) and
        # are not even parsed.
        physics_fields = (
            "workload", "lattice", "seed",
            "model", "algorithm", "update", "contraction",
        )
        compared = physics_fields + ("backend", "spec_version")
        saved_spec = RunSpec.from_dict(
            {name: value for name, value in payload["spec"].items() if name in compared}
        )

        def physics(spec: RunSpec, name: str):
            # An option block compares as the option it builds, so
            # shorthands, retired fields and spelled-out defaults match.
            if name == "contraction":
                return sim_io.option_to_dict(spec.build_contract_option())
            if name == "update":
                return sim_io.option_to_dict(spec.build_update_option())
            return getattr(spec, name)

        mismatched = [
            name for name in physics_fields
            if canonical_json(physics(saved_spec, name))
            != canonical_json(physics(self.spec, name))
        ]
        # Backends compare by canonical kind only: the executor and rank
        # count change where the arithmetic runs, not what it computes, so a
        # pool run may resume a simulated checkpoint and vice versa.
        if canonical_backend_kind(saved_spec.backend) != canonical_backend_kind(
            self.spec.backend
        ):
            mismatched.append("backend")
        if mismatched:
            raise ValueError(
                f"checkpoint {os.fspath(path)!r} was written by an incompatible spec "
                f"({', '.join(mismatched)} differ); refusing to resume"
            )
        return payload, os.fspath(path)

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        resume: Union[bool, str, os.PathLike] = False,
        stop_after: Optional[int] = None,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> SimulationResult:
        """Execute (or continue) the run.

        Parameters
        ----------
        resume:
            ``False`` starts fresh; ``True`` resumes from the newest
            checkpoint in ``spec.checkpoint_dir``; a path resumes from that
            checkpoint file.
        stop_after:
            Stop (reporting ``interrupted=True``) after this many steps *of
            this session* — used to exercise interrupt/resume in tests and CI.
        progress:
            Called with every step record as it is produced.
        """
        spec = self.spec
        # Deliberately no reset of _stop_requested here: a stop request (e.g.
        # SIGTERM) that arrives between construction and the loop — while the
        # workload builds its state, or even before run() is entered — must
        # survive so the run still checkpoints-and-exits after one step.
        self.workload.setup()
        start_step = 0
        prior_records: List[Dict[str, Any]] = []
        resumed_from: Optional[str] = None
        if resume:
            payload, resumed_from = self._load_checkpoint(resume)
            # The store resolves the checkpoint's tensor payloads wherever
            # they live: the npz sidecar, or the inline base64 and rank files
            # of earlier builds.
            store = sim_io.open_payload_store(payload, resumed_from)
            try:
                self.workload.restore_state(payload["workload_state"], store=store)
            finally:
                store.close()
            start_step = int(payload["step"])
            prior_records = list(payload["records"])
        else:
            # A fresh run supersedes any previous session's checkpoints:
            # left in place they would shadow the new ones in step-sorted
            # pruning and could be resumed by mistake.  This holds even with
            # checkpoint_every=0, because an external stop request writes an
            # off-schedule checkpoint.
            sim_io.clear_checkpoints(spec.checkpoint_dir, spec.name)

        self.sink.open(prior_records)
        records = self.sink.records
        n_steps = self.workload.total_steps()
        checkpoint_path: Optional[str] = resumed_from
        interrupted = False
        stop_reason: Optional[str] = None
        error: Optional[str] = None
        steps_this_session = 0
        step = start_step

        # Telemetry is purely observational: spans and metric deltas never
        # touch RNG streams or numerics, so a traced run stays bitwise
        # identical to an untraced one.
        telemetry = spec.telemetry or {}
        trace_path = telemetry.get("trace")
        started_tracer = False
        if trace_path is not None and not TRACER.active:
            TRACER.start(os.fspath(trace_path))
            started_tracer = True
        # Per-step metric deltas are *session-windowed* counters of the global
        # registry: deterministic integers only (no wall time), attached to
        # each measured record under "metrics" when the spec opts in.
        attach_metrics = bool(telemetry.get("metrics"))
        metrics_mark = REGISTRY.snapshot() if attach_metrics else None

        try:
            for step in range(start_step + 1, n_steps + 1):
                with _span("step", step=step, workload=spec.workload):
                    self.workload.step(step)
                if step % spec.measure_every == 0 or step == n_steps:
                    record: Dict[str, Any] = {"step": step}
                    with _span("measure", step=step):
                        record.update(self.workload.measure(step))
                        for hook in self._hooks.values():
                            extra = hook(self, step)
                            if extra:
                                record.update(extra)
                    if metrics_mark is not None:
                        record["metrics"] = REGISTRY.delta(metrics_mark)
                        metrics_mark = REGISTRY.snapshot()
                    self.sink.write(record)
                    if progress is not None:
                        progress(record)
                scheduled_checkpoint = spec.checkpoint_every and (
                    step % spec.checkpoint_every == 0 or step == n_steps
                )
                if scheduled_checkpoint:
                    checkpoint_path = self._write_checkpoint(step, records)
                steps_this_session += 1
                if step == n_steps:
                    break
                if self._stop_requested:
                    # Preemption (e.g. SIGTERM): persist one off-schedule
                    # checkpoint so the run can resume exactly here.
                    if not scheduled_checkpoint:
                        checkpoint_path = self._write_checkpoint(step, records)
                    interrupted = True
                    stop_reason = "stop_requested"
                    break
                if stop_after is not None and steps_this_session >= stop_after:
                    interrupted = True
                    stop_reason = "stop_after"
                    break
        except BackendExecutionError as exc:
            # The backend can no longer execute (e.g. a pool worker died past
            # its restart budget).  The step in flight mutated the state in
            # place, so it is torn: deliberately do NOT write a checkpoint —
            # the last scheduled one stays the newest and the run resumes
            # from there.
            interrupted = True
            stop_reason = "backend_failure"
            error = f"step {step}: {exc}"
        finally:
            self.sink.close()
            if started_tracer:
                TRACER.stop()
            # Release the backend the spec built (worker pools in
            # particular); the next run() resolves a fresh one.  A live
            # instance supplied by the caller is left open.
            spec.close_backend()

        summary = {} if interrupted else self.workload.summary()
        return SimulationResult(
            spec=spec,
            records=list(records),
            final_step=step,
            interrupted=interrupted,
            checkpoint_path=checkpoint_path,
            summary=summary,
            stop_reason=stop_reason,
            error=error,
        )


def run_spec(spec: Union[RunSpec, Dict[str, Any]], **kwargs) -> SimulationResult:
    """One-call convenience: build a :class:`Simulation` and run it (``kwargs``
    go to :meth:`Simulation.run`)."""
    return Simulation(spec).run(**kwargs)

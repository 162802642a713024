"""Command-line entry point: ``python -m repro.sim <command> ...``.

Two subcommands share the checkpoint/resume contract (a third, ``report``,
renders telemetry summaries; a fourth, ``serve``, runs a local job daemon):

``run SPEC.json [options]``
    Run the simulation a JSON :class:`~repro.sim.spec.RunSpec` describes,
    printing one line per step record.  ``--resume`` continues from the
    newest checkpoint; ``--stop-after N`` interrupts after N steps of this
    session (exit code 3), which lets CI exercise the crash/resume path
    deterministically.

``sweep SWEEP.json [--jobs N] [--resume] [options]``
    Expand a :class:`~repro.sim.sweep.SweepSpec` grid and execute it
    in-process (``--jobs 1``; the default comes from the spec) or, with
    ``--jobs N`` for ``N >= 2``, on N forked workers that the parent hands
    one point at a time over a pipe, requeueing the point of a worker that
    dies (see ``docs/serve.md``).  Both produce bitwise identical combined
    results.  Per-point
    statuses live in ``<sweep_dir>/manifest.json``; ``--resume`` skips
    completed points and resumes interrupted ones from their checkpoints,
    and ``--stop-after-points K`` interrupts after K points finish (exit
    code 3).  On completion the per-point streams merge into one combined
    results document.

``serve --dir DIR [--host H] [--port P]``
    Start the local job daemon: clients submit run/sweep specs over a small
    HTTP API, poll status and stream results; jobs execute FIFO as
    subprocesses of this same CLI.  SIGTERM checkpoints the in-flight job
    and exits with code 4 when resumable work remains; restarting the
    daemon on the same directory resumes it (``docs/serve.md``).

``report [PATH ...]``
    Render summaries of telemetry artifacts: run ``.jsonl`` record streams,
    sweep manifests, ``--trace`` files, and ``BENCH_*.json`` perf documents
    (auto-detected per path).  With no paths, renders the perf-trajectory
    table over every ``BENCH_*.json`` in the current directory.

.. code-block:: shell

    python -m repro.sim run spec.json --results ref.jsonl
    python -m repro.sim sweep sweep.json --jobs 4
    python -m repro.sim sweep sweep.json --jobs 4 --resume
    cmp ref.jsonl out.jsonl

SIGTERM and SIGINT are handled gracefully in both commands: in-flight steps
finish, one checkpoint is written per interrupted run (even off the
``checkpoint_every`` schedule) and the process exits with the distinct code 4
("interrupted, checkpoint written"), so preemptible jobs checkpoint on
eviction rather than on schedule only.  Sweeps tell every worker to stop
so each in-flight point checkpoints too, and a worker whose sweep process
dies (even by SIGKILL) stops the same way.

Checkpoints write tensor payloads to a compressed ``.npz`` sidecar, and
``--resume`` also reads the all-JSON inline and per-rank sharded checkpoints
of earlier builds (see ``docs/checkpoint-format.md`` for the on-disk
contract and ``docs/cli.md`` for the complete CLI reference).  A backend
that loses the ability to execute mid-run (e.g. a worker-pool rank dying
past its restart budget) also exits with code 4: the last scheduled
checkpoint is kept and the run resumes from it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import List, Optional, Sequence

from repro.sim.runner import EXIT_INTERRUPTED, EXIT_SIGNALED, Simulation
from repro.sim.spec import RunSpec
from repro.sim.sweep import STATUS_FAILED, Sweep, SweepSpec
from repro.utils.checks import nonnegative_int

#: Exit code reported when a sweep completed its dispatch but points failed
#: (the resumable codes, 3 and 4, are defined next to the run's stop reasons
#: in :mod:`repro.sim.runner`).
EXIT_FAILED_POINTS = 1

#: Signals that trigger checkpoint-and-exit (SIGINT covers Ctrl-C).
_HANDLED_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Run a simulation (RunSpec) or a parameter sweep (SweepSpec).",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    run = commands.add_parser(
        "run", help="run one simulation described by a JSON RunSpec"
    )
    run.add_argument("spec", help="path to the RunSpec JSON file")
    run.add_argument(
        "--resume",
        nargs="?",
        const=True,
        default=False,
        metavar="CHECKPOINT",
        help="resume from the newest checkpoint (or an explicit checkpoint file)",
    )
    run.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help="interrupt after N steps of this session (exit code 3); "
        "used to test checkpoint/resume",
    )
    run.add_argument("--results", default=None, metavar="PATH",
                     help="override the spec's results path")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="override the spec's checkpoint directory")
    run.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                     help="override the spec's checkpoint interval")
    run.add_argument("--name", default=None, help="override the spec's run name")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record spans of this run into a Chrome trace-event "
                     "JSON file (view in Perfetto); results stay bitwise "
                     "identical to an untraced run")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-step record output")
    run.set_defaults(func=_main_run)

    sweep = commands.add_parser(
        "sweep", help="expand and execute a JSON SweepSpec parameter grid"
    )
    sweep.add_argument("spec", help="path to the SweepSpec JSON file")
    sweep.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker count (default: the spec's jobs): 1 runs the "
                       "points in-process, N >= 2 forks N workers (a crashed "
                       "worker's point is requeued); results are bitwise "
                       "identical either way")
    sweep.add_argument("--resume", action="store_true",
                       help="skip completed points and resume interrupted ones")
    sweep.add_argument(
        "--stop-after-points",
        type=int,
        default=None,
        metavar="K",
        help="interrupt after K points finish in this session (exit code 3); "
        "used to test sweep resume",
    )
    sweep.add_argument("--results", default=None, metavar="PATH",
                       help="override the spec's combined results path")
    sweep.add_argument("--sweep-dir", default=None, metavar="DIR",
                       help="override the spec's working directory")
    sweep.add_argument("--count-flops", action="store_true",
                       help="record per-point flop counts in the manifest metrics")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress output")
    sweep.set_defaults(func=_main_sweep)

    serve = commands.add_parser(
        "serve", help="run the local job daemon (HTTP submit/status/results API)"
    )
    serve.add_argument("--dir", required=True, metavar="DIR", dest="directory",
                       help="state directory (endpoint file, per-job specs, "
                       "results and checkpoints)")
    serve.add_argument("--host", default="127.0.0.1", metavar="HOST",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="bind port (default: 0 = pick a free port, "
                       "published in DIR/serve.json)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress job-transition log output")
    serve.set_defaults(func=_main_serve)

    report = commands.add_parser(
        "report", help="summarize telemetry artifacts and the perf trajectory"
    )
    report.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="artifacts to summarize (run .jsonl streams, sweep manifests, "
        "--trace files, BENCH_*.json); with no paths, renders the perf "
        "trajectory over every BENCH_*.json in the current directory",
    )
    report.set_defaults(func=_main_report)
    return parser


def _install_stop_handlers(request_stop) -> tuple:
    """Route the first SIGTERM/SIGINT to ``request_stop``; returns state."""
    received: List[int] = []
    previous = {}

    def handle_signal(signum, frame):
        # Only set flags: the in-flight step finishes, a checkpoint is
        # written and the loop returns.  A second signal falls through to the
        # previous (default) handler and kills the process immediately.
        received.append(signum)
        request_stop()
        for sig, previous_handler in previous.items():
            signal.signal(sig, previous_handler)

    for sig in _HANDLED_SIGNALS:
        try:
            previous[sig] = signal.signal(sig, handle_signal)
        except (ValueError, OSError):
            pass  # not the main thread / unsupported platform: run unguarded
    return received, previous, handle_signal


def _restore_handlers(previous, handler) -> None:
    for sig, previous_handler in previous.items():
        if signal.getsignal(sig) is handler:
            signal.signal(sig, previous_handler)


def _format_record(record) -> str:
    return " ".join(
        f"{k}={v:+.10g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in record.items()
    )


def _main_run(args) -> int:
    spec = RunSpec.from_file(args.spec)
    if args.results is not None:
        spec.results = args.results
    if args.checkpoint_dir is not None:
        spec.checkpoint_dir = args.checkpoint_dir
    if args.checkpoint_every is not None:
        spec.checkpoint_every = nonnegative_int(args.checkpoint_every, "checkpoint_every")
    if args.name is not None:
        spec.name = args.name
    if args.trace is not None:
        telemetry = dict(spec.telemetry or {})
        telemetry["trace"] = args.trace
        spec.telemetry = telemetry

    def progress(record):
        if not args.quiet:
            print(_format_record(record), flush=True)

    simulation = Simulation(spec)
    if not args.quiet:
        mode = "resuming" if args.resume else "starting"
        print(f"{mode} run {spec.name!r}: workload={spec.workload} "
              f"lattice={spec.nrow}x{spec.ncol} seed={spec.seed}", flush=True)

    received, previous, handler = _install_stop_handlers(simulation.request_stop)
    try:
        result = simulation.run(
            resume=args.resume, stop_after=args.stop_after, progress=progress
        )
    finally:
        _restore_handlers(previous, handler)

    signaled = result.stop_reason == "stop_requested" and received
    backend_failed = result.stop_reason == "backend_failure"
    if backend_failed:
        print(f"run {spec.name!r} backend failure: {result.error}",
              file=sys.stderr, flush=True)
    if not args.quiet:
        if signaled:
            name = signal.Signals(received[0]).name
            status = f"interrupted by {name}"
        elif backend_failed:
            status = "interrupted by backend failure"
        else:
            status = "interrupted" if result.interrupted else "completed"
        print(f"run {spec.name!r} {status} at step {result.final_step}"
              + (f" (checkpoint: {result.checkpoint_path})"
                 if result.checkpoint_path else ""), flush=True)
    if signaled or backend_failed:
        return EXIT_SIGNALED
    return EXIT_INTERRUPTED if result.interrupted else 0


def _main_sweep(args) -> int:
    spec = SweepSpec.from_file(args.spec)
    if args.results is not None:
        spec.results = args.results
    if args.sweep_dir is not None:
        spec.sweep_dir = args.sweep_dir

    def progress(event):
        if args.quiet:
            return
        if event["event"] == "started":
            print(f"[{event['point']}] started", flush=True)
        else:
            line = f"[{event['point']}] {event['status']}"
            if event.get("error"):
                line += f": {event['error']}"
            print(line, flush=True)

    def record_progress(record):
        if not args.quiet:
            point = record.pop("point", "?")
            print(f"[{point}] {_format_record(record)}", flush=True)

    sweep = Sweep(spec)
    n_points = len(spec.override_sets())
    if not args.quiet:
        mode = "resuming" if args.resume else "starting"
        jobs = spec.jobs if args.jobs is None else args.jobs
        print(f"{mode} sweep {spec.name!r}: {n_points} points, jobs={jobs}, "
              f"dir={spec.sweep_dir!r}", flush=True)

    received, previous, handler = _install_stop_handlers(sweep.request_stop)
    try:
        result = sweep.run(
            jobs=args.jobs,
            resume=args.resume,
            stop_after_points=args.stop_after_points,
            count_flops=args.count_flops,
            progress=progress,
            record_progress=record_progress,
        )
    finally:
        _restore_handlers(previous, handler)

    signaled = result.stop_reason == "stop_requested" and received
    if not args.quiet:
        done = sum(1 for status in result.statuses.values() if status == "done")
        if signaled:
            status = f"interrupted by {signal.Signals(received[0]).name}"
        else:
            status = "interrupted" if result.interrupted else "completed"
        print(f"sweep {spec.name!r} {status}: {done}/{n_points} points done"
              + (f" (combined results: {result.combined_path})"
                 if result.combined_path else "")
              + (f" (manifest: {result.manifest_path})"
                 if result.manifest_path else ""), flush=True)
        for name in result.failed:
            print(f"[{name}] FAILED: {result.errors.get(name, 'unknown error')}",
                  flush=True)
    if signaled:
        return EXIT_SIGNALED
    if result.interrupted:
        return EXIT_INTERRUPTED
    if any(status == STATUS_FAILED for status in result.statuses.values()):
        return EXIT_FAILED_POINTS
    return 0


def _main_serve(args) -> int:
    # Imported here: the daemon's HTTP stack is not loaded for the other commands.
    from repro.sim.serve import ServeDaemon

    daemon = ServeDaemon(
        args.directory, host=args.host, port=args.port, quiet=args.quiet
    )
    daemon.start()
    received, previous, handler = _install_stop_handlers(daemon.request_shutdown)
    try:
        return daemon.wait()
    finally:
        _restore_handlers(previous, handler)


def _main_report(args) -> int:
    from repro.telemetry import report as telemetry_report

    if not args.paths:
        documents = telemetry_report.find_bench_documents(os.getcwd())
        print("== perf trajectory (BENCH_*.json) ==")
        print(telemetry_report.render_bench_trajectory(documents))
        return 0
    failed = False
    for n, path in enumerate(args.paths):
        if n:
            print()
        try:
            print(telemetry_report.render(path))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"== {path} ==\nerror: {exc}")
            failed = True
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

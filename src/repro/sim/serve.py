"""The ``python -m repro.sim serve`` daemon: submit, watch and stream runs.

A long-running, local-first job service in front of the existing run/sweep
machinery.  Clients POST :class:`~repro.sim.spec.RunSpec` /
:class:`~repro.sim.sweep.SweepSpec` payloads over a small HTTP API; the
daemon executes them one at a time (FIFO) and persists every job under its
state directory, so a restarted daemon picks up exactly where it stopped.

Design choices
--------------
* **Jobs run as subprocesses** of the stock CLI (``python -m repro.sim run |
  sweep``), not in-process.  That reuses the whole preemption contract for
  free — checkpoints, SIGTERM → checkpoint-and-exit-4, ``--resume`` —
  avoids fork-from-thread hazards in the HTTP threads, and isolates a
  crashing run from the daemon.
* **Shutdown mirrors the CLI's exit-code semantics.**  On SIGTERM/SIGINT
  (or ``POST /v1/shutdown``) the daemon forwards SIGTERM to the in-flight
  job, waits for it to checkpoint out, marks it ``interrupted``, and exits
  with code 4 when interrupted/queued work remains (i.e. "resumable"), 0
  otherwise.  Restarting the daemon on the same directory re-enqueues that
  work with ``--resume``; completed results are float-for-float identical
  to an uninterrupted run (PR 2's contract).
* **State is plain atomic JSON.**  One ``jobs/<id>/job.json`` per job plus
  the job's spec and working directory; the endpoint file ``serve.json``
  (host/port/pid/url) is written on bind so clients and tests never guess
  ports.
* **A job has one child at a time.**  The running child's pid is kept in
  ``jobs/<id>/child.json`` while it runs.  A daemon killed outright cannot
  stop its child, which keeps running; the restarted daemon stops it the way
  a graceful shutdown would (SIGTERM: checkpoint, exit 4) before it resumes
  the job, so two children never share one checkpoint directory.

HTTP API (see ``docs/serve.md`` for the full surface and failure matrix)::

    GET  /v1/health                daemon liveness + job counts
    GET  /v1/jobs                  all jobs (summary)
    POST /v1/runs                  {"spec": {...RunSpec...}}    -> {"id": ...}
    POST /v1/sweeps                {"spec": {...SweepSpec...}}  -> {"id": ...}
    GET  /v1/jobs/<id>             one job (full record)
    GET  /v1/jobs/<id>/results     the job's results stream (ndjson);
                                   ?since=N skips the first N lines
    POST /v1/shutdown              graceful stop (in-flight job checkpoints)

:class:`ServeClient` wraps the API with plain :mod:`urllib` calls for tests
and scripts.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.sim.io import FORMAT_VERSION, atomic_write_json
from repro.sim.runner import EXIT_INTERRUPTED, EXIT_SIGNALED
from repro.sim.spec import RunSpec
from repro.sim.sweep import SweepSpec
from repro.telemetry.metrics import REGISTRY
from repro.utils.checks import positive_int

#: Job lifecycle states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_INTERRUPTED = "interrupted"

#: Endpoint file written into the state directory on bind.
ENDPOINT_FILENAME = "serve.json"

#: Per-job file holding the running child's pid (not part of the API record).
_CHILD_FILENAME = "child.json"

#: Seconds a child left running by a killed daemon gets to checkpoint and
#: exit after SIGTERM before it is killed.
_ORPHAN_GRACE_S = 60.0


def _runs_spec(pid: int, spec_path: str) -> bool:
    """Whether process ``pid`` is alive and running ``spec_path``: its
    command line (from procfs; a zombie's is empty) names the spec file."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return os.fsencode(spec_path) in handle.read().split(b"\0")
    except OSError:
        return False


def _job_sort_key(job_id: str) -> Tuple[int, str]:
    try:
        return (int(job_id.rsplit("-", 1)[-1]), job_id)
    except ValueError:
        return (1 << 30, job_id)


class ServeDaemon:
    """The daemon: HTTP front end + one FIFO executor thread.

    Parameters
    ----------
    directory:
        State directory: ``serve.json`` endpoint file plus one
        ``jobs/<id>/`` subdirectory per submitted job.
    host / port:
        Bind address; port 0 (default) picks a free port, published in
        ``serve.json``.
    quiet:
        Suppress per-transition log lines on stdout.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = False,
    ) -> None:
        self.directory = os.fspath(directory)
        self.host = host
        self.port = int(port)
        self.quiet = quiet
        self._lock = threading.Lock()
        self._jobs: Dict[str, Dict[str, Any]] = {}
        self._work = threading.Condition(self._lock)
        self._pending: List[str] = []
        self._shutdown = threading.Event()
        self._child: Optional[subprocess.Popen] = None
        self._child_job: Optional[str] = None
        self._signalled: Optional[subprocess.Popen] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._executor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def _jobs_dir(self) -> str:
        return os.path.join(self.directory, "jobs")

    def _job_dir(self, job_id: str) -> str:
        return os.path.join(self._jobs_dir(), job_id)

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"serve: {message}", flush=True)

    def _child_path(self, job_id: str) -> str:
        return os.path.join(self._job_dir(job_id), _CHILD_FILENAME)

    def _save_job(self, job: Dict[str, Any]) -> None:
        atomic_write_json(
            os.path.join(self._job_dir(job["id"]), "job.json"),
            {"format_version": FORMAT_VERSION, "type": "ServeJob", **job},
        )

    def _recover_jobs(self) -> None:
        """Load persisted jobs; re-enqueue unfinished ones with resume.

        A job that was ``running`` or ``interrupted`` when the previous
        daemon exited restarts with ``--resume`` (its checkpoints carry the
        progress); ``queued`` jobs simply queue again.  Done/failed jobs are
        immutable history.  A child the previous daemon left running is
        stopped first (:meth:`_stop_orphan`).
        """
        jobs_dir = self._jobs_dir()
        if not os.path.isdir(jobs_dir):
            return
        for job_id in sorted(os.listdir(jobs_dir), key=_job_sort_key):
            path = os.path.join(jobs_dir, job_id, "job.json")
            try:
                with open(path) as handle:
                    job = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if job.get("type") != "ServeJob":
                continue
            job = {k: v for k, v in job.items() if k not in ("format_version", "type")}
            self._stop_orphan(job)
            if job.get("status") in (JOB_RUNNING, JOB_INTERRUPTED):
                job["status"] = JOB_QUEUED
                job["resume"] = True
            self._jobs[job["id"]] = job
            if job["status"] == JOB_QUEUED:
                self._pending.append(job["id"])
                self._log(f"recovered {job['id']} (resume={job.get('resume', False)})")
            self._save_job(job)

    def _stop_orphan(self, job: Dict[str, Any]) -> None:
        """Stop the child a killed daemon left running for ``job``.

        SIGTERM makes it finish its step, checkpoint and exit 4, as on a
        graceful shutdown; past :data:`_ORPHAN_GRACE_S` it is killed and the
        job resumes from its last scheduled checkpoint.  A pid that no
        longer runs the job's spec (the child exited, the pid was reused) is
        left alone.
        """
        path = self._child_path(job["id"])
        try:
            with open(path) as handle:
                pid = int(json.load(handle)["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            return
        spec_path = job["spec_path"]
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if not _runs_spec(pid, spec_path):
                break
            self._log(f"stopping {job['id']}'s orphaned child (pid {pid}, {sig.name})")
            try:
                os.kill(pid, sig)
            except OSError:  # pragma: no cover - racing child exit
                break
            deadline = time.monotonic() + _ORPHAN_GRACE_S
            while _runs_spec(pid, spec_path) and time.monotonic() < deadline:
                time.sleep(0.05)
        os.unlink(path)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> Dict[str, Any]:
        """Bind, recover persisted jobs, start serving; returns the endpoint."""
        os.makedirs(self._jobs_dir(), exist_ok=True)
        with self._lock:
            self._recover_jobs()
        daemon = self

        class Handler(_Handler):
            serve = daemon

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._server.server_address[1]
        endpoint = {
            "format_version": FORMAT_VERSION,
            "type": "ServeEndpoint",
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "url": f"http://{self.host}:{self.port}",
        }
        atomic_write_json(os.path.join(self.directory, ENDPOINT_FILENAME), endpoint)
        self._executor = threading.Thread(target=self._executor_loop, daemon=True)
        self._executor.start()
        serving = threading.Thread(target=self._server.serve_forever, daemon=True)
        serving.start()
        self._log(f"listening on {endpoint['url']} (dir={self.directory})")
        return endpoint

    def request_shutdown(self) -> None:
        """Initiate a graceful stop (signal-handler and API safe)."""
        self._shutdown.set()
        self._terminate_child()
        with self._work:
            self._work.notify_all()

    def _terminate_child(self) -> None:
        """Forward SIGTERM to the in-flight child, at most once.

        The child's stop handler restores the default handler after the
        first signal, so a second SIGTERM would kill it before it can finish
        its step, checkpoint and exit 4.
        """
        with self._lock:
            child = self._child
            if child is None or child is self._signalled or child.poll() is not None:
                return
            self._signalled = child
            try:
                child.send_signal(signal.SIGTERM)
            except OSError:  # pragma: no cover - racing child exit
                pass

    def wait(self, poll_seconds: float = 0.2) -> int:
        """Block until shutdown is requested and drained; returns exit code."""
        while not self._shutdown.wait(poll_seconds):
            pass
        return self.stop()

    def stop(self) -> int:
        """Drain the executor, stop serving, report the CLI exit code.

        Exit code 4 (the "interrupted but resumable" convention) when any
        job is left queued/interrupted, 0 when all submitted work reached a
        terminal state.
        """
        self._shutdown.set()
        self._terminate_child()
        if self._executor is not None:
            self._executor.join(timeout=120)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        with self._lock:
            unfinished = [
                job["id"]
                for job in self._jobs.values()
                if job["status"] in (JOB_QUEUED, JOB_RUNNING, JOB_INTERRUPTED)
            ]
        code = EXIT_SIGNALED if unfinished else 0
        self._log(
            f"stopped ({len(unfinished)} unfinished job(s), exit code {code})"
        )
        return code

    # ------------------------------------------------------------------ #
    # Submission and queries (called from HTTP handler threads)
    # ------------------------------------------------------------------ #
    def submit(self, kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and enqueue one run/sweep submission; returns the job."""
        if self._shutdown.is_set():
            raise ValueError("daemon is shutting down; not accepting jobs")
        spec_payload = payload.get("spec")
        if not isinstance(spec_payload, dict):
            raise ValueError('submission body needs a "spec" object')
        known = ["jobs", "spec"] if kind == "sweep" else ["spec"]
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ValueError(
                f"unknown submission fields {unknown}; known fields: {known}"
            )
        if payload.get("jobs") is not None:
            positive_int(payload["jobs"], "jobs")
        with self._lock:
            job_id = f"job-{len(self._jobs) + 1:04d}"
            job_dir = self._job_dir(job_id)
            work_dir = os.path.join(job_dir, "work")
            os.makedirs(work_dir, exist_ok=True)
            # Validate + pin artifact paths inside the job directory.  The
            # spec file is rewritten with the pinned paths so a restarted
            # daemon resumes against identical artifacts.
            spec_payload = dict(spec_payload)
            if kind == "run":
                results = os.path.join(work_dir, "results.jsonl")
                spec_payload["results"] = results
                spec_payload["checkpoint_dir"] = os.path.join(work_dir, "checkpoints")
                RunSpec.from_dict(spec_payload)
                resume_probe = spec_payload["checkpoint_dir"]
            elif kind == "sweep":
                spec_payload["sweep_dir"] = os.path.join(work_dir, "sweep")
                results = os.path.join(work_dir, "results.jsonl")
                spec_payload["results"] = results
                SweepSpec.from_dict(spec_payload).expand()
                resume_probe = os.path.join(
                    spec_payload["sweep_dir"], "manifest.json"
                )
            else:  # pragma: no cover - router guarantees kind
                raise ValueError(f"unknown job kind {kind!r}")
            spec_path = os.path.join(job_dir, "spec.json")
            atomic_write_json(spec_path, spec_payload)
            job = {
                "id": job_id,
                "kind": kind,
                "status": JOB_QUEUED,
                "submitted": len(self._jobs) + 1,  # FIFO sequence, not wall time
                "spec_path": spec_path,
                "results_path": results,
                "resume_probe": resume_probe,
                "resume": False,
                "exit_code": None,
                "error": None,
                "options": (
                    {"jobs": payload["jobs"]}
                    if kind == "sweep" and "jobs" in payload
                    else {}
                ),
            }
            self._jobs[job_id] = job
            self._save_job(job)
            self._pending.append(job_id)
            self._work.notify_all()
        REGISTRY.counter("serve.submissions", kind=kind).add()
        self._log(f"queued {job_id} ({kind})")
        return dict(job)

    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return dict(job) if job else None

    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                dict(self._jobs[job_id])
                for job_id in sorted(self._jobs, key=_job_sort_key)
            ]

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job["status"]] = counts.get(job["status"], 0) + 1
            return counts

    def results_lines(self, job_id: str, since: int = 0) -> Optional[List[str]]:
        """The job's results stream as raw JSONL lines, skipping ``since``.

        Safe to poll while the job runs: the results file is append-only
        (runs) or atomically replaced (sweep combined docs), so readers see
        only whole lines of a consistent document.
        """
        job = self.job(job_id)
        if job is None:
            return None
        try:
            with open(job["results_path"]) as handle:
                lines = [line.rstrip("\n") for line in handle if line.strip()]
        except FileNotFoundError:
            return []
        return lines[max(0, int(since)):]

    # ------------------------------------------------------------------ #
    # Executor
    # ------------------------------------------------------------------ #
    def _next_job(self) -> Optional[str]:
        with self._work:
            while not self._pending and not self._shutdown.is_set():
                self._work.wait(timeout=0.2)
            if self._shutdown.is_set():
                return None
            return self._pending.pop(0)

    def _command(self, job: Dict[str, Any]) -> List[str]:
        command = [sys.executable, "-m", "repro.sim", job["kind"], job["spec_path"]]
        if job["kind"] == "sweep":
            options = job.get("options") or {}
            if options.get("jobs") is not None:
                command += ["--jobs", str(int(options["jobs"]))]
        command.append("--quiet")
        if job.get("resume") and self._resumable(job):
            command.append("--resume")
        return command

    @staticmethod
    def _resumable(job: Dict[str, Any]) -> bool:
        """Whether restartable state exists (a job killed during startup —
        before its first checkpoint/manifest — must restart fresh, since
        ``--resume`` refuses to run without prior state)."""
        probe = job.get("resume_probe")
        if probe is None:
            return True
        if os.path.isdir(probe):
            return bool(os.listdir(probe))
        return os.path.exists(probe)

    def _executor_loop(self) -> None:
        """Run queued jobs FIFO, one at a time, until shutdown."""
        while True:
            job_id = self._next_job()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs[job_id]
                job["status"] = JOB_RUNNING
                self._save_job(job)
            self._log(f"running {job_id}: {' '.join(self._command(job))}")
            start = time.perf_counter()
            log_path = os.path.join(self._job_dir(job_id), "job.log")
            try:
                with open(log_path, "a") as log_handle:
                    child = subprocess.Popen(
                        self._command(job), stdout=log_handle, stderr=log_handle
                    )
                    self._child, self._child_job = child, job_id
                    atomic_write_json(self._child_path(job_id), {"pid": child.pid})
                    # A shutdown that raced the spawn must still reach the
                    # child, or the daemon would block on a full run.
                    if self._shutdown.is_set():
                        self._terminate_child()
                    code = child.wait()
            except OSError as exc:  # pragma: no cover - spawn failure
                code = None
                with self._lock:
                    job["status"] = JOB_FAILED
                    job["error"] = f"failed to start: {exc}"
                    self._save_job(job)
                continue
            finally:
                self._child, self._child_job = None, None
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self._child_path(job_id))
            elapsed = time.perf_counter() - start
            with self._lock:
                job["exit_code"] = code
                if code == 0:
                    job["status"] = JOB_DONE
                elif code in (EXIT_INTERRUPTED, EXIT_SIGNALED):
                    job["status"] = JOB_INTERRUPTED
                    job["resume"] = True
                elif code is not None and code < 0:
                    # Killed by an unhandled signal: resumable from the last
                    # scheduled checkpoint, same as a crashed sweep worker.
                    job["status"] = JOB_INTERRUPTED
                    job["resume"] = True
                else:
                    job["status"] = JOB_FAILED
                    job["error"] = f"exit code {code} (see {log_path})"
                job["wall_time_s"] = elapsed
                self._save_job(job)
                status = job["status"]
            REGISTRY.counter("serve.jobs_finished", status=status).add()
            self._log(f"{job_id} {status} (exit code {code}, {elapsed:.2f}s)")


class _Handler(BaseHTTPRequestHandler):
    """Routes the v1 API onto the owning :class:`ServeDaemon`."""

    serve: ServeDaemon  # injected by ServeDaemon.start

    # ------------------------------------------------------------------ #
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.serve.quiet:  # pragma: no cover - debug logging
            super().log_message(format, *args)

    def _send_json(self, payload: Any, code: int = 200) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json({"error": message}, code=code)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw.decode() or "{}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0]
        return tuple(part for part in path.split("/") if part)

    def _query(self) -> Dict[str, str]:
        if "?" not in self.path:
            return {}
        query = self.path.split("?", 1)[1]
        return dict(
            pair.split("=", 1) for pair in query.split("&") if "=" in pair
        )

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        route = self._route()
        if route == ("v1", "health"):
            self._send_json({
                "status": "ok",
                "pid": os.getpid(),
                "shutting_down": self.serve._shutdown.is_set(),
                "jobs": self.serve.counts(),
            })
        elif route == ("v1", "jobs"):
            self._send_json({"jobs": self.serve.jobs()})
        elif len(route) == 3 and route[:2] == ("v1", "jobs"):
            job = self.serve.job(route[2])
            if job is None:
                self._send_error_json(404, f"no job {route[2]!r}")
            else:
                self._send_json(job)
        elif len(route) == 4 and route[:2] == ("v1", "jobs") and route[3] == "results":
            raw = self._query().get("since", "0")
            try:
                since = int(raw)
            except ValueError:
                since = -1
            if since < 0:
                self._send_error_json(400, f"since must be a non-negative integer, got {raw!r}")
                return
            lines = self.serve.results_lines(route[2], since=since)
            if lines is None:
                self._send_error_json(404, f"no job {route[2]!r}")
                return
            body = ("\n".join(lines) + ("\n" if lines else "")).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Next-Line", str(since + len(lines)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_error_json(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        route = self._route()
        try:
            if route == ("v1", "runs"):
                job = self.serve.submit("run", self._read_body())
                self._send_json(job, code=201)
            elif route == ("v1", "sweeps"):
                job = self.serve.submit("sweep", self._read_body())
                self._send_json(job, code=201)
            elif route == ("v1", "shutdown"):
                self._send_json({"status": "shutting-down"})
                self.serve.request_shutdown()
            else:
                self._send_error_json(404, f"unknown path {self.path!r}")
        except Exception as exc:  # noqa: BLE001 - any spec error is a 400
            self._send_error_json(400, f"{type(exc).__name__}: {exc}")


class ServeClient:
    """Minimal urllib client for the v1 API (tests, scripts, benchmarks)."""

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, bytes, Dict[str, str]]:
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, response.read(), dict(response.headers)
        except urllib.error.HTTPError as error:
            return error.code, error.read(), dict(error.headers)

    def _json(self, method: str, path: str, payload=None) -> Dict[str, Any]:
        status, body, _ = self._request(method, path, payload)
        document = json.loads(body.decode() or "{}")
        if status >= 400:
            raise RuntimeError(
                f"{method} {path} -> {status}: {document.get('error', body[:200])}"
            )
        return document

    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/health")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._json("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def submit_run(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        return self._json("POST", "/v1/runs", {"spec": spec})

    def submit_sweep(self, spec: Dict[str, Any], **options: Any) -> Dict[str, Any]:
        return self._json("POST", "/v1/sweeps", {"spec": spec, **options})

    def results(self, job_id: str, since: int = 0) -> Tuple[List[str], int]:
        """One page of results lines plus the next ``since`` offset."""
        status, body, headers = self._request(
            "GET", f"/v1/jobs/{job_id}/results?since={int(since)}"
        )
        if status >= 400:
            raise RuntimeError(f"results({job_id!r}) -> {status}")
        lines = [line for line in body.decode().splitlines() if line.strip()]
        return lines, int(headers.get("X-Next-Line", since + len(lines)))

    def stream_results(self, job_id: str, timeout: float = 60.0) -> List[str]:
        """Poll-stream results (every 0.1 s) until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        lines: List[str] = []
        since = 0
        while True:
            page, since = self.results(job_id, since=since)
            lines.extend(page)
            status = self.job(job_id)["status"]
            if status in (JOB_DONE, JOB_FAILED, JOB_INTERRUPTED):
                page, since = self.results(job_id, since=since)
                lines.extend(page)
                return lines
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {status} after {timeout}s")
            time.sleep(0.1)

    def wait(self, job_id: str, timeout: float = 120.0):
        """Block until the job leaves queued/running (polling every 0.1 s);
        returns the job record."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["status"] not in (JOB_QUEUED, JOB_RUNNING):
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['status']} after {timeout}s"
                )
            time.sleep(0.1)

    def shutdown(self) -> Dict[str, Any]:
        return self._json("POST", "/v1/shutdown")


def wait_for_endpoint(
    directory: Union[str, os.PathLike], timeout: float = 30.0
) -> Dict[str, Any]:
    """Wait for a (re)starting daemon's ``serve.json`` to answer health checks."""
    directory = os.fspath(directory)
    deadline = time.monotonic() + timeout
    path = os.path.join(directory, ENDPOINT_FILENAME)
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path) as handle:
                endpoint = json.load(handle)
            try:
                ServeClient(endpoint["url"], timeout=2.0).health()
                return endpoint
            except (OSError, RuntimeError, socket.timeout):
                pass
        time.sleep(0.05)
    raise TimeoutError(f"no live serve endpoint under {directory!r} after {timeout}s")

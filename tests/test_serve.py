"""End-to-end tests for the `python -m repro.sim serve` daemon.

The satellite contract: submit a sweep over the HTTP API, poll its status,
stream its results, shut the daemon down mid-job with exit-code-4 semantics
(the in-flight job checkpoints and is marked resumable), restart the daemon
on the same state directory, and verify the finished job's results are
bitwise identical to an uninterrupted golden run.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.sim import RunSpec, Simulation, Sweep, SweepSpec
from repro.sim.serve import (
    JOB_DONE,
    JOB_INTERRUPTED,
    ServeClient,
    ServeDaemon,
    wait_for_endpoint,
)

from test_sweep import BASE

RUN_SPEC = {
    "name": "serve-run",
    **{k: v for k, v in BASE.items() if k != "checkpoint_every"},
    "checkpoint_every": 1,
}


def sweep_payload(n_steps=3):
    base = dict(BASE, n_steps=n_steps)
    return {
        "name": "serve-sweep",
        "base": base,
        "axes": {"update.rank": [1, 2], "contraction.bond": [2, 4]},
    }


def daemon_env():
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def daemon(tmp_path):
    """A running daemon on a fresh state dir; yields (state_dir, client, proc)."""
    state = tmp_path / "serve"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.sim", "serve", "--dir", str(state)],
        env=daemon_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        endpoint = wait_for_endpoint(state, timeout=60)
        yield state, ServeClient(endpoint["url"]), process
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()


def start_daemon(state):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.sim", "serve", "--dir", str(state)],
        env=daemon_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    endpoint = wait_for_endpoint(state, timeout=60)
    return process, ServeClient(endpoint["url"])


def golden_sweep_bytes(tmp_path, n_steps=3):
    spec = SweepSpec.from_dict(
        dict(sweep_payload(n_steps), sweep_dir=str(tmp_path / "golden"))
    )
    result = Sweep(spec).run(jobs=1)
    assert result.completed
    with open(result.combined_path, "rb") as handle:
        return handle.read()


class TestDaemonLifecycle:
    def test_health_and_404(self, daemon):
        _, client, _ = daemon
        health = client.health()
        assert health["status"] == "ok"
        assert not health["shutting_down"]
        with pytest.raises(RuntimeError, match="404"):
            client.job("job-9999")

    def test_run_submit_poll_stream(self, daemon):
        _, client, _ = daemon
        job = client.submit_run(RUN_SPEC)
        assert job["id"] == "job-0001"
        final = client.wait(job["id"], timeout=120)
        assert final["status"] == JOB_DONE
        assert final["exit_code"] == 0
        lines = client.stream_results(job["id"], timeout=60)
        assert len(lines) == BASE["n_steps"]
        assert all("energy" in json.loads(line) for line in lines)
        # Paged streaming: since=N skips exactly N lines.
        tail, next_line = client.results(job["id"], since=len(lines) - 1)
        assert tail == lines[-1:]
        assert next_line == len(lines)

    def test_bad_submission_rejected_daemon_survives(self, daemon):
        _, client, _ = daemon
        with pytest.raises(RuntimeError, match="400"):
            client.submit_sweep({"base": dict(BASE), "axes": [1, 2, 3]})
        # The removed `executor` option is an unknown body key, not a no-op.
        with pytest.raises(RuntimeError, match="400"):
            client.submit_sweep(sweep_payload(), jobs=2, executor="pool")
        # A worker count is never rounded or parsed, in the body or the spec.
        with pytest.raises(RuntimeError, match="400: TypeError: jobs must be an integer"):
            client.submit_sweep(sweep_payload(), jobs=2.5)
        with pytest.raises(RuntimeError, match="400: TypeError: jobs must be an integer"):
            client.submit_sweep({**sweep_payload(), "jobs": "3"})
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize("since", ["abc", "-1", "1.5", ""])
    def test_bad_results_offset_is_a_400(self, tmp_path, since):
        serve = ServeDaemon(tmp_path / "serve", quiet=True)
        client = ServeClient(serve.start()["url"])
        try:
            status, body, _ = client._request("GET", f"/v1/jobs/job-0001/results?since={since}")
            assert status == 400
            assert "non-negative integer" in json.loads(body)["error"]
            # A valid offset reaches the job lookup; the handler survived.
            status, _, _ = client._request("GET", "/v1/jobs/job-0001/results?since=0")
            assert status == 404
            assert client.health()["status"] == "ok"
        finally:
            assert serve.stop() == 0

    def test_clean_shutdown_exits_zero(self, daemon):
        _, client, process = daemon
        job = client.submit_run(RUN_SPEC)
        client.wait(job["id"], timeout=120)
        client.shutdown()
        assert process.wait(timeout=60) == 0


#: A job that behaves like the CLI under SIGTERM, only slower: the first
#: signal restores the default handler and asks for a stop, and the "step in
#: flight" then takes a second to finish before the checkpoint-and-exit-4.
SLOW_EXIT_CHILD = """
import signal, sys, time
stop = []
def handle(signum, frame):
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    stop.append(signum)
signal.signal(signal.SIGTERM, handle)
open(sys.argv[1], "w").close()
while not stop:
    time.sleep(0.01)
time.sleep(1.0)
sys.exit(4)
"""


class TestShutdownSignalsChildOnce:
    def test_child_slow_to_exit_still_takes_exit_4(self, tmp_path, monkeypatch):
        ready = tmp_path / "ready"
        monkeypatch.setattr(
            ServeDaemon, "_command",
            lambda self, job: [sys.executable, "-c", SLOW_EXIT_CHILD, str(ready)],
        )
        daemon = ServeDaemon(tmp_path / "serve", quiet=True)
        daemon.start()
        job = daemon.submit("run", {"spec": RUN_SPEC})
        deadline = time.monotonic() + 60
        while not ready.exists():
            assert time.monotonic() < deadline, "child never started"
            time.sleep(0.01)
        # What the CLI does on SIGTERM: the handler requests the shutdown,
        # the main thread's wait() then returns through stop() -- here late
        # enough that the child has handled the first signal in between.
        daemon.request_shutdown()
        time.sleep(0.2)
        assert daemon.stop() == 4
        final = daemon.job(job["id"])
        assert final["exit_code"] == 4
        assert final["status"] == JOB_INTERRUPTED


def proc_status(path):
    """The fields of a procfs ``status`` file."""
    with open(path) as handle:
        return dict(line.rstrip("\n").split(":\t", 1) for line in handle if ":\t" in line)


def stop_process(pid):
    """SIGSTOP ``pid`` and return once every thread of it has stopped (or
    exited), so no thread can take a signal sent from here on."""
    os.kill(pid, signal.SIGSTOP)
    deadline = time.monotonic() + 60
    while any(proc_status(f"/proc/{pid}/task/{task}/status")["State"][0] not in "TZ"
              for task in os.listdir(f"/proc/{pid}/task")):
        assert time.monotonic() < deadline, "process never stopped"
        time.sleep(0.001)


def pending_signal(pid, signum):
    """Whether ``signum`` waits, undelivered, for stopped process ``pid``."""
    return bool(int(proc_status(f"/proc/{pid}/status")["ShdPnd"], 16) >> (signum - 1) & 1)


class TestSweepThroughDaemon:
    def test_sweep_results_match_golden(self, tmp_path, daemon):
        golden = golden_sweep_bytes(tmp_path)
        _, client, _ = daemon
        job = client.submit_sweep(sweep_payload(), jobs=2)
        final = client.wait(job["id"], timeout=300)
        assert final["status"] == JOB_DONE, final
        lines = client.stream_results(job["id"], timeout=60)
        assert ("\n".join(lines) + "\n").encode() == golden

    def test_interrupt_exit4_resume_completes_to_golden(self, tmp_path):
        """The satellite scenario: SIGTERM mid-sweep -> daemon exits 4 with
        the job interrupted; a restarted daemon resumes it to completion and
        the results are bitwise identical to the uninterrupted golden run."""
        golden = golden_sweep_bytes(tmp_path, n_steps=25)
        state = tmp_path / "serve"
        process, client = start_daemon(state)
        child = None
        try:
            job = client.submit_sweep(sweep_payload(n_steps=25), jobs=2)
            # The manifest exists once the child sweep has installed its
            # signal handlers.  Stop the child there (its workers finish at
            # most the points in hand and take no more), and check that work
            # is left: a stopped sweep cannot outrun the SIGTERM that is
            # queued for it before it continues.
            job_dir = state / "jobs" / job["id"]
            manifest = job_dir / "work" / "sweep" / "manifest.json"
            deadline = time.monotonic() + 120
            while not (manifest.exists() and (job_dir / "child.json").exists()):
                assert time.monotonic() < deadline, "sweep never started"
                time.sleep(0.01)
            child = json.load(open(job_dir / "child.json"))["pid"]
            stop_process(child)
            statuses = [p["status"] for p in json.load(open(manifest))["points"]]
            assert statuses.count("done") < len(statuses), "sweep finished unstopped"
        finally:
            process.send_signal(signal.SIGTERM)
            if child is not None:
                # The daemon forwards SIGTERM to its child: let the child go
                # once the signal is pending there.
                deadline = time.monotonic() + 60
                while not pending_signal(child, signal.SIGTERM):
                    if time.monotonic() > deadline:
                        break
                    time.sleep(0.01)
                os.kill(child, signal.SIGCONT)
        assert process.wait(timeout=120) == 4, "unfinished work must exit 4"

        interrupted = json.load(
            open(state / "jobs" / job["id"] / "job.json")
        )
        assert interrupted["status"] == JOB_INTERRUPTED
        assert interrupted["resume"] is True
        assert interrupted["exit_code"] == 4

        # Restart on the same directory: the job re-enqueues with --resume.
        process, client = start_daemon(state)
        try:
            final = client.wait(job["id"], timeout=600)
            assert final["status"] == JOB_DONE
            lines = client.stream_results(job["id"], timeout=60)
            assert ("\n".join(lines) + "\n").encode() == golden
            client.shutdown()
            assert process.wait(timeout=120) == 0
        finally:
            if process.poll() is None:
                process.kill()


def spec_processes(spec_path):
    """Pids of the live processes whose command line names ``spec_path``."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    args = handle.read().split(b"\0")
            except OSError:
                continue
            if os.fsencode(spec_path) in args:
                pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
class TestDaemonKilledMidJob:
    def test_restart_stops_the_orphaned_child_before_resuming(self, tmp_path):
        """A SIGKILLed daemon leaves its child running under init.  The
        restarted daemon must stop that child before it starts the job's
        next one, and the finished job matches an uninterrupted run."""
        spec = {**RUN_SPEC, "name": "serve-orphan", "lattice": [3, 3], "n_steps": 100}
        reference = Simulation(RunSpec.from_dict(dict(
            spec, checkpoint_dir=str(tmp_path / "ref"), results=None,
        ))).run()
        state = tmp_path / "serve"
        process, client = start_daemon(state)
        spec_path = None
        try:
            job = client.submit_run(spec)
            spec_path = job["spec_path"]
            checkpoints = state / "jobs" / job["id"] / "work" / "checkpoints"
            deadline = time.monotonic() + 120
            while not list(checkpoints.glob("*.ckpt.json")):
                assert time.monotonic() < deadline, "the job never checkpointed"
                time.sleep(0.02)
            process.kill()
            process.wait(timeout=60)
            orphans = spec_processes(spec_path)
            assert len(orphans) == 1, "the child should outlive its daemon"

            process, client = start_daemon(state)
            # The daemon binds only after recovery: by now the orphan is gone,
            # and at most the job's new child runs it.
            running = spec_processes(spec_path)
            assert orphans[0] not in running and len(running) <= 1
            final = client.wait(job["id"], timeout=300)
            assert final["status"] == JOB_DONE, final
            lines = client.stream_results(job["id"], timeout=60)
            assert [json.loads(line) for line in lines] == reference.records
            client.shutdown()
            assert process.wait(timeout=120) == 0
        finally:
            if process.poll() is None:
                process.kill()
            # Children outlive a killed daemon: leave none running.
            for pid in spec_processes(spec_path) if spec_path else ():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

"""Sweep workers: throughput, overhead pin and requeue latency.

A sweep at ``jobs >= 2`` (``docs/serve.md``) runs every point on forked
workers the parent feeds one point at a time over a pipe, requeueing the
point of a worker that dies, so it needs two regression pins on top of the
bitwise contract:

1. **The dispatch cost is event-driven.**  A sweep's overhead — its wall
   minus the busiest worker's point time, so fork, dispatch and the drain,
   whatever the core count — is measured at ``jobs=4`` with the poll
   interval raised to ``PIN_POLL_SECONDS``; it must stay under half of
   that.  A poll interval back on the critical path (the parent sleeping
   before it sees an outcome or the drain) costs a whole interval and trips
   the bound; fork and fsync noise do not.
2. **Everything is bitwise.**  The combined results document of every leg —
   serial, workers at 2/4, and a worker run whose first point is SIGKILLed
   mid-point — must equal the serial golden byte for byte.

The harness also measures **requeue latency** — the time between the
SIGKILLed point's two ``started`` progress events, i.e. from its first
dispatch to its redispatch after the crash — and emits
``BENCH_queue.json``::

    {
      "benchmark": "queue",
      "scale": "default",
      "n_points": 4, "n_steps": 3,
      "serial":  {"wall_s": ..., "points_per_s": ...},
      "queue":   {"2": {...}, "4": {...}},
      "overhead_s": 0.05,               # best (queue@4 wall - busiest
      "pin_poll_seconds": 0.5,          #  worker) at this poll interval
                                        # (pin: <= half of it)
      "requeue": {"wall_s": ..., "latency_s": ..., "epochs": ...,
                  "requeues": ..., "burned": ...},
      "queue_bitwise_identical": true,
      "fault_bitwise_identical": true
    }

``wall_s``/``latency_s`` are machine-dependent; the bitwise flags and the
manifest's per-point queue stats are exact.  The ``queue-chaos`` CI job re-asserts the pins from
the JSON.
"""

import json
import time

from repro.sim import Sweep, SweepSpec

from benchmarks.conftest import SCALE, print_series, scaled

N_STEPS = scaled(3, 5, smoke=2)
REPEATS = scaled(3, 3, smoke=3)

#: Poll interval of the pinned jobs=4 leg, and the ceiling on its overhead
#: (sweep wall minus the busiest worker's point time) as a share of it.
PIN_POLL_SECONDS = 0.5
MAX_OVERHEAD_POLLS = 0.5

MODEL = {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 1.0],
         "j2": [0.5, 0.5, 0.5], "field": [0.2, 0.2, 0.2]}

BASE = {
    "workload": "ite",
    "lattice": [2, 2],
    "n_steps": N_STEPS,
    "seed": 7,
    "model": MODEL,
    "algorithm": {"tau": 0.05},
    "update": {"kind": "qr", "rank": 2},
    "contraction": {"kind": "ibmps", "bond": 4, "niter": 1, "seed": 0},
    "checkpoint_every": 1,
}

AXES = {"update.rank": [1, 2], "contraction.bond": [2, 4]}


def _spec(tmp_path, subdir, **overrides):
    payload = {
        "name": "bench-queue",
        "base": dict(BASE),
        "axes": dict(AXES),
        "sweep_dir": str(tmp_path / subdir),
    }
    payload.update(overrides)
    return SweepSpec.from_dict(payload)


def _timed_sweep(tmp_path, subdir, jobs, progress=None, **overrides):
    spec = _spec(tmp_path, subdir, **overrides)
    sweep = Sweep(spec)
    start = time.perf_counter()
    result = sweep.run(jobs=jobs, progress=progress)
    elapsed = time.perf_counter() - start
    assert result.completed, result.statuses
    with open(result.combined_path, "rb") as handle:
        combined = handle.read()
    return elapsed, combined, spec


def _busiest_worker_seconds(spec):
    """The longest per-worker sum of point wall times in a finished sweep."""
    busy = {}
    for entry in Sweep.load_manifest(spec.manifest_path)["points"]:
        owner = entry["queue"]["owner"]
        busy[owner] = busy.get(owner, 0.0) + entry["metrics"]["wall_time_s"]
    return max(busy.values())


def test_queue_executor_throughput_and_requeue(benchmark, tmp_path):
    n_points = len(_spec(tmp_path, "probe").expand())
    victim = _spec(tmp_path, "probe").expand()[0].name

    walls = {}  # variant -> best wall_s
    combined = {}  # variant -> combined document bytes (last run)

    overheads = []

    def leg(variant, subdir, jobs, **overrides):
        elapsed, doc, spec = _timed_sweep(tmp_path, subdir, jobs, **overrides)
        walls[variant] = min(walls.get(variant, float("inf")), elapsed)
        combined[variant] = doc
        return elapsed, spec

    # A serial warm-up (the first sweep of a process pays for cold plan
    # caches), the 2-worker leg once, then serial and the pinned 4-worker leg
    # interleaved, each the best of REPEATS (wall-clock noise is additive and
    # positive).
    leg("serial", "serial-warmup", 1)
    leg("queue2", "queue2", 2)
    for repeat in range(REPEATS):
        leg("serial", f"serial-r{repeat}", 1)
        elapsed, spec = leg(
            "queue4", f"queue4-r{repeat}", 4,
            queue={"poll_seconds": PIN_POLL_SECONDS},
        )
        overheads.append(elapsed - _busiest_worker_seconds(spec))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    overhead_s = min(overheads)
    golden = combined["serial"]
    queue_identical = combined["queue2"] == golden and combined["queue4"] == golden

    # Fault leg: SIGKILL the first point's worker after one record; the
    # parent requeues the point and a fresh worker resumes its checkpoint.
    victim_starts = []

    def progress(event):
        if event["event"] == "started" and event["point"] == victim:
            victim_starts.append(time.perf_counter())

    fault_wall, fault_doc, fault_spec = _timed_sweep(
        tmp_path, "fault", 2, progress=progress,
        queue={"fault": {"job": victim, "mode": "sigkill",
                         "after_records": 1, "epochs": [0]}},
    )
    fault_identical = fault_doc == golden
    manifest = Sweep.load_manifest(fault_spec.manifest_path)
    stats = {entry["name"]: entry["queue"] for entry in manifest["points"]}
    latency = victim_starts[1] - victim_starts[0]

    def summary(variant):
        wall = walls[variant]
        return {"wall_s": wall, "points_per_s": n_points / wall}

    rows = [
        ("serial", walls["serial"], n_points / walls["serial"], ""),
        ("workers jobs=2", walls["queue2"], n_points / walls["queue2"], ""),
        ("workers jobs=4", walls["queue4"], n_points / walls["queue4"],
         f"overhead {overhead_s:.3f}s"),
        ("workers jobs=2 + SIGKILL", fault_wall, n_points / fault_wall,
         f"requeue latency {latency:.2f}s"),
    ]
    print_series(
        f"Sweep workers on the {n_points}-point smoke grid ({N_STEPS} steps, "
        f"best of {REPEATS})",
        ("variant", "wall_s", "points/s", "notes"),
        rows,
    )
    benchmark.extra_info["overhead_s"] = overhead_s
    benchmark.extra_info["requeue_latency_s"] = latency

    payload = {
        "benchmark": "queue",
        "scale": SCALE,
        "n_points": n_points,
        "n_steps": N_STEPS,
        "serial": summary("serial"),
        "queue": {"2": summary("queue2"), "4": summary("queue4")},
        "overhead_s": overhead_s,
        "pin_poll_seconds": PIN_POLL_SECONDS,
        "requeue": {
            "wall_s": fault_wall,
            "latency_s": latency,
            "epochs": stats[victim]["epochs"],
            "requeues": stats[victim]["requeues"],
            "burned": stats[victim]["burned"],
        },
        "queue_bitwise_identical": queue_identical,
        "fault_bitwise_identical": fault_identical,
    }
    with open("BENCH_queue.json", "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    # Pinned regressions (mirrored by the queue-chaos CI job).
    assert overhead_s <= MAX_OVERHEAD_POLLS * PIN_POLL_SECONDS, (
        f"sweep workers at jobs=4 cost {overhead_s:.3f}s beyond their points "
        f"(pin: <= {MAX_OVERHEAD_POLLS} of the {PIN_POLL_SECONDS}s poll interval)"
    )
    assert queue_identical, "sweep workers changed the combined document"
    assert fault_identical, "SIGKILL + requeue changed the combined document"
    assert stats[victim]["epochs"] >= 2, stats[victim]
    assert stats[victim]["requeues"] >= 1, stats[victim]
    assert stats[victim]["burned"] >= 1, stats[victim]
    assert 0.0 < latency < 60.0, f"implausible requeue latency {latency!r}s"

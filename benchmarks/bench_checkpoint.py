"""Checkpoint payload formats: size and wall-time, inline JSON vs npz sidecar.

The motivation for the npz payload layer (``docs/checkpoint-format.md``):
base64-inline tensor payloads inflate the on-disk footprint by ~1.3-2x and
dominate checkpoint wall-time at large bond dimensions.  This harness runs
the ctm smoke spec (the acceptance workload pinned by
``tests/test_payload.py``), then writes the *same* workload state as an
all-inline JSON document (the footprint of the legacy inline format, which
is read-only now: the state is serialized with ``store=None``) and through
the npz store, and measures

* checkpoint bytes on disk (JSON document + sidecar, when one exists),
* write time (serialize + atomic persist),
* restore time (load + rebuild the workload state bitwise).

The numbers land in ``BENCH_checkpoint.json``::

    {
      "benchmark": "checkpoint",
      "scale": "default",
      "lattice": [3, 3], "chi": 8, "n_steps": 5,
      "formats": {
        "inline": {"bytes": 26194, "write_s": ..., "restore_s": ...},
        "npz":    {"bytes": 15030, "write_s": ..., "restore_s": ...}
      },
      "npz_over_inline_bytes": 0.574
    }

``REPRO_SCALE=full`` grows the lattice/chi toward the paper's regime, where
the sidecar's advantage (no base64, deflate, content dedup) widens.
"""

import json
import os
import time

from repro.sim import RunSpec, Simulation
from repro.sim import io as sim_io

from benchmarks.conftest import SCALE, print_series, scaled

LATTICE = scaled((3, 3), (4, 4), smoke=(3, 3))
CHI = scaled(8, 16, smoke=8)
N_STEPS = scaled(5, 12, smoke=3)
REPEATS = scaled(5, 3, smoke=2)

MODEL = {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 1.0],
         "j2": [0.5, 0.5, 0.5], "field": [0.2, 0.2, 0.2]}


def _spec(tmp_path):
    nrow, ncol = LATTICE
    return RunSpec.from_dict({
        "name": "bench-ckpt-npz",
        "workload": "ite",
        "lattice": [nrow, ncol],
        "n_steps": N_STEPS,
        "seed": 7,
        "model": MODEL,
        "algorithm": {"tau": 0.05},
        "update": {"kind": "qr", "rank": 2},
        "contraction": {"kind": "ctm", "chi": CHI},
        "measure_every": 1,
        "checkpoint_every": N_STEPS,
        "checkpoint_dir": str(tmp_path / "npz"),
    })


def _checkpoint_bytes(path):
    total = os.path.getsize(path)
    sidecar = sim_io.sidecar_for(path)
    if os.path.exists(sidecar):
        total += os.path.getsize(sidecar)
    return total


def _measure_format(simulation, records, tmp_path, payload_format):
    """Write/restore the live workload state under one payload format."""
    spec = simulation.spec
    directory = str(tmp_path / f"measure-{payload_format}")

    def write():
        store = None if payload_format == "inline" else sim_io.NpzPayloadStore()
        return sim_io.write_checkpoint(
            directory, spec.name, N_STEPS, spec.to_dict(),
            simulation.workload.state_to_dict(store=store), records,
            store=store,
        )

    write_times, restore_times = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        path = write()
        write_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        payload = sim_io.load_checkpoint(path)
        store = sim_io.open_payload_store(payload, path)
        simulation.workload.restore_state(payload["workload_state"], store=store)
        store.close()
        restore_times.append(time.perf_counter() - start)
    return {
        "bytes": _checkpoint_bytes(path),
        "write_s": min(write_times),
        "restore_s": min(restore_times),
    }


def test_checkpoint_size_and_time(benchmark, tmp_path):
    spec = _spec(tmp_path)
    simulation = Simulation(spec)
    result = benchmark.pedantic(simulation.run, rounds=1, iterations=1)
    assert not result.interrupted

    formats = {
        fmt: _measure_format(simulation, result.records, tmp_path, fmt)
        for fmt in ("inline", "npz")
    }
    ratio = formats["npz"]["bytes"] / formats["inline"]["bytes"]

    rows = [
        (fmt, data["bytes"], data["write_s"], data["restore_s"])
        for fmt, data in formats.items()
    ]
    print_series(
        f"Checkpoint payload formats ({LATTICE[0]}x{LATTICE[1]} CTM chi={CHI})",
        ("format", "bytes", "write_s", "restore_s"),
        rows + [("npz/inline", f"{ratio:.3f}", "", "")],
    )
    benchmark.extra_info["formats"] = formats
    benchmark.extra_info["npz_over_inline_bytes"] = ratio

    payload = {
        "benchmark": "checkpoint",
        "scale": SCALE,
        "lattice": list(LATTICE),
        "chi": CHI,
        "n_steps": N_STEPS,
        "formats": formats,
        "npz_over_inline_bytes": ratio,
    }
    with open("BENCH_checkpoint.json", "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    # The acceptance bound enforced by tests/test_payload.py on the smoke
    # spec holds at every scale this harness runs.
    assert ratio <= 0.60, f"npz checkpoint is {ratio:.1%} of inline"

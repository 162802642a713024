"""Config-driven simulation runner with checkpoint/resume serialization.

This subsystem turns the library's driver algorithms into declarative,
resumable *runs*:

* :class:`~repro.sim.spec.RunSpec` — a plain-data run description (model,
  lattice, workload, backend, contraction/update options, measurement
  schedule, checkpoint policy, seed) parseable from dicts/JSON,
* :class:`~repro.sim.runner.Simulation` — the driver that owns the step
  loop, fires measurement hooks on schedule, streams records to a
  JSONL/JSON sink, and writes atomic checkpoints,
* :mod:`~repro.sim.workloads` — pluggable workload adapters for imaginary
  time evolution, VQE and random-circuit amplitudes,
* :mod:`~repro.sim.io` — versioned ``to_dict``/``from_dict`` serialization
  for PEPS (with attached environments) and option objects; tensor
  payloads round-trip bitwise so resumed runs replay uninterrupted ones
  float-for-float,
* :mod:`~repro.sim.sweep` — parameter sweeps: a
  :class:`~repro.sim.sweep.SweepSpec` fans one base RunSpec into a named
  grid of runs (dotted-path override axes or an explicit points list,
  per-point derived seeds) and the :class:`~repro.sim.sweep.Sweep` driver
  executes it resumably — in-process at ``jobs == 1``, on forked workers it
  hands points to at ``jobs >= 2``, requeueing the point of a worker that
  dies — with an atomic manifest and a combined results document,
* :mod:`~repro.sim.serve` — the ``python -m repro.sim serve`` daemon: a
  local HTTP API that accepts run/sweep submissions, executes them FIFO as
  CLI subprocesses, reports status, streams results, and resumes unfinished
  jobs when restarted.

Quick start::

    from repro.sim import RunSpec, Simulation

    spec = RunSpec.from_dict({
        "name": "ite-demo", "workload": "ite", "lattice": [3, 3],
        "n_steps": 20, "seed": 7,
        "model": {"kind": "heisenberg_j1j2"},
        "update": {"kind": "qr", "rank": 2},
        "contraction": {"kind": "ibmps", "bond": 4, "seed": 0},
        "checkpoint_every": 5, "checkpoint_dir": "ckpt",
        "results": "ite-demo.jsonl",
    })
    result = Simulation(spec).run()
    # ... crash or ctrl-C, then later:
    result = Simulation(spec).run(resume=True)

or from the command line::

    python -m repro.sim run spec.json
    python -m repro.sim run spec.json --resume
"""

from importlib import import_module
from typing import TYPE_CHECKING

from repro.sim.io import (
    FORMAT_VERSION,
    PAYLOAD_INLINE,
    PAYLOAD_NPZ,
    InlinePayloadStore,
    NpzPayloadStore,
    PayloadStore,
    SerializationError,
    atomic_write_json,
    contract_option_from_dict,
    contract_option_to_dict,
    latest_checkpoint,
    load_checkpoint,
    open_payload_store,
    peps_from_dict,
    peps_to_dict,
    update_option_from_dict,
    update_option_to_dict,
    write_checkpoint,
)
from repro.sim.runner import Simulation, SimulationResult, run_spec
from repro.sim.sinks import (
    JSONLSink,
    JSONSink,
    MemorySink,
    ResultSink,
    SweepSink,
    make_sink,
)
from repro.sim.spec import SPEC_VERSION, RunSpec, apply_spec_override, register_model
from repro.sim.sweep import (
    Sweep,
    SweepPoint,
    SweepResult,
    SweepSpec,
    derive_point_seed,
)
from repro.sim.workloads import (
    ITEWorkload,
    RQCAmplitudeWorkload,
    VQEWorkload,
    Workload,
    build_workload,
    register_workload,
)

__all__ = [
    "FORMAT_VERSION",
    "SPEC_VERSION",
    "PAYLOAD_INLINE",
    "PAYLOAD_NPZ",
    "PayloadStore",
    "InlinePayloadStore",
    "NpzPayloadStore",
    "open_payload_store",
    "SerializationError",
    "RunSpec",
    "Simulation",
    "SimulationResult",
    "run_spec",
    "SweepSpec",
    "Sweep",
    "SweepPoint",
    "SweepResult",
    "derive_point_seed",
    "ServeClient",
    "ServeDaemon",
    "wait_for_endpoint",
    "apply_spec_override",
    "Workload",
    "ITEWorkload",
    "VQEWorkload",
    "RQCAmplitudeWorkload",
    "build_workload",
    "register_workload",
    "register_model",
    "ResultSink",
    "MemorySink",
    "JSONLSink",
    "JSONSink",
    "SweepSink",
    "make_sink",
    "peps_to_dict",
    "peps_from_dict",
    "contract_option_to_dict",
    "contract_option_from_dict",
    "update_option_to_dict",
    "update_option_from_dict",
    "write_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "atomic_write_json",
]

#: The daemon's names, resolved on first use (PEP 562) so that a run or a
#: sweep never loads ``http.server``, ``urllib.request`` and ``ssl``.
_SERVE_EXPORTS = ("ServeClient", "ServeDaemon", "wait_for_endpoint")


def __getattr__(name: str):
    if name not in _SERVE_EXPORTS:
        raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
    value = getattr(import_module("repro.sim.serve"), name)
    globals()[name] = value
    return value


if TYPE_CHECKING:  # pragma: no cover - import-time typing aid only
    from repro.sim.serve import ServeClient, ServeDaemon, wait_for_endpoint

"""Batched sampling engine: one lockstep group vs one shot per group.

The motivation for the batched contraction engine (``docs/perf.md``): drawing
``nshots`` basis-state samples one shot at a time re-contracts the same
boundary/site einsums once per shot, so the per-site einsum count scales as
``O(nshots * nrow * ncol)``.  The lockstep sampler stacks every shot's
boundary, right environment and site density along a leading batch axis and
advances all shots through one ``einsum_batched`` call per site, collapsing
the count to ``O(nrow * ncol)`` regardless of ``nshots`` — with bitwise
identical samples, because each shot consumes its own derived substream.

This harness evolves the ctm smoke spec (the acceptance workload pinned by
``tests/test_payload.py``), then draws the same 32 shots twice — once in one
group, once in 32 groups of one shot on the same substreams — and measures

* einsum calls issued (``einsum`` + ``einsum_batched``, via FlopCounter),
* sampling wall time (best of ``REPEATS``),
* bitwise agreement of the sampled bits,
* bitwise determinism of full seeded runs across an interrupted
  checkpoint/resume session.

The numbers land in ``BENCH_batching.json``::

    {
      "benchmark": "batching",
      "scale": "default",
      "lattice": [3, 3], "chi": 8, "n_steps": 5, "nshots": 32,
      "one_shot_groups": {"wall_s": ..., "einsum_calls": 2002, "calls_by_category": {...}},
      "lockstep":        {"wall_s": ..., "einsum_calls": 62,   "calls_by_category": {...}},
      "einsum_call_ratio": 0.03,
      "sampling_speedup": 7.1,
      "bits_bitwise_identical": true,
      "resume_bitwise_identical": true
    }

``wall_s`` is machine-dependent; the call counts are algorithmic and
comparable across machines.  ``REPRO_SCALE=full`` grows the lattice/chi
toward the paper's regime, where batching's advantage widens (the batched
call count stays flat while the one-shot count scales with the lattice).
"""

import json
import time

import numpy as np

from repro.backends import get_backend
from repro.peps.envs import make_environment
from repro.peps.envs.sampling import _sample_group, _SamplingPlan
from repro.sim import RunSpec, Simulation
from repro.utils.flops import FlopCounter
from repro.utils.rng import derive_rng

from benchmarks.conftest import SCALE, print_series, scaled

LATTICE = scaled((3, 3), (4, 4), smoke=(3, 3))
CHI = scaled(8, 16, smoke=8)
N_STEPS = scaled(5, 8, smoke=3)
REPEATS = scaled(3, 3, smoke=2)

#: The acceptance pin ("batched sampling issues <= 25% of the one-shot
#: per-site einsum calls") is stated at 32 shots; keep it fixed across scales.
NSHOTS = 32

#: Pinned ceiling on (one-group einsum calls) / (one-shot-group einsum calls).
MAX_CALL_RATIO = 0.25

MODEL = {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 1.0],
         "j2": [0.5, 0.5, 0.5], "field": [0.2, 0.2, 0.2]}


def _spec(tmp_path, name, **overrides):
    nrow, ncol = LATTICE
    payload = {
        "name": name,
        "workload": "ite",
        "lattice": [nrow, ncol],
        "n_steps": N_STEPS,
        "seed": 7,
        "model": MODEL,
        "algorithm": {"tau": 0.05, "nshots": NSHOTS},
        "update": {"kind": "qr", "rank": 2},
        "contraction": {"kind": "ctm", "chi": CHI},
        "observables": ["sample"],
        "measure_every": 1,
        "checkpoint_every": 1,
        "checkpoint_dir": str(tmp_path / name),
    }
    payload.update(overrides)
    return RunSpec.from_dict(payload)


def _one_group(state, option):
    return state.sample(rng=derive_rng(7, "bench-batching"), nshots=NSHOTS,
                        contract_option=option)


def _groups_of_one(state, option):
    """The same shots, each advanced as its own group on its own substream."""
    root = int(derive_rng(7, "bench-batching").integers(0, 2**63 - 1, dtype=np.int64))
    plan = _SamplingPlan(make_environment(state, option))
    return np.concatenate(
        [_sample_group(plan, [derive_rng(root, "shot", s)]) for s in range(NSHOTS)]
    )


def _measure_sampling(draw, state, option, counter):
    """Draw the pinned shot budget one way, repeatedly."""
    times, bits, calls = [], None, None
    for _ in range(REPEATS):
        counter.reset()
        start = time.perf_counter()
        bits = draw(state, option)
        times.append(time.perf_counter() - start)
        calls = counter.calls_by_category()
    return bits, min(times), calls


def _einsum_calls(calls):
    return calls.get("einsum", 0) + calls.get("einsum_batched", 0)


def test_lockstep_sampling_calls_and_determinism(benchmark, tmp_path):
    counter = FlopCounter()
    spec = _spec(tmp_path, "bench-batching")
    spec.backend = get_backend("numpy", flop_counter=counter)
    simulation = Simulation(spec)
    full = benchmark.pedantic(simulation.run, rounds=1, iterations=1)
    assert not full.interrupted

    state = simulation.workload.state
    option = spec.build_contract_option()
    single_bits, single_s, single_calls = _measure_sampling(
        _groups_of_one, state, option, counter
    )
    lockstep_bits, lockstep_s, lockstep_calls = _measure_sampling(
        _one_group, state, option, counter
    )
    ratio = _einsum_calls(lockstep_calls) / _einsum_calls(single_calls)
    bits_identical = bool(np.array_equal(single_bits, lockstep_bits))

    # Seeded runs are bitwise deterministic: an interrupted-then-resumed
    # session reproduces the reference records (energies and sampled bits)
    # exactly.
    interrupted_spec = _spec(tmp_path, "bench-batching-resume")
    partial = Simulation(interrupted_spec).run(stop_after=max(1, N_STEPS // 2))
    assert partial.interrupted
    resumed = Simulation(interrupted_spec).run(resume=True)
    resume_identical = resumed.records == full.records

    rows = [
        ("one-shot groups", _einsum_calls(single_calls), single_s),
        ("one group", _einsum_calls(lockstep_calls), lockstep_s),
        ("ratio", f"{ratio:.3f}", f"{single_s / lockstep_s:.2f}x"),
    ]
    print_series(
        f"Sampling {NSHOTS} shots ({LATTICE[0]}x{LATTICE[1]} CTM chi={CHI})",
        ("grouping", "einsum_calls", "wall_s"),
        rows,
    )
    benchmark.extra_info["einsum_call_ratio"] = ratio
    benchmark.extra_info["sampling_speedup"] = single_s / lockstep_s

    payload = {
        "benchmark": "batching",
        "scale": SCALE,
        "lattice": list(LATTICE),
        "chi": CHI,
        "n_steps": N_STEPS,
        "nshots": NSHOTS,
        "one_shot_groups": {
            "wall_s": single_s,
            "einsum_calls": _einsum_calls(single_calls),
            "calls_by_category": single_calls,
        },
        "lockstep": {
            "wall_s": lockstep_s,
            "einsum_calls": _einsum_calls(lockstep_calls),
            "calls_by_category": lockstep_calls,
        },
        "einsum_call_ratio": ratio,
        "sampling_speedup": single_s / lockstep_s,
        "bits_bitwise_identical": bits_identical,
        "resume_bitwise_identical": resume_identical,
    }
    with open("BENCH_batching.json", "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    # Pinned regressions (mirrored by the bench-batching CI job).
    assert ratio <= MAX_CALL_RATIO, (
        f"one lockstep group issues {ratio:.1%} of the one-shot groups' "
        f"einsum calls (pin: <= {MAX_CALL_RATIO:.0%})"
    )
    assert lockstep_s < single_s, (
        f"one lockstep group ({lockstep_s:.3f}s) is not faster than one-shot "
        f"groups ({single_s:.3f}s)"
    )
    assert bits_identical, "one group and one-shot groups drew different bits"
    assert resume_identical, "checkpoint/resume changed the seeded records"

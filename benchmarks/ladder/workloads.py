"""The seven ladder workloads: inputs from a seed, one pass, and an oracle.

Every workload builds its inputs from ``seed`` alone (``setup``), runs the
library once on them (``run``), and checks the result against an oracle that
does not share the code path under test (``check``): the exact statevector
simulator, a dense contraction of the PEPS written here in plain NumPy, or —
for the one lattice too large for either — the same algorithm at twice the
bond.  Sizes are chosen so that one pass takes roughly 0.3-1.2 s on a single
2 GHz core; see README.md for the sizing measurements.

The tolerance stated next to each oracle is four to ten times the worst
deviation seen over 40 seeds (given beside it), so no operation fails on a
healthy library while an O(1) error (a wrong contraction, a dropped term)
is caught.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from repro.backends import get_backend
from repro.circuits.random_circuits import random_quantum_circuit
from repro.peps import BMPS, CTMOption, TwoLayerBMPS
from repro.peps.peps import PEPS, random_peps
from repro.sim import RunSpec, Simulation, Sweep, SweepSpec
from repro.statevector.statevector import StateVector
from repro.tensornetwork import ExplicitSVD, ImplicitRandomizedSVD
from repro.utils.rng import derive_rng


@dataclass
class Check:
    """Outcome of one oracle comparison."""

    attempted: int  # operations one pass performs (steps, gates, shots, ...)
    failed: int     # of those, how many missed their tolerance
    rel_err: float  # the workload's deviation from its oracle


def dense_state(grid) -> np.ndarray:
    """The exact amplitudes of a small PEPS, contracted site by site in NumPy.

    Site tensors are ``(phys, up, left, down, right)``.  The running tensor is
    ``(physical legs so far, one open down leg per column, right leg)``; the
    first site is the slowest bit of the flat index.
    """
    ncol = len(grid[0])
    state = np.ones((1,) * (ncol + 1), dtype=np.complex128)
    for row in grid:
        tensor = state[..., np.newaxis]
        for j, site in enumerate(row):
            # Close column j's old down leg with ``up`` and the running right
            # leg with ``left``; ``phys`` joins the flat index, ``down`` takes
            # column j's place.
            tensor = np.tensordot(
                tensor, np.asarray(site), axes=([1 + j, tensor.ndim - 1], [1, 2])
            )
            last = tensor.ndim
            tensor = np.moveaxis(tensor, [last - 3, last - 2], [1, 2 + j])
            tensor = tensor.reshape((-1,) + tensor.shape[2:])
        state = tensor[..., 0]
    return state.reshape(-1)


def _z_expectations(amplitudes: np.ndarray, n_sites: int) -> np.ndarray:
    """Exact ``<Z_q>`` of every site (row-major qubits, first site slowest)."""
    probabilities = np.abs(amplitudes) ** 2
    probabilities /= probabilities.sum()
    index = np.arange(probabilities.size)
    return np.array([
        np.sum(probabilities * (1 - 2 * ((index >> (n_sites - 1 - q)) & 1)))
        for q in range(n_sites)
    ])


def _j1j2_model(rng: np.random.Generator) -> Dict[str, Any]:
    """The paper's J1-J2 Heisenberg model with seed-drawn J2 and field."""
    j2 = float(rng.uniform(0.4, 0.6))
    field = float(rng.uniform(0.1, 0.3))
    return {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 1.0],
            "j2": [j2, j2, j2], "field": [field, field, field]}


def _exact_ite_energy(spec: RunSpec) -> float:
    """Final energy per site of the exact statevector ITE of ``spec``."""
    hamiltonian = spec.build_model()
    plus = np.full(2 ** spec.n_sites, 2.0 ** (-spec.n_sites / 2), dtype=np.complex128)
    _, energies = StateVector(plus).imaginary_time_evolution(
        hamiltonian, spec.algorithm["tau"], spec.n_steps
    )
    return energies[-1]


def _rqc_amplitude_error(spec: RunSpec, amplitude: complex):
    """Deviation of ``amplitude`` from the statevector simulator's all-zeros
    amplitude of ``spec``'s circuit, and the circuit's gate count.

    Relative to the exact amplitude, but to no less than the uniform
    amplitude ``2^(-n/2)``: the discrete gate set makes some amplitudes
    exactly zero.
    """
    circuit = random_quantum_circuit(
        spec.nrow, spec.ncol, n_layers=spec.algorithm["n_layers"],
        entangle_every=spec.algorithm["entangle_every"],
        seed=derive_rng(spec.seed, "circuit"),
    )
    state = StateVector.computational_zeros(spec.n_sites).apply_circuit(circuit)
    exact = state.amplitude([0] * spec.n_sites)
    scale = max(abs(exact), 2.0 ** (-spec.n_sites / 2))
    return abs(amplitude - exact) / scale, len(circuit.gates)


class Workload:
    """One rung of the ladder.  Subclasses fill in the three phases."""

    name = ""
    why = ""

    def setup(self, seed: int, workdir: str) -> Any:
        """Build the inputs from ``seed`` (timed as ``setup_s``)."""
        raise NotImplementedError

    def run(self, inputs: Any) -> Dict[str, Any]:
        """One pass.  Returns ``{"value": ..., "layer": {metric: number}}``;
        ``value`` must repeat exactly from pass to pass."""
        raise NotImplementedError

    def check(self, inputs: Any, value: Any) -> Check:
        """Compare one pass's ``value`` with the oracle."""
        raise NotImplementedError

    def flops(self, inputs: Any, counted: float) -> float:
        """Backend-counted flops of the counted pass (NumPy counter by default)."""
        return counted

    def layer_extras(self, inputs: Any, wall: float) -> Dict[str, float]:
        """Per-layer metrics only this workload can measure, after the traced
        passes; ``wall`` is the median untraced pass."""
        return {}


class IteJ1J2(Workload):
    name = "ite_j1j2"
    why = ("Fig. 13: 4x4 J1-J2 ITE, qr r=3, bmps m=9, energy every step; "
           "strip terms and contract_network carry it, peps.update little")
    steps = 2
    #: truncation (r=3, m=9) plus Trotter error after two steps; worst seen 1.6e-4
    tolerance = 2e-3

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        return {
            "name": "ite_j1j2", "workload": "ite", "lattice": [4, 4],
            "n_steps": self.steps, "seed": seed, "model": _j1j2_model(rng),
            "algorithm": {"tau": 0.05},
            "update": {"kind": "qr", "rank": 3},
            "contraction": {"kind": "bmps", "bond": 9},
            "measure_every": 1, "checkpoint_every": 0,
            "results": os.path.join(workdir, "ite_j1j2.jsonl"),
        }

    def run(self, inputs):
        result = Simulation(RunSpec.from_dict(inputs)).run()
        if result.interrupted:
            raise RuntimeError(f"run stopped early: {result.stop_reason} {result.error}")
        return {"value": result.energies}

    def check(self, inputs, value):
        exact = _exact_ite_energy(RunSpec.from_dict(inputs))
        rel_err = abs(value[-1] - exact) / abs(exact)
        failed = self.steps if not rel_err <= self.tolerance else 0
        return Check(self.steps, failed, rel_err)


class RqcEvolve(Workload):
    name = "rqc_evolve"
    why = ("Fig. 7: 4x4 random circuits, 8 layers, qr r=16 (no truncation), one "
           "ibmps amplitude each; apply_two_site_operator carries it, peps.envs nothing")
    circuits = 8
    layers = 8
    #: exact evolution (r = 4^2), seeded implicit single-layer contraction;
    #: worst seen 9.6e-10
    tolerance = 1e-6

    def setup(self, seed, workdir):
        return [
            {
                "name": f"rqc-{index}", "workload": "rqc_amplitude", "lattice": [4, 4],
                "seed": int(np.random.default_rng([seed, 2, index]).integers(2 ** 31)),
                "algorithm": {"n_layers": self.layers, "entangle_every": 4},
                "update": {"kind": "qr", "rank": 16},
                "contraction": {"kind": "ibmps", "bond": 16, "seed": 0},
                # one amplitude, after the last gate
                "measure_every": 10 ** 6, "checkpoint_every": 0,
            }
            for index in range(self.circuits)
        ]

    def run(self, inputs):
        amplitudes = []
        for payload in inputs:
            result = Simulation(RunSpec.from_dict(payload)).run()
            if result.interrupted:
                raise RuntimeError(f"run stopped early: {result.stop_reason} {result.error}")
            record = result.records[-1]
            amplitudes.append(complex(record["amplitude_real"], record["amplitude_imag"]))
        return {"value": amplitudes}

    def check(self, inputs, value):
        attempted = failed = 0
        rel_err = 0.0
        for payload, amplitude in zip(inputs, value):
            error, gates = _rqc_amplitude_error(RunSpec.from_dict(payload), amplitude)
            rel_err = max(rel_err, error)
            attempted += gates
            if not error <= self.tolerance:
                failed += gates
        return Check(attempted, failed, rel_err)


class _Norm(Workload):
    """``state.norm(option)`` of a random PEPS, against a reference norm."""

    nrow = ncol = 4
    bond = 4
    tolerance = 0.0

    def option(self, seed: int):
        raise NotImplementedError

    def setup(self, seed, workdir):
        return {"seed": seed,
                "grid": random_peps(self.nrow, self.ncol, bond_dim=self.bond, seed=seed).grid}

    def run(self, inputs):
        # A fresh state (and backend) per pass: nothing cached carries over.
        state = PEPS(inputs["grid"], "numpy")
        return {"value": state.norm(self.option(inputs["seed"]))}

    def reference(self, inputs) -> float:
        return float(np.linalg.norm(dense_state(inputs["grid"])))

    def check(self, inputs, value):
        reference = self.reference(inputs)
        rel_err = abs(value - reference) / reference
        return Check(1, 0 if rel_err <= self.tolerance else 1, rel_err)


class NormBmps(_Norm):
    name = "norm_bmps"
    why = ("Table II baseline: 4x4 D=4 norm, BMPS with explicit SVD m=12; the fused "
           "tensor is materialised, backends svd and the explicit einsumsvd dominate")
    #: explicit truncation to m=12 of an exact boundary bond of 16..256;
    #: worst seen 6.9e-2
    tolerance = 0.3

    def option(self, seed):
        return BMPS(ExplicitSVD(rank=12))


class NormIbmps(_Norm):
    name = "norm_ibmps"
    why = ("the paper's two-layer IBMPS: 6x6 D=4 norm, implicit randomized SVD m=16; "
           "absorb_sandwich_row with the layers never fused, many small einsums, no large SVD")
    nrow = ncol = 6
    #: m=16 against the same algorithm at m=32 with other probes (36 qubits
    #: rule out an exact reference); worst seen 2.3e-2
    tolerance = 0.1

    def option(self, seed):
        return TwoLayerBMPS(ImplicitRandomizedSVD(rank=16, seed=seed))

    def reference(self, inputs):
        option = TwoLayerBMPS(ImplicitRandomizedSVD(rank=32, seed=inputs["seed"] + 1))
        return PEPS(inputs["grid"], "numpy").norm(option)


class SampleCtm(Workload):
    name = "sample_ctm"
    why = ("4x4 D=2 CTM chi=8: build, <Z> on all sites, 12 lockstep shots; the only "
           "rung where einsum_batched, CTM moves and the sampler carry the time")
    shots = 12
    #: chi=8 truncates a corner bond of up to 16: allowance on <Z> (worst seen
    #: 6.9e-2) and on the sampled marginals, on top of the 5 sigma binomial band
    tolerance = 0.25

    def setup(self, seed, workdir):
        return {"seed": seed, "grid": random_peps(4, 4, bond_dim=2, seed=seed).grid}

    def run(self, inputs):
        state = PEPS(inputs["grid"], "numpy")
        env = state.attach_environment(CTMOption(chi=8))
        env.build()
        z_values = env.measure_1site(np.diag([1.0, -1.0]))
        bits = state.sample(rng=inputs["seed"], nshots=self.shots)
        return {
            "value": ([z_values[site] for site in range(16)], bits.tolist()),
            "layer": {"peps.envs.uniform_fallbacks": env.stats.uniform_fallbacks},
        }

    def check(self, inputs, value):
        z_values, bits = value
        exact = _z_expectations(dense_state(inputs["grid"]), 16)
        errors = np.abs(np.asarray(z_values) - exact)
        failed = int(np.sum(~(errors <= self.tolerance)))
        # Each shot is one operation; a site whose sampled frequency leaves
        # the 5 sigma band around its exact marginal fails every shot.
        p_one = (1.0 - exact) / 2.0
        frequency = np.asarray(bits, dtype=float).mean(axis=0)
        band = 5.0 * np.sqrt(p_one * (1.0 - p_one) / self.shots) + self.tolerance
        if np.any(~(np.abs(frequency - p_one) <= band)):
            failed += self.shots
        return Check(16 + self.shots, failed, float(errors.max()))


class NormDist(_Norm):
    name = "norm_dist"
    why = ("4x4 D=3 IBMPS m=12 norm on the distributed backend (4 simulated ranks): "
           "plan_einsum, canonical-block execution and cost charging are all of it")
    bond = 3
    #: m=12 implicit truncation against the exact dense norm; worst seen 3.1e-2
    tolerance = 0.15

    def option(self, seed):
        return BMPS(ImplicitRandomizedSVD(rank=12, seed=seed))

    def setup(self, seed, workdir):
        backend = get_backend("distributed", nprocs=4, executor="simulated")
        state = random_peps(4, 4, bond_dim=self.bond, backend=backend, seed=seed)
        # "grid": the same tensors as NumPy arrays, for the reference and
        # for the NumPy twin of the contraction.
        grid = [[backend.asarray(site) for site in row] for row in state.grid]
        return {"seed": seed, "backend": backend, "state": state, "grid": grid}

    def run(self, inputs):
        backend = inputs["backend"]
        backend.reset_stats()
        value = inputs["state"].norm(self.option(inputs["seed"]))
        stats = backend.stats
        return {
            "value": value,
            "layer": {
                "backends.distributed.predicted_s": backend.simulated_seconds,
                "backends.distributed.comm_bytes": stats.comm_bytes,
                "backends.distributed.messages": stats.messages,
            },
        }

    def layer_extras(self, inputs, wall):
        # The same contraction on the NumPy backend: _Norm.run on "grid".
        numpy_walls = []
        for _ in range(5):
            begin = time.perf_counter()
            super().run(inputs)
            numpy_walls.append(time.perf_counter() - begin)
        return {"backends.distributed.overhead_ratio": wall / statistics.median(numpy_walls)}

    def flops(self, inputs, counted):
        return inputs["backend"].stats.flops


class SweepShell(Workload):
    name = "sweep_shell"
    why = ("24-point sweep of 2x2 random circuits, one npz checkpoint per point: physics is "
           "small; spec expansion, runner loop, io, sinks and manifest are the work")
    axes = {"update.rank": [16, 24, 32], "contraction.bond": [16, 32],
            "algorithm.n_layers": [2, 3, 4, 5]}
    #: r >= 4^2 keeps the evolution exact and a 2x2 amplitude contracts
    #: exactly; worst seen 1.5e-14
    tolerance = 1e-8

    def setup(self, seed, workdir):
        return {
            "name": "sweep_shell",
            "base": {
                "name": "point", "workload": "rqc_amplitude", "lattice": [2, 2],
                "seed": seed, "algorithm": {"n_layers": 4, "entangle_every": 2},
                "update": {"kind": "qr", "rank": 16},
                "contraction": {"kind": "ibmps", "bond": 16, "seed": 0},
                # one amplitude, after the last gate
                "measure_every": 10 ** 6,
                # only after the last gate: a checkpoint per gate makes the
                # pass a test of the disk's fsync
                "checkpoint_every": 10 ** 6, "checkpoint_payload": "npz",
            },
            "axes": self.axes,
            "sweep_dir": os.path.join(workdir, "sweep_shell"),
            "jobs": 1,
        }

    def run(self, inputs):
        result = Sweep(SweepSpec.from_dict(inputs)).run()
        if not result.completed:
            raise RuntimeError(f"sweep incomplete: {result.statuses} {result.errors}")
        return {"value": sorted(
            (record["point"], record["amplitude_real"], record["amplitude_imag"])
            for record in result.records if "amplitude_real" in record
        )}

    def check(self, inputs, value):
        points = {point.name: point.spec for point in SweepSpec.from_dict(inputs).expand()}
        failed = 0
        rel_err = 0.0
        for name, real, imag in value:
            error, _gates = _rqc_amplitude_error(points[name], complex(real, imag))
            rel_err = max(rel_err, error)
            failed += not error <= self.tolerance
        failed += len(points) - len(value)
        return Check(len(points), int(failed), rel_err)


WORKLOADS: List[Workload] = [
    IteJ1J2(), RqcEvolve(), NormBmps(), NormIbmps(), SampleCtm(), NormDist(), SweepShell(),
]

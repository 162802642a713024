"""Pluggable workloads: the algorithm loops the simulation driver can run.

A :class:`Workload` adapts one of the library's driver algorithms to the
runner's step/measure/checkpoint contract:

* ``setup()`` builds the algorithm objects and the initial state from the
  :class:`~repro.sim.spec.RunSpec`,
* ``step(i)`` advances the run by one resumable unit (a Trotter step, an
  optimizer segment, a circuit gate),
* ``measure(i)`` returns the JSON record for step ``i``,
* ``state_to_dict()`` / ``restore_state()`` round-trip everything ``step``
  depends on, bitwise, so a resumed run replays an uninterrupted one
  float-for-float.

Three workloads ship with the library, mirroring the paper's studies:
:class:`ITEWorkload` (Fig. 13), :class:`VQEWorkload` (Fig. 14) and
:class:`RQCAmplitudeWorkload` (Fig. 10).  Register custom workloads with
:func:`register_workload`.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Type

import numpy as np

from repro.sim.io import (
    FORMAT_VERSION,
    PayloadStore,
    SerializationError,
    peps_from_dict,
    peps_to_dict,
)
from repro.sim.spec import RunSpec
from repro.utils.rng import derive_rng
from repro.utils.text import did_you_mean

#: Registry of workload kinds (spec ``workload`` field -> class).
WORKLOADS: Dict[str, Type["Workload"]] = {}


def register_workload(name: str):
    """Class decorator registering a workload under a spec ``workload`` kind."""

    def _register(cls: Type["Workload"]) -> Type["Workload"]:
        cls.name = name
        WORKLOADS[name] = cls
        return cls

    return _register


def build_workload(spec: RunSpec) -> "Workload":
    """Instantiate the workload named by ``spec.workload``."""
    cls = WORKLOADS.get(spec.workload)
    if cls is None:
        raise ValueError(
            f"unknown workload {spec.workload!r}; registered: {sorted(WORKLOADS)}"
        )
    return cls(spec)


class Workload(abc.ABC):
    """One resumable algorithm loop driven by :class:`~repro.sim.runner.Simulation`."""

    #: registry name, set by :func:`register_workload`
    name: str = ""

    #: spec ``observables`` names this workload knows how to record
    supported_observables: frozenset = frozenset()

    #: spec ``algorithm`` keys this workload reads; any other key is an error
    algorithm_keys: frozenset = frozenset()

    def __init__(self, spec: RunSpec) -> None:
        label = self.name or type(self).__name__
        unsupported = set(spec.observables) - set(self.supported_observables)
        if unsupported:
            raise ValueError(
                f"workload {label!r} does not record "
                f"observables {sorted(unsupported)}; supported: "
                f"{sorted(self.supported_observables) or 'none'}"
            )
        unknown = sorted(set(spec.algorithm) - set(self.algorithm_keys))
        if unknown:
            raise ValueError(
                f"workload {label!r} does not read algorithm keys {unknown}; "
                f"known: {sorted(self.algorithm_keys) or 'none'}"
                f"{did_you_mean(unknown[0], self.algorithm_keys)}"
            )
        self.spec = spec

    # ------------------------------------------------------------------ #
    # Driver contract
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def setup(self) -> None:
        """Build algorithm objects and the initial state from the spec."""

    def total_steps(self) -> int:
        """How many steps the run comprises (defaults to ``spec.n_steps``)."""
        if self.spec.n_steps is None:
            raise ValueError(
                f"workload {self.name!r} needs an explicit n_steps in the spec"
            )
        return self.spec.n_steps

    @abc.abstractmethod
    def step(self, step_index: int) -> None:
        """Advance by one resumable unit (``step_index`` is 1-based)."""

    @abc.abstractmethod
    def measure(self, step_index: int) -> Dict[str, Any]:
        """The JSON record for ``step_index`` (merged into the step record)."""

    def summary(self) -> Dict[str, Any]:
        """Final JSON summary merged into the simulation result."""
        return {}

    # ------------------------------------------------------------------ #
    # Checkpoint contract
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def state_to_dict(self, store: Optional[PayloadStore] = None) -> Dict[str, Any]:
        """Serialize everything ``step`` depends on (bitwise round trip).

        Tensor payloads must be encoded through ``store`` (when given) so
        the checkpoint's payload format — inline base64 or npz sidecar —
        is the store's choice, not the workload's.
        """

    @abc.abstractmethod
    def restore_state(
        self, payload: Dict[str, Any], store: Optional[PayloadStore] = None
    ) -> None:
        """Restore from :meth:`state_to_dict` output (after :meth:`setup`).

        ``store`` resolves the payload's tensor references (see
        :func:`repro.sim.io.open_payload_store`).
        """

    def _check_state(self, payload: Dict[str, Any]) -> None:
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported workload state version {version!r}"
            )
        if payload.get("workload") != self.name:
            raise SerializationError(
                f"checkpoint belongs to workload {payload.get('workload')!r}, "
                f"this run is {self.name!r}"
            )


# --------------------------------------------------------------------- #
# Imaginary time evolution (Fig. 13)
# --------------------------------------------------------------------- #
@register_workload("ite")
class ITEWorkload(Workload):
    """TEBD imaginary time evolution of a PEPS toward the model ground state.

    Algorithm parameters (``spec.algorithm``):

    * ``tau`` — imaginary time step (default 0.05),
    * ``initial_state`` — ``"plus"`` (default), ``"zeros"`` or an explicit
      list of basis values.

    Records carry ``energy`` (per site) and ``max_bond``; the optional
    spec observables ``"norm"`` and ``"sample"`` add the cached norm and
    ``algorithm["nshots"]`` basis-state samples (drawn from the per-step
    substream of the run seed).
    """

    supported_observables = frozenset({"norm", "sample"})
    algorithm_keys = frozenset({"tau", "initial_state", "nshots"})

    def setup(self) -> None:
        from repro.algorithms.ite import ImaginaryTimeEvolution
        from repro.peps import peps as peps_module

        spec = self.spec
        alg = spec.algorithm
        self.hamiltonian = spec.build_model()
        self.ite = ImaginaryTimeEvolution(
            self.hamiltonian,
            tau=alg.get("tau", 0.05),
            update_option=spec.build_update_option(),
            contract_option=spec.build_contract_option(),
        )
        initial = alg.get("initial_state", "plus")
        if initial == "plus":
            state = self.ite.initial_state(spec.resolve_backend())
        elif initial == "zeros":
            state = peps_module.computational_zeros(
                spec.nrow, spec.ncol, backend=spec.resolve_backend()
            )
        elif isinstance(initial, (list, tuple)):
            state = peps_module.computational_basis(
                list(initial), spec.nrow, spec.ncol, backend=spec.resolve_backend()
            )
        else:
            raise ValueError(f"unknown initial_state {initial!r}")
        self.state = state.copy()
        self.state.attach_environment(self.ite.contract_option)

    def step(self, step_index: int) -> None:
        self.state = self.ite.advance(self.state)

    def measure(self, step_index: int) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "energy": self.ite.energy(self.state),
            "max_bond": self.state.max_bond_dimension(),
        }
        if "norm" in self.spec.observables:
            record["norm"] = self.state.norm()
        if "sample" in self.spec.observables:
            nshots = self.spec.algorithm.get("nshots", 1)
            rng = derive_rng(self.spec.seed, "sample", step_index)
            record["samples"] = self.state.sample(rng=rng, nshots=nshots).tolist()
        return record

    def summary(self) -> Dict[str, Any]:
        return {"final_max_bond": self.state.max_bond_dimension()}

    def state_to_dict(self, store: Optional[PayloadStore] = None) -> Dict[str, Any]:
        return {
            "format_version": FORMAT_VERSION,
            "workload": self.name,
            "peps": peps_to_dict(self.state, include_environment=True, store=store),
        }

    def restore_state(
        self, payload: Dict[str, Any], store: Optional[PayloadStore] = None
    ) -> None:
        self._check_state(payload)
        self.state = peps_from_dict(payload["peps"], backend=self.spec.resolve_backend(), store=store)
        if self.state.environment is None:
            self.state.attach_environment(self.ite.contract_option)


# --------------------------------------------------------------------- #
# Variational quantum eigensolver (Fig. 14)
# --------------------------------------------------------------------- #
@register_workload("vqe")
class VQEWorkload(Workload):
    """VQE optimization, one bounded SLSQP segment per driver step.

    Algorithm parameters (``spec.algorithm``):

    * ``n_layers`` — ansatz layers (default 2),
    * ``simulator`` — ``"peps"`` (default) or ``"statevector"``,
    * ``iters_per_step`` — SLSQP iterations per driver step (default 1),
    * ``initial_parameters`` — explicit start vector; by default drawn
      uniformly from ``[-0.1, 0.1]`` using the run seed's ``"vqe-init"``
      substream.

    Each step restarts SLSQP from the current parameter vector, which makes
    the step a deterministic function of the checkpointed parameters (see
    :meth:`repro.algorithms.vqe.VQE.optimize_segment`).
    """

    algorithm_keys = frozenset(
        {"n_layers", "simulator", "initial_parameters", "iters_per_step"}
    )

    def setup(self) -> None:
        from repro.algorithms.vqe import VQE

        spec = self.spec
        alg = spec.algorithm
        self.vqe = VQE(
            spec.build_model(),
            n_layers=alg.get("n_layers", 2),
            simulator=alg.get("simulator", "peps"),
            update_option=spec.build_update_option(),
            contract_option=spec.build_contract_option(),
            backend=spec.resolve_backend(),
        )
        initial = alg.get("initial_parameters")
        if initial is None:
            rng = derive_rng(spec.seed, "vqe-init")
            initial = rng.uniform(-0.1, 0.1, self.vqe.n_parameters)
        self.parameters = np.asarray(initial, dtype=float)
        if self.parameters.size != self.vqe.n_parameters:
            raise ValueError(
                f"expected {self.vqe.n_parameters} initial parameters, "
                f"got {self.parameters.size}"
            )
        self.last_energy: Optional[float] = None
        self.total_nfev = 0
        self.converged = False

    def step(self, step_index: int) -> None:
        iters = int(self.spec.algorithm.get("iters_per_step", 1))
        result = self.vqe.optimize_segment(self.parameters, maxiter=iters)
        self.parameters = np.asarray(result.x, dtype=float)
        self.last_energy = float(result.fun)
        self.total_nfev += int(result.nfev)
        self.converged = bool(result.success)

    def measure(self, step_index: int) -> Dict[str, Any]:
        energy = self.last_energy
        if energy is None:
            energy = float(self.vqe.energy(self.parameters))
        return {
            "energy": energy / self.vqe.hamiltonian.n_sites,
            "total_energy": energy,
            "n_evaluations": self.total_nfev,
        }

    def summary(self) -> Dict[str, Any]:
        return {
            "optimal_parameters": self.parameters.tolist(),
            "converged": self.converged,
        }

    def state_to_dict(self, store: Optional[PayloadStore] = None) -> Dict[str, Any]:
        return {
            "format_version": FORMAT_VERSION,
            "workload": self.name,
            # float64 hex round trip keeps parameters bitwise exact in JSON
            "parameters": [value.hex() for value in self.parameters],
            "last_energy": None if self.last_energy is None else self.last_energy.hex(),
            "total_nfev": self.total_nfev,
            "converged": self.converged,
        }

    def restore_state(
        self, payload: Dict[str, Any], store: Optional[PayloadStore] = None
    ) -> None:
        self._check_state(payload)
        self.parameters = np.asarray(
            [float.fromhex(value) for value in payload["parameters"]], dtype=float
        )
        last = payload.get("last_energy")
        self.last_energy = None if last is None else float.fromhex(last)
        self.total_nfev = int(payload.get("total_nfev", 0))
        self.converged = bool(payload.get("converged", False))


# --------------------------------------------------------------------- #
# Random-quantum-circuit amplitudes (Fig. 10)
# --------------------------------------------------------------------- #
@register_workload("rqc_amplitude")
class RQCAmplitudeWorkload(Workload):
    """Apply a seeded random quantum circuit gate-by-gate and track an amplitude.

    Algorithm parameters (``spec.algorithm``):

    * ``n_layers`` — RQC layers (default 8),
    * ``entangle_every`` — entangling-round period (default 4),
    * ``bits`` — the output bitstring whose amplitude is measured
      (default all zeros).

    The circuit is regenerated deterministically from the run seed's
    ``"circuit"`` substream at every ``setup``, so checkpoints only need the
    evolved PEPS and the gate index.  One driver step applies one gate.
    """

    algorithm_keys = frozenset({"n_layers", "entangle_every", "bits"})

    def setup(self) -> None:
        from repro.circuits.random_circuits import random_quantum_circuit
        from repro.peps import peps as peps_module

        spec = self.spec
        alg = spec.algorithm
        if spec.seed is None:
            # Checkpoints store only the evolved PEPS and rely on regenerating
            # the identical circuit from the seed; a fresh-entropy circuit
            # would silently mix two unrelated circuits across a resume.
            raise ValueError(
                "the rqc_amplitude workload needs an integer RunSpec seed: "
                "resume regenerates the circuit deterministically from it"
            )
        self.circuit = random_quantum_circuit(
            spec.nrow,
            spec.ncol,
            n_layers=alg.get("n_layers", 8),
            entangle_every=alg.get("entangle_every", 4),
            seed=derive_rng(spec.seed, "circuit"),
        )
        self.bits = [int(b) for b in alg.get("bits", [0] * spec.n_sites)]
        self.update_option = spec.build_update_option()
        self.contract_option = spec.build_contract_option()
        self.state = peps_module.computational_zeros(
            spec.nrow, spec.ncol, backend=spec.resolve_backend()
        )

    def total_steps(self) -> int:
        n_gates = len(self.circuit.gates)
        if self.spec.n_steps is not None and self.spec.n_steps != n_gates:
            raise ValueError(
                f"spec.n_steps={self.spec.n_steps} but the generated circuit has "
                f"{n_gates} gates; omit n_steps for RQC runs"
            )
        return n_gates

    def step(self, step_index: int) -> None:
        gate = self.circuit.gates[step_index - 1]
        self.state.apply_gate(gate, self.update_option)

    def measure(self, step_index: int) -> Dict[str, Any]:
        amplitude = self.state.amplitude(self.bits, self.contract_option)
        return {
            "amplitude_real": float(np.real(amplitude)),
            "amplitude_imag": float(np.imag(amplitude)),
            "probability": float(abs(amplitude) ** 2),
            "max_bond": self.state.max_bond_dimension(),
        }

    def summary(self) -> Dict[str, Any]:
        return {"n_gates": len(self.circuit.gates)}

    def state_to_dict(self, store: Optional[PayloadStore] = None) -> Dict[str, Any]:
        return {
            "format_version": FORMAT_VERSION,
            "workload": self.name,
            "peps": peps_to_dict(self.state, include_environment=False, store=store),
        }

    def restore_state(
        self, payload: Dict[str, Any], store: Optional[PayloadStore] = None
    ) -> None:
        self._check_state(payload)
        self.state = peps_from_dict(payload["peps"], backend=self.spec.resolve_backend(), store=store)

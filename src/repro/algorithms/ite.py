"""Imaginary time evolution (ITE) of PEPS via TEBD.

ITE drives a state toward the ground state of a Hamiltonian ``H`` by
repeatedly applying ``exp(-tau * H)``, Trotterized into local operators
(Section II-D1 of the paper).  Each local operator application truncates the
touched bond back to the evolution bond dimension ``r``; the energy is
measured with a (cached) PEPS expectation value using the contraction bond
dimension ``m``.

This reproduces the Fig. 13 study: the 4x4 J1-J2 Heisenberg model evolved for
150 steps with ``r`` from 1 to 10 and ``m ∈ {r, r^2}``, compared against an
exact statevector ITE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.operators.hamiltonians import Hamiltonian
from repro.peps import peps as peps_module
from repro.peps.contraction.options import BMPS, ContractOption
from repro.peps.peps import PEPS
from repro.peps.update import QRUpdate, UpdateOption
from repro.tensornetwork.einsumsvd import ImplicitRandomizedSVD


@dataclass
class ITEResult:
    """Outcome of an imaginary-time-evolution run.

    Attributes
    ----------
    state:
        The final (normalized) PEPS.
    energies:
        Energy per site after each measured step.
    measured_steps:
        The step indices (1-based) at which the energies were measured.
    """

    state: PEPS
    energies: List[float] = field(default_factory=list)
    measured_steps: List[int] = field(default_factory=list)

    @property
    def final_energy(self) -> float:
        if not self.energies:
            raise ValueError("no energies were measured during the run")
        return self.energies[-1]


class ImaginaryTimeEvolution:
    """TEBD-based imaginary time evolution of a PEPS.

    Parameters
    ----------
    hamiltonian:
        The lattice Hamiltonian (sum of one- and two-site terms).
    tau:
        Imaginary time step.
    update_option:
        Two-site update algorithm and evolution bond dimension ``r``
        (default: ``QRUpdate(rank=2)``).
    contract_option:
        Contraction algorithm and bond dimension ``m`` used for energy
        measurement and normalization (default: IBMPS with ``m = r^2``).

    :meth:`run` attaches one :mod:`~repro.peps.envs` environment built from
    ``contract_option`` to the evolving state, so normalization and energy
    measurement share a single pair of boundary sweeps per step.
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        tau: float = 0.05,
        update_option: Optional[UpdateOption] = None,
        contract_option: Optional[ContractOption] = None,
    ) -> None:
        self.hamiltonian = hamiltonian
        self.tau = float(tau)
        self.update_option = update_option if update_option is not None else QRUpdate(rank=2)
        if contract_option is None:
            rank = self.update_option.rank or 2
            contract_option = BMPS(ImplicitRandomizedSVD(rank=rank * rank, seed=0))
        self.contract_option = contract_option
        self._gates = hamiltonian.trotter_gates(-self.tau)

    def initial_state(self, backend="numpy") -> PEPS:
        """A default initial state: the uniform superposition product state.

        A product state with nonzero overlap with the ground state is needed
        for power iteration to converge; ``|+>^n`` works for both models
        studied in the paper.
        """
        plus = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
        vectors = [plus] * self.hamiltonian.n_sites
        return peps_module.product_state(
            vectors, self.hamiltonian.nrow, self.hamiltonian.ncol, backend=backend
        )

    def step(self, state: PEPS) -> PEPS:
        """One Trotter step: apply every local ``exp(-tau * H_j)`` once."""
        for sites, matrix in self._gates:
            state.apply_operator(matrix, list(sites), self.update_option)
        return state

    def advance(self, state: PEPS) -> PEPS:
        """One full driver step: Trotter step plus renormalization (ITE shrinks the norm).

        This is the unit of progress shared by :meth:`run` and the simulation
        runner (:mod:`repro.sim`): checkpointing between ``advance`` calls and
        replaying the remaining calls reproduces an uninterrupted run
        float-for-float.
        """
        state = self.step(state)
        state.normalize_(self.contract_option)
        return state

    def energy(self, state: PEPS) -> float:
        """Energy per site of ``state`` (normalized expectation value)."""
        value = state.expectation(self.hamiltonian, contract_option=self.contract_option)
        return value / self.hamiltonian.n_sites

    def run(
        self,
        n_steps: int,
        initial_state: Optional[PEPS] = None,
        measure_every: int = 1,
        callback: Optional[Callable[[int, float], None]] = None,
        backend="numpy",
    ) -> ITEResult:
        """Run ``n_steps`` of ITE, measuring the energy every ``measure_every`` steps.

        The returned ``ITEResult.state`` keeps its (possibly truncated)
        environment attached, so default-option queries on it reuse the
        sweep's contraction option; call ``state.detach_environment()`` to
        measure with other defaults.
        """
        if measure_every < 1:
            raise ValueError(f"measure_every must be >= 1, got {measure_every!r}")
        state = initial_state if initial_state is not None else self.initial_state(backend)
        state = state.copy()
        state.attach_environment(self.contract_option)
        energies: List[float] = []
        measured: List[int] = []
        for step_index in range(1, n_steps + 1):
            state = self.advance(state)
            if step_index % measure_every == 0 or step_index == n_steps:
                e = self.energy(state)
                energies.append(e)
                measured.append(step_index)
                if callback is not None:
                    callback(step_index, e)
        return ITEResult(state=state, energies=energies, measured_steps=measured)

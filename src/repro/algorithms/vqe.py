"""Variational quantum eigensolver (VQE) simulation.

VQE is a hybrid quantum-classical algorithm: a parameterized circuit prepares
``|psi(theta)>``, the "quantum" side evaluates ``<psi(theta)|H|psi(theta)>``,
and a classical optimizer tunes ``theta``.  Following Section VI-D2 of the
paper, the ansatz consists of repeated layers of single-qubit ``Ry(theta)``
rotations followed by CNOTs on every nearest-neighbour pair, the optimizer is
SLSQP (``scipy.optimize.minimize``), and the circuit is simulated either
exactly (statevector) or approximately with a PEPS of maximum bond dimension
``r`` — reproducing the Fig. 14 accuracy study on the 3x3 ferromagnetic
transverse-field Ising model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.operators.hamiltonians import Hamiltonian
from repro.peps import peps as peps_module
from repro.peps.contraction.options import BMPS, ContractOption
from repro.peps.update import QRUpdate, UpdateOption
from repro.statevector.statevector import StateVector
from repro.tensornetwork.einsumsvd import ImplicitRandomizedSVD
from repro.utils.rng import SeedLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import-time typing aid only
    import scipy.optimize


def _slsqp(objective, x0, maxiter, callback=None) -> "scipy.optimize.OptimizeResult":
    """SciPy's SLSQP on ``objective`` from ``x0``.  ``scipy.optimize`` (and the
    ``sparse``, ``spatial`` and ``special`` packages it loads) is imported
    here, on a VQE's first optimizer call, so that no other run maps it."""
    import scipy.optimize

    return scipy.optimize.minimize(
        objective,
        x0,
        method="SLSQP",
        callback=callback,
        options={"maxiter": int(maxiter), "ftol": 1e-10},
    )


def build_vqe_ansatz(
    nrow: int,
    ncol: int,
    parameters: Sequence[float],
    n_layers: int,
) -> Circuit:
    """The hardware-efficient ansatz used in the paper's VQE study.

    Each layer applies ``Ry(theta)`` to every qubit (one parameter per qubit
    per layer) followed by CNOTs on every nearest-neighbour pair.
    """
    n_qubits = nrow * ncol
    parameters = np.asarray(parameters, dtype=float)
    if parameters.size != n_layers * n_qubits:
        raise ValueError(
            f"expected {n_layers * n_qubits} parameters "
            f"({n_layers} layers x {n_qubits} qubits), got {parameters.size}"
        )
    circuit = Circuit(n_qubits)
    pairs = []
    for r in range(nrow):
        for c in range(ncol):
            site = r * ncol + c
            if c + 1 < ncol:
                pairs.append((site, site + 1))
            if r + 1 < nrow:
                pairs.append((site, site + ncol))
    params = parameters.reshape(n_layers, n_qubits)
    for layer in range(n_layers):
        for q in range(n_qubits):
            circuit.ry(q, float(params[layer, q]))
        for a, b in pairs:
            circuit.cnot(a, b)
    return circuit


@dataclass
class VQEResult:
    """Outcome of a VQE optimization.

    Attributes
    ----------
    optimal_energy:
        Best (total) energy found.
    optimal_energy_per_site:
        Best energy divided by the number of lattice sites.
    optimal_parameters:
        Parameter vector achieving it.
    energy_history:
        Energy per site after each optimizer iteration (the series plotted in
        Fig. 14).
    n_function_evaluations:
        Number of objective evaluations the optimizer used.
    converged:
        Whether SLSQP reported success.
    """

    optimal_energy: float
    optimal_energy_per_site: float
    optimal_parameters: np.ndarray
    energy_history: List[float] = field(default_factory=list)
    n_function_evaluations: int = 0
    converged: bool = False


class VQE:
    """VQE driver with PEPS or statevector energy evaluation.

    Parameters
    ----------
    hamiltonian:
        The Hamiltonian whose ground state is sought.
    n_layers:
        Number of ansatz layers.
    simulator:
        ``"peps"`` or ``"statevector"``.
    update_option:
        PEPS two-site update option; its ``rank`` is the maximum bond
        dimension ``r`` of the simulation (ignored for the statevector).
    contract_option:
        PEPS contraction option for the energy evaluation (default IBMPS with
        ``m = r^2``).
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        n_layers: int = 2,
        simulator: str = "peps",
        update_option: Optional[UpdateOption] = None,
        contract_option: Optional[ContractOption] = None,
        backend="numpy",
    ) -> None:
        if simulator not in ("peps", "statevector"):
            raise ValueError(f"unknown simulator {simulator!r}")
        self.hamiltonian = hamiltonian
        self.n_layers = int(n_layers)
        self.simulator = simulator
        self.update_option = update_option if update_option is not None else QRUpdate(rank=2)
        if contract_option is None:
            rank = self.update_option.rank or 2
            contract_option = BMPS(ImplicitRandomizedSVD(rank=rank * rank, seed=0))
        self.contract_option = contract_option
        self.backend = backend
        self._observable = hamiltonian.to_observable()
        # Persistent PEPS simulator state: one environment is attached for the
        # whole optimization, so every objective evaluation reuses the same
        # cached-boundary machinery instead of rebuilding it from scratch.
        self._sim_state = None

    @property
    def n_parameters(self) -> int:
        return self.n_layers * self.hamiltonian.n_sites

    def ansatz(self, parameters: Sequence[float]) -> Circuit:
        return build_vqe_ansatz(
            self.hamiltonian.nrow, self.hamiltonian.ncol, parameters, self.n_layers
        )

    def energy(self, parameters: Sequence[float]) -> float:
        """The total energy ``<psi(theta)|H|psi(theta)>`` (the VQE objective)."""
        circuit = self.ansatz(parameters)
        if self.simulator == "statevector":
            state = StateVector.computational_zeros(self.hamiltonian.n_sites)
            state = state.apply_circuit(circuit)
            return state.expectation(self.hamiltonian)
        state = self._prepare_sim_state()
        state.apply_circuit(circuit, self.update_option)
        return state.expectation(
            self.hamiltonian,
            contract_option=self.contract_option,
            normalized=True,
        )

    def _prepare_sim_state(self):
        """The persistent PEPS simulator state, reset to ``|0...0>`` in place."""
        nrow, ncol = self.hamiltonian.nrow, self.hamiltonian.ncol
        if self._sim_state is None:
            self._sim_state = peps_module.computational_zeros(
                nrow, ncol, backend=self.backend
            )
            self._sim_state.attach_environment(self.contract_option)
            return self._sim_state
        state = self._sim_state
        zero = np.zeros((2, 1, 1, 1, 1), dtype=np.complex128)
        zero[0, 0, 0, 0, 0] = 1.0
        for i in range(nrow):
            for j in range(ncol):
                state[i, j] = state.backend.astensor(np.array(zero, copy=True))
        return state

    def optimize_segment(
        self, parameters: Sequence[float], maxiter: int = 1
    ) -> "scipy.optimize.OptimizeResult":
        """Run a bounded SLSQP segment from ``parameters`` and return the result.

        This is the resumable unit of VQE progress used by the simulation
        runner (:mod:`repro.sim`): each segment is a fresh, deterministic
        SLSQP call seeded only by the incoming parameter vector, so a run
        checkpointed between segments and resumed replays identically.
        (Restarting the optimizer does reset its internal quadratic model, so
        many 1-iteration segments converge more slowly than one long
        ``run()`` — choose ``maxiter`` per segment accordingly.)
        """
        x0 = np.asarray(parameters, dtype=float)
        if x0.size != self.n_parameters:
            raise ValueError(
                f"expected {self.n_parameters} parameters, got {x0.size}"
            )
        return _slsqp(lambda x: float(self.energy(x)), x0, maxiter)

    def run(
        self,
        initial_parameters: Optional[Sequence[float]] = None,
        maxiter: int = 50,
        seed: SeedLike = None,
        callback: Optional[Callable[[int, float], None]] = None,
    ) -> VQEResult:
        """Optimize the ansatz parameters with SLSQP.

        ``energy_history`` records the energy per site at the end of every
        optimizer iteration, matching the x-axis of Fig. 14.
        """
        rng = ensure_rng(seed)
        if initial_parameters is None:
            initial_parameters = rng.uniform(-0.1, 0.1, self.n_parameters)
        x0 = np.asarray(initial_parameters, dtype=float)
        if x0.size != self.n_parameters:
            raise ValueError(
                f"expected {self.n_parameters} initial parameters, got {x0.size}"
            )

        history: List[float] = []
        eval_count = [0]

        def objective(x: np.ndarray) -> float:
            eval_count[0] += 1
            return float(self.energy(x))

        def on_iteration(x: np.ndarray) -> None:
            e = float(self.energy(x)) / self.hamiltonian.n_sites
            history.append(e)
            if callback is not None:
                callback(len(history), e)

        result = _slsqp(objective, x0, maxiter, callback=on_iteration)
        best_energy = float(result.fun)
        return VQEResult(
            optimal_energy=best_energy,
            optimal_energy_per_site=best_energy / self.hamiltonian.n_sites,
            optimal_parameters=np.asarray(result.x, dtype=float),
            energy_history=history,
            n_function_evaluations=eval_count[0],
            converged=bool(result.success),
        )

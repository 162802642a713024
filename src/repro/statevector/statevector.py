"""Exact statevector simulator.

Stores the full ``2^n`` amplitude vector and applies one- and two-qubit
operators by tensor contraction, exactly as described in Section II-A of the
paper (Eqs. 1-2).  It provides the "state vector" baselines of Figs. 10, 13
and 14: exact amplitudes for RQC states, exact imaginary time evolution and
exact VQE objective evaluation.  Only small systems (≤ ~20 qubits) are
feasible, which is precisely the regime the paper uses it in.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import Circuit, Gate
from repro.operators.hamiltonians import Hamiltonian
from repro.operators.observable import Observable

_MAX_QUBITS = 26


class StateVector:
    """A dense quantum state on ``n_qubits`` qubits."""

    def __init__(self, amplitudes: np.ndarray, n_qubits: Optional[int] = None) -> None:
        amplitudes = np.asarray(amplitudes, dtype=np.complex128).ravel()
        if n_qubits is None:
            n_qubits = int(np.log2(amplitudes.size))
        if 2**n_qubits != amplitudes.size:
            raise ValueError(
                f"amplitude vector of size {amplitudes.size} is not 2^{n_qubits}"
            )
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def computational_zeros(cls, n_qubits: int) -> "StateVector":
        """The all-zeros basis state ``|00...0>``."""
        if n_qubits > _MAX_QUBITS:
            raise ValueError(f"{n_qubits} qubits exceed the dense-simulation limit")
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(amps, n_qubits)

    @classmethod
    def computational_basis(cls, bits: Sequence[int]) -> "StateVector":
        """The basis state with the given bit string (bit 0 = qubit 0 = MSB)."""
        n = len(bits)
        index = 0
        for b in bits:
            index = (index << 1) | (int(b) & 1)
        amps = np.zeros(2**n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps, n)

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), self.n_qubits)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero state")
        return StateVector(self.amplitudes / nrm, self.n_qubits)

    def amplitude(self, bits: Sequence[int]) -> complex:
        """The amplitude ``<bits|psi>``."""
        if len(bits) != self.n_qubits:
            raise ValueError(f"expected {self.n_qubits} bits, got {len(bits)}")
        index = 0
        for b in bits:
            index = (index << 1) | (int(b) & 1)
        return complex(self.amplitudes[index])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def inner(self, other: "StateVector") -> complex:
        """``<self|other>``."""
        if other.n_qubits != self.n_qubits:
            raise ValueError("states must have the same number of qubits")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def as_tensor(self) -> np.ndarray:
        """The amplitudes as a ``(2,) * n`` tensor (qubit 0 is the first mode)."""
        return self.amplitudes.reshape((2,) * self.n_qubits)

    # ------------------------------------------------------------------ #
    # Operator application
    # ------------------------------------------------------------------ #
    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> "StateVector":
        """Apply a (not necessarily unitary) operator on the given qubits."""
        qubits = [int(q) for q in qubits]
        k = len(qubits)
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (2**k, 2**k):
            raise ValueError(
                f"operator on {k} qubits needs a {2**k}x{2**k} matrix, got {matrix.shape}"
            )
        if len(set(qubits)) != k:
            raise ValueError(f"qubits must be distinct, got {qubits}")
        for q in qubits:
            if not (0 <= q < self.n_qubits):
                raise ValueError(f"qubit {q} outside the register of {self.n_qubits}")
        tensor = self.as_tensor()
        gate = matrix.reshape((2,) * (2 * k))
        # Contract the gate's input modes with the state's qubit modes.
        moved = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), qubits))
        # tensordot puts the gate's output modes first; move them back.
        moved = np.moveaxis(moved, list(range(k)), qubits)
        return StateVector(moved.reshape(-1), self.n_qubits)

    def apply_gate(self, gate: Gate) -> "StateVector":
        return self.apply_matrix(gate.matrix, gate.qubits)

    def apply_circuit(self, circuit: Circuit) -> "StateVector":
        if circuit.n_qubits != self.n_qubits:
            raise ValueError(
                f"circuit acts on {circuit.n_qubits} qubits, state has {self.n_qubits}"
            )
        state = self
        for gate in circuit.gates:
            state = state.apply_gate(gate)
        return state

    # ------------------------------------------------------------------ #
    # Expectation values and energies
    # ------------------------------------------------------------------ #
    def expectation(self, observable: Union[Observable, Hamiltonian]) -> float:
        """``<psi|O|psi> / <psi|psi>`` for an observable or Hamiltonian."""
        norm_sq = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if norm_sq == 0:
            raise ValueError("cannot take the expectation value of the zero state")
        total = 0.0 + 0.0j
        for sites, matrix in _local_terms(observable):
            if len(sites) == 0:
                total += matrix[0, 0] * norm_sq
                continue
            phi = self.apply_matrix(matrix, sites)
            total += np.vdot(self.amplitudes, phi.amplitudes)
        return float((total / norm_sq).real)

    def imaginary_time_evolution(
        self,
        hamiltonian: Hamiltonian,
        tau: float,
        n_steps: int,
    ) -> Tuple["StateVector", List[float]]:
        """Trotterized imaginary time evolution, renormalizing after each step.

        Returns the evolved state and the energy-per-site trace (one entry per
        step), which is the statevector baseline of Fig. 13.
        """
        state = self.normalize()
        energies = []
        gates = hamiltonian.trotter_gates(-tau)
        n_sites = hamiltonian.n_sites
        for _ in range(n_steps):
            for sites, matrix in gates:
                state = state.apply_matrix(matrix, sites)
            state = state.normalize()
            energies.append(state.expectation(hamiltonian) / n_sites)
        return state, energies

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits}, norm={self.norm():.6f})"


def _local_terms(observable: Union[Observable, Hamiltonian]):
    """Uniform access to the local terms of an Observable or Hamiltonian."""
    if isinstance(observable, Observable):
        return observable.local_terms()
    if isinstance(observable, Hamiltonian):
        return [(term.sites, term.matrix) for term in observable.terms]
    raise TypeError(f"unsupported observable type {type(observable)!r}")

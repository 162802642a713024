"""Tests for the exact statevector simulator."""

import numpy as np
import pytest

from repro.circuits import Circuit, random_quantum_circuit
from repro.operators import gates
from repro.operators.hamiltonians import heisenberg_j1j2, transverse_field_ising
from repro.operators.observable import Observable
from repro.statevector import StateVector


def random_state(n_qubits, seed):
    """A normalized state with Gaussian real and imaginary parts."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return StateVector(amps / np.linalg.norm(amps), n_qubits)


class TestConstruction:
    def test_computational_zeros(self):
        sv = StateVector.computational_zeros(3)
        assert sv.amplitude([0, 0, 0]) == 1.0
        assert sv.norm() == pytest.approx(1.0)

    def test_computational_basis_indexing(self):
        sv = StateVector.computational_basis([1, 0, 1])
        assert sv.amplitude([1, 0, 1]) == 1.0
        assert sv.amplitude([0, 0, 0]) == 0.0

    def test_random_state_normalized(self):
        sv = random_state(5, seed=0)
        assert sv.norm() == pytest.approx(1.0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(3))
        with pytest.raises(ValueError):
            StateVector.computational_zeros(40)


class TestGateApplication:
    def test_single_qubit_gate_on_each_position(self):
        for q in range(3):
            sv = StateVector.computational_zeros(3).apply_matrix(gates.X(), [q])
            bits = [0, 0, 0]
            bits[q] = 1
            assert sv.amplitude(bits) == pytest.approx(1.0)

    def test_bell_state(self):
        sv = StateVector.computational_zeros(2).apply_circuit(Circuit(2).h(0).cnot(0, 1))
        assert sv.amplitude([0, 0]) == pytest.approx(1 / np.sqrt(2))
        assert sv.amplitude([1, 1]) == pytest.approx(1 / np.sqrt(2))
        assert sv.amplitude([0, 1]) == pytest.approx(0.0)

    def test_qubit_order_in_two_qubit_gate(self):
        # CNOT(control=1, target=0) on |01> flips qubit 0.
        sv = StateVector.computational_basis([0, 1]).apply_matrix(gates.CNOT(), [1, 0])
        assert sv.amplitude([1, 1]) == pytest.approx(1.0)

    def test_matches_dense_circuit_unitary(self):
        circ = random_quantum_circuit(2, 2, n_layers=5, seed=4)
        sv = StateVector.computational_zeros(4).apply_circuit(circ)
        ref = circ.to_matrix()[:, 0]
        assert np.allclose(sv.amplitudes, ref)

    def test_non_unitary_operator_allowed(self):
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        sv = StateVector.computational_zeros(1).apply_matrix(gates.H(), [0])
        sv = sv.apply_matrix(proj, [0])
        assert sv.norm() == pytest.approx(1 / np.sqrt(2))

    def test_validation(self):
        sv = StateVector.computational_zeros(2)
        with pytest.raises(ValueError):
            sv.apply_matrix(gates.X(), [0, 1])
        with pytest.raises(ValueError):
            sv.apply_matrix(gates.CNOT(), [0, 0])
        with pytest.raises(ValueError):
            sv.apply_matrix(gates.CNOT(), [0, 5])
        with pytest.raises(ValueError):
            sv.apply_circuit(Circuit(3).x(0))


class TestExpectation:
    def test_pauli_expectations_on_basis_states(self):
        sv = StateVector.computational_zeros(2)
        assert sv.expectation(Observable.Z(0)) == pytest.approx(1.0)
        assert sv.expectation(Observable.X(0)) == pytest.approx(0.0)
        sv = StateVector.computational_basis([1, 0])
        assert sv.expectation(Observable.Z(0)) == pytest.approx(-1.0)
        assert sv.expectation(Observable.ZZ(0, 1)) == pytest.approx(-1.0)

    def test_observable_matches_dense_matrix(self):
        sv = random_state(3, seed=1)
        obs = Observable.ZZ(0, 2) + 0.7 * Observable.X(1) - 0.3 * Observable.Y(2)
        dense = obs.to_matrix(3)
        ref = np.vdot(sv.amplitudes, dense @ sv.amplitudes).real
        assert sv.expectation(obs) == pytest.approx(ref)

    def test_hamiltonian_expectation_matches_dense(self):
        ham = heisenberg_j1j2(2, 2)
        sv = random_state(4, seed=2)
        ref = np.vdot(sv.amplitudes, ham.to_matrix() @ sv.amplitudes).real
        assert sv.expectation(ham) == pytest.approx(ref)

    def test_expectation_normalizes(self):
        sv = StateVector(2.0 * StateVector.computational_zeros(1).amplitudes)
        assert sv.expectation(Observable.Z(0)) == pytest.approx(1.0)

    def test_zero_state_raises(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(2)).expectation(Observable.Z(0))


class TestImaginaryTimeEvolution:
    def test_ite_converges_to_ground_state_2x2_tfi(self):
        ham = transverse_field_ising(2, 2)
        exact = ham.ground_state_energy() / 4
        sv = StateVector.computational_zeros(4).apply_matrix(gates.H(), [0]) \
            .apply_matrix(gates.H(), [1]).apply_matrix(gates.H(), [2]).apply_matrix(gates.H(), [3])
        _, energies = sv.imaginary_time_evolution(ham, tau=0.05, n_steps=200)
        assert energies[-1] == pytest.approx(exact, abs=0.02)
        assert energies[-1] <= energies[0] + 1e-9

    def test_ite_energy_monotone_after_transient(self):
        ham = transverse_field_ising(2, 2)
        sv = random_state(4, seed=3)
        _, energies = sv.imaginary_time_evolution(ham, tau=0.02, n_steps=50)
        diffs = np.diff(energies[5:])
        assert np.all(diffs < 1e-6)

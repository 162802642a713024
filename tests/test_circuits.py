"""Tests for the circuit IR and random quantum circuit generator."""

import hashlib

import numpy as np
import pytest

from repro.circuits import Circuit, Gate, random_quantum_circuit, rqc_layer_structure
from repro.circuits.random_circuits import expected_peps_bond_dimension
from repro.operators import gates


class TestGateIR:
    def test_named_gate_construction(self):
        g = Gate.named("CNOT", (0, 1))
        assert g.n_qubits == 2
        assert np.allclose(g.matrix, gates.CNOT())
        assert g.name == "CNOT"

    def test_parameterized_named_gate(self):
        g = Gate.named("RY", (3,), (0.5,))
        assert np.allclose(g.matrix, gates.Ry(0.5))
        assert g.params == (0.5,)

    def test_validation(self):
        with pytest.raises(ValueError):
            Gate((0, 0), gates.CNOT())
        with pytest.raises(ValueError):
            Gate((0,), gates.CNOT())


class TestCircuit:
    def test_builder_methods_and_depth(self):
        c = Circuit(3).h(0).cnot(0, 1).cnot(1, 2).add("RZ", 2, 0.3)
        assert len(c) == 4
        assert c.depth() == 4
        assert sum(g.n_qubits == 2 for g in c) == 2

    def test_parallel_gates_share_depth(self):
        c = Circuit(4).h(0).h(1).h(2).h(3).cnot(0, 1).cnot(2, 3)
        assert c.depth() == 2

    def test_qubit_bounds_checked(self):
        with pytest.raises(ValueError):
            Circuit(2).x(2)
        with pytest.raises(ValueError):
            Circuit(0)

    def test_to_matrix_bell_circuit(self):
        c = Circuit(2).h(0).cnot(0, 1)
        state = c.to_matrix() @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(state, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_to_matrix_size_guard(self):
        with pytest.raises(ValueError):
            Circuit(13).to_matrix()

    def test_gate_ordering_matters(self):
        c1 = Circuit(2).x(0).cnot(0, 1)
        c2 = Circuit(2).cnot(0, 1).x(0)
        assert not np.allclose(c1.to_matrix(), c2.to_matrix())


#: ``(seed, nrow, ncol, n_layers, gates, layout digest, matrix digest)``:
#: sha256 prefixes of the gates' ``(name, qubits)`` list and of their
#: concatenated matrix bytes, recorded from the generator as it drew through
#: ``rng.choice`` with freshly built gate matrices.
PINNED_CIRCUITS = [
    (0, 2, 2, 4, 20, "1dfdf4ff82ce9e47", "d96063b7c2bd06f0"),
    (1, 3, 3, 8, 96, "fa8cd56fdfcec005", "d2e91db85e6775ad"),
    (7, 4, 4, 8, 176, "40ac6f1e36e541bc", "382376bdcd9a7389"),
    (20260930, 2, 5, 6, 73, "fc781b4516b2fdb4", "de3040fd1bcc7867"),
    (123, 1, 3, 5, 17, "010234141f188338", "e4ae0a1d53b37b02"),
]


class TestRandomQuantumCircuits:
    @pytest.mark.parametrize("seed, nrow, ncol, layers, count, layout, matrices", PINNED_CIRCUITS)
    def test_pinned_circuits(self, seed, nrow, ncol, layers, count, layout, matrices):
        circ = random_quantum_circuit(nrow, ncol, n_layers=layers, seed=seed)
        assert len(circ) == count
        names = repr([(g.name, g.qubits) for g in circ.gates]).encode()
        assert hashlib.sha256(names).hexdigest()[:16] == layout
        data = b"".join(g.matrix.tobytes() for g in circ.gates)
        assert hashlib.sha256(data).hexdigest()[:16] == matrices

    def test_layer_structure_every_four(self):
        layers = rqc_layer_structure(8, entangle_every=4)
        assert layers == [False, False, False, True, False, False, False, True]

    def test_expected_bond_dimension(self):
        assert expected_peps_bond_dimension(8) == 16
        assert expected_peps_bond_dimension(4) == 4
        assert expected_peps_bond_dimension(3) == 1

    def test_gate_counts(self):
        nrow, ncol, layers = 3, 3, 8
        circ = random_quantum_circuit(nrow, ncol, n_layers=layers, seed=0)
        n_pairs = 12
        assert len(circ) == layers * 9 + 2 * n_pairs
        assert sum(g.n_qubits == 2 for g in circ) == 2 * n_pairs

    def test_seed_reproducibility(self):
        a = random_quantum_circuit(2, 3, n_layers=8, seed=11)
        b = random_quantum_circuit(2, 3, n_layers=8, seed=11)
        assert len(a) == len(b)
        for ga, gb in zip(a.gates, b.gates):
            assert ga.qubits == gb.qubits
            assert np.allclose(ga.matrix, gb.matrix)

    def test_different_seeds_differ(self):
        a = random_quantum_circuit(2, 2, n_layers=4, seed=1)
        b = random_quantum_circuit(2, 2, n_layers=4, seed=2)
        same = all(
            np.allclose(ga.matrix, gb.matrix)
            for ga, gb in zip(a.gates, b.gates)
            if ga.n_qubits == 1 and gb.n_qubits == 1
        )
        assert not same

    def test_no_repeated_single_qubit_gate_on_consecutive_layers(self):
        circ = random_quantum_circuit(2, 2, n_layers=6, seed=3)
        per_qubit = {q: [] for q in range(4)}
        for g in circ.gates:
            if g.n_qubits == 1:
                per_qubit[g.qubits[0]].append(g.name)
        for names in per_qubit.values():
            assert all(a != b for a, b in zip(names, names[1:]))

    def test_all_gates_are_unitary(self):
        circ = random_quantum_circuit(2, 3, n_layers=8, seed=9)
        for g in circ.gates:
            assert gates.is_unitary(g.matrix)

    def test_invalid_layers_raise(self):
        with pytest.raises(ValueError):
            random_quantum_circuit(2, 2, n_layers=0)

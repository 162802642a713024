"""Tests for gates, Pauli strings, observables and Hamiltonians."""

import time

import numpy as np
import pytest

from repro.operators import gates
from repro.operators.hamiltonians import (
    Hamiltonian,
    LocalTerm,
    heisenberg_j1j2,
    transverse_field_ising,
)
from repro.operators.observable import Observable
from repro.operators.pauli import PauliString, pauli_matrix


class TestGates:
    @pytest.mark.parametrize("name", ["I", "X", "Y", "Z", "H", "S", "T", "SX", "SY", "SW",
                                      "CNOT", "CZ", "SWAP", "ISWAP"])
    def test_named_gates_are_unitary(self, name):
        assert gates.is_unitary(gates.get_gate(name))

    def test_pauli_algebra(self):
        assert np.allclose(gates.X() @ gates.X(), np.eye(2))
        assert np.allclose(gates.X() @ gates.Y() - gates.Y() @ gates.X(), 2j * gates.Z())
        assert np.allclose(gates.H() @ gates.Z() @ gates.H(), gates.X())

    def test_sqrt_gates_square_correctly(self):
        assert np.allclose(gates.sqrt_X() @ gates.sqrt_X(), gates.X())
        assert np.allclose(gates.sqrt_Y() @ gates.sqrt_Y(), gates.Y())
        w = (gates.X() + gates.Y()) / np.sqrt(2)
        assert np.allclose(gates.sqrt_W() @ gates.sqrt_W(), w)

    def test_rotations(self):
        assert np.allclose(gates.Ry(0), np.eye(2))
        assert np.allclose(gates.Ry(2 * np.pi), -np.eye(2))
        assert np.allclose(gates.Rz(np.pi), -1j * gates.Z())
        assert gates.is_unitary(gates.Rx(0.3))

    def test_parameterized_gates(self):
        assert np.allclose(gates.get_gate("RY", (0.7,)), gates.Ry(0.7))
        assert gates.is_unitary(gates.XX(0.4))
        assert gates.is_unitary(gates.ZZ(0.4))

    def test_cnot_action(self):
        cnot = gates.CNOT()
        assert np.allclose(cnot @ np.array([0, 0, 1, 0]), np.array([0, 0, 0, 1]))
        assert np.allclose(cnot @ np.array([1, 0, 0, 0]), np.array([1, 0, 0, 0]))

    def test_iswap_action(self):
        iswap = gates.iSWAP()
        assert np.allclose(iswap @ np.array([0, 1, 0, 0]), np.array([0, 0, 1j, 0]))

    def test_as_tensor_shape_and_errors(self):
        """A gate matrix read as a tensor: a plain reshape, indices
        ``(out_1, out_2, in_1, in_2)``."""
        t = gates.CNOT().reshape((2,) * 4)
        assert t.shape == (2, 2, 2, 2)
        assert t[1, 1, 1, 0] == 1 and t[1, 0, 1, 0] == 0

    @pytest.mark.parametrize("name", sorted(gates.NAMED_GATES))
    def test_named_gates_are_shared_read_only(self, name):
        matrix = gates.named_gate(name)
        assert gates.named_gate(name.lower()).tobytes() == matrix.tobytes()
        assert gates.named_gate(name) is matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0
        fresh = gates.get_gate(name)
        assert fresh.flags.writeable and fresh is not matrix
        assert fresh.tobytes() == matrix.tobytes()
        fresh[0, 0] = 7
        assert gates.get_gate(name).tobytes() == matrix.tobytes()

    def test_get_gate_errors(self):
        with pytest.raises(KeyError):
            gates.get_gate("NOPE")
        with pytest.raises(ValueError):
            gates.get_gate("X", (0.4,))


class TestPauliString:
    def test_from_dict_drops_identity(self):
        p = PauliString.from_dict({0: "X", 2: "I", 3: "Z"}, 2.0)
        assert p.sites == (0, 3)
        assert p.as_dict() == {0: "X", 3: "Z"}

    def test_matrix_of_two_site_string(self):
        p = PauliString.from_dict({1: "Z", 4: "X"}, coefficient=2.0)
        assert np.allclose(p.matrix(), 2.0 * np.kron(pauli_matrix("Z"), pauli_matrix("X")))

    def test_scalar_multiplication_and_negation(self):
        p = PauliString.from_dict({0: "Y"})
        assert (3 * p).coefficient == 3.0
        assert (-p).coefficient == -1.0

    def test_identity_string_matrix(self):
        p = PauliString((), 1.5)
        assert np.allclose(p.matrix(), [[1.5]])

    def test_invalid_label_raises(self):
        with pytest.raises(ValueError):
            PauliString.from_dict({0: "Q"})
        with pytest.raises(ValueError):
            pauli_matrix("W")


class TestObservable:
    def test_paper_style_construction(self):
        obs = Observable.ZZ(3, 4) + 0.2 * Observable.X(1)
        assert len(obs) == 2
        assert obs.sites == (1, 3, 4)
        assert obs.max_site() == 4

    def test_to_matrix_matches_kron(self):
        obs = Observable.ZZ(0, 1)
        assert np.allclose(obs.to_matrix(2), np.kron(pauli_matrix("Z"), pauli_matrix("Z")))
        obs = Observable.X(1)
        assert np.allclose(obs.to_matrix(2), np.kron(np.eye(2), pauli_matrix("X")))

    def test_algebra(self):
        a = Observable.Z(0)
        b = Observable.X(1)
        assert np.allclose((a + b).to_matrix(2), a.to_matrix(2) + b.to_matrix(2))
        assert np.allclose((a - b).to_matrix(2), a.to_matrix(2) - b.to_matrix(2))
        assert np.allclose((2.5 * a).to_matrix(2), 2.5 * a.to_matrix(2))
        assert np.allclose((-a).to_matrix(2), -a.to_matrix(2))

    def test_simplify_combines_duplicates(self):
        obs = Observable.Z(0) + Observable.Z(0) - 2 * Observable.Z(0)
        assert len(obs.simplify()) == 0

    def test_sum_helper(self):
        obs = Observable.sum([Observable.Z(i) for i in range(3)])
        assert len(obs) == 3

    def test_local_terms_shapes(self):
        obs = Observable.ZZ(0, 1) + Observable.X(2) + Observable.identity(0.5)
        terms = obs.local_terms()
        shapes = sorted(m.shape[0] for _, m in terms)
        assert shapes == [1, 2, 4]

    def test_errors(self):
        with pytest.raises(ValueError):
            Observable.pauli("ZZ", 1)
        with pytest.raises(ValueError):
            Observable.pauli("ZZ", 1, 1)
        with pytest.raises(ValueError):
            Observable.Z(0).to_matrix(0)


class TestLocalTermAndHamiltonian:
    def test_local_term_validation(self):
        with pytest.raises(ValueError):
            LocalTerm((0,), np.eye(4))
        with pytest.raises(ValueError):
            LocalTerm((0, 1), np.eye(2))

    def test_local_term_exponential(self):
        term = LocalTerm((0,), pauli_matrix("Z"))
        exp = term.exponential(-0.3)
        assert np.allclose(exp, np.diag([np.exp(-0.3), np.exp(0.3)]))

    def test_bounds(self):
        ham = Hamiltonian(2, 3)
        with pytest.raises(ValueError):
            ham.add_one_site(6, pauli_matrix("X"))
        with pytest.raises(ValueError):
            Hamiltonian(0, 3)

    def test_neighbor_pair_counts(self):
        ham = Hamiltonian(3, 3)
        assert len(ham.nearest_neighbor_pairs()) == 12
        ham = Hamiltonian(2, 2)
        assert len(ham.nearest_neighbor_pairs()) == 4

    def test_to_matrix_matches_observable_decomposition(self):
        ham = heisenberg_j1j2(2, 2)
        dense = ham.to_matrix()
        assert np.allclose(dense, dense.conj().T)
        assert np.allclose(dense, ham.to_observable().to_matrix(4))

    def test_tfi_matches_paper_special_case(self):
        # TFI is the J1-J2 model with only Jz1 and hx nonzero.
        tfi = transverse_field_ising(2, 2, jz=-1.0, hx=-3.5)
        heis = heisenberg_j1j2(
            2, 2, j1=(0.0, 0.0, -1.0), j2=(0.0, 0.0, 0.0), field=(-3.5, 0.0, 0.0)
        )
        assert np.allclose(tfi.to_matrix(), heis.to_matrix())

    def test_term_counts(self):
        ham = heisenberg_j1j2(4, 4)
        # 24 NN pairs + 18 diagonal pairs + 16 field terms.
        assert len(ham) == 24 + 18 + 16
        tfi = transverse_field_ising(3, 3)
        assert len(tfi) == 12 + 9

    def test_trotter_gates_are_exponentials(self):
        ham = transverse_field_ising(2, 2)
        gates_list = ham.trotter_gates(-0.1)
        assert len(gates_list) == len(ham)
        for sites, g in gates_list:
            assert g.shape == (2 ** len(sites),) * 2
            # exp(-tau H_j) of a Hermitian H_j is Hermitian positive definite.
            assert np.allclose(g, g.conj().T)
            assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_ground_state_energy_2x2_tfi(self):
        ham = transverse_field_ising(2, 2, jz=-1.0, hx=-3.5)
        e = ham.ground_state_energy()
        dense = np.linalg.eigvalsh(ham.to_matrix())
        assert e == pytest.approx(dense[0])

    def test_ground_state_energy_sparse_path(self):
        ham = transverse_field_ising(2, 4)
        e = ham.ground_state_energy()
        dense = np.linalg.eigvalsh(ham.to_matrix())
        assert e == pytest.approx(dense[0], rel=1e-8)

    def test_ground_state_energy_matrix_free_matches_dense(self):
        ham = heisenberg_j1j2(3, 3)
        dense = np.linalg.eigvalsh(ham.to_matrix())[0]
        assert abs(ham.ground_state_energy() - dense) < 1e-10

    def test_ground_state_energy_builds_no_dense_term(self, monkeypatch):
        """14 sites: each embedded term would be a 4 GiB dense matrix."""
        from repro.operators import hamiltonians

        def refuse(*args):
            raise AssertionError("ground_state_energy embedded a dense term")

        monkeypatch.setattr(hamiltonians, "_embed_term", refuse)
        begin = time.perf_counter()
        energy = transverse_field_ising(2, 7).ground_state_energy()
        assert time.perf_counter() - begin < 30.0
        # recorded from a sparse Hamiltonian assembled term by term from
        # index arithmetic (no dense embedding), diagonalized by eigsh
        assert abs(energy - -50.42392764292233) < 1e-10

    def test_to_matrix_refuses_large_lattices(self):
        with pytest.raises(ValueError, match="GiB"):
            Hamiltonian(2, 7).to_matrix()

    def test_ground_state_energy_too_large_raises(self):
        with pytest.raises(ValueError):
            Hamiltonian(5, 5).ground_state_energy()

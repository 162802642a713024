"""Tests for PEPS operator application: all update algorithms and gate routing."""

import numpy as np
import pytest

from repro import peps
from repro.circuits import Circuit
from repro.operators import gates
from repro.peps import (
    DirectUpdate,
    Exact,
    LocalGramQRSVDUpdate,
    LocalGramQRUpdate,
    QRUpdate,
)
from repro.statevector import StateVector

ALL_OPTIONS = [
    DirectUpdate(rank=None),
    QRUpdate(rank=None),
    LocalGramQRUpdate(rank=None),
    LocalGramQRSVDUpdate(rank=None),
]


def fidelity(peps_state, statevector):
    vec = peps_state.to_statevector()
    vec = vec / np.linalg.norm(vec)
    ref = statevector.amplitudes / statevector.norm()
    return abs(np.vdot(vec, ref))


class TestSingleSite:
    def test_single_site_gates_match_statevector(self):
        q = peps.computational_zeros(2, 3)
        sv = StateVector.computational_zeros(6)
        for site, gate in [(0, gates.H()), (3, gates.X()), (5, gates.T()), (2, gates.Ry(0.4))]:
            q.apply_operator(gate, [site])
            sv = sv.apply_matrix(gate, [site])
        assert fidelity(q, sv) == pytest.approx(1.0)

    def test_single_site_operator_validation(self):
        q = peps.computational_zeros(2, 2)
        with pytest.raises(ValueError):
            q.apply_operator(gates.CNOT(), [0])
        with pytest.raises(ValueError):
            q.apply_operator(gates.X(), [0, 1, 2])


class TestTwoSiteAdjacent:
    @pytest.mark.parametrize("option", ALL_OPTIONS, ids=lambda o: type(o).__name__)
    @pytest.mark.parametrize("sites", [(0, 1), (1, 0), (0, 3), (3, 0), (4, 5), (2, 5)])
    def test_orientations_and_orderings(self, option, sites):
        # 2x3 lattice: (0,1) horizontal, (0,3) vertical, plus reversed orders.
        q = peps.computational_zeros(2, 3)
        sv = StateVector.computational_zeros(6)
        prep = Circuit(6)
        for i in range(6):
            prep.ry(i, 0.3 + 0.1 * i)
        q.apply_circuit(prep, option)
        sv = sv.apply_circuit(prep)
        q.apply_operator(gates.CNOT(), list(sites), option)
        sv = sv.apply_matrix(gates.CNOT(), list(sites))
        assert fidelity(q, sv) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("option", ALL_OPTIONS, ids=lambda o: type(o).__name__)
    def test_entangling_circuit_matches_statevector(self, option):
        q = peps.computational_zeros(2, 2)
        sv = StateVector.computational_zeros(4)
        circ = Circuit(4).h(0).cnot(0, 1).cnot(0, 2).ry(3, 0.3).cnot(2, 3).add("CZ", (1, 3))
        q.apply_circuit(circ, option)
        sv = sv.apply_circuit(circ)
        assert fidelity(q, sv) == pytest.approx(1.0, abs=1e-9)

    def test_same_site_twice_raises(self):
        with pytest.raises(ValueError):
            peps.computational_zeros(2, 2).apply_operator(gates.CNOT(), [1, 1])

    def test_bond_dimension_grows_then_truncates(self):
        q = peps.computational_zeros(2, 2)
        q.apply_operator(gates.H(), [0])
        q.apply_operator(gates.CNOT(), [0, 1], QRUpdate(rank=None))
        assert q.max_bond_dimension() == 2
        q2 = peps.computational_zeros(2, 2)
        q2.apply_operator(gates.H(), [0])
        q2.apply_operator(gates.CNOT(), [0, 1], QRUpdate(rank=1))
        assert q2.max_bond_dimension() == 1

    def test_truncated_update_loses_fidelity_gracefully(self):
        # Rank-1 truncation of a maximally entangling gate cannot be exact,
        # but the state must stay finite and normalized after renormalization.
        q = peps.computational_zeros(2, 2)
        q.apply_operator(gates.H(), [0])
        q.apply_operator(gates.CNOT(), [0, 1], QRUpdate(rank=1))
        vec = q.to_statevector()
        assert np.all(np.isfinite(vec))
        assert np.linalg.norm(vec) > 0


class TestNonAdjacentRouting:
    @pytest.mark.parametrize("sites", [(0, 4), (4, 0), (0, 5), (2, 3), (0, 8)])
    def test_swap_routing_matches_statevector(self, sites):
        q = peps.computational_zeros(3, 3)
        sv = StateVector.computational_zeros(9)
        prep = Circuit(9)
        for i in range(9):
            prep.ry(i, 0.2 * (i + 1))
        q.apply_circuit(prep)
        sv = sv.apply_circuit(prep)
        q.apply_operator(gates.CNOT(), list(sites), QRUpdate(rank=None))
        sv = sv.apply_matrix(gates.CNOT(), list(sites))
        assert fidelity(q, sv) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_two_site_gate(self):
        # Diagonal neighbours (used by the J1-J2 model) exercise one SWAP.
        q = peps.computational_zeros(2, 2)
        sv = StateVector.computational_zeros(4)
        circ = Circuit(4).h(0).h(3)
        q.apply_circuit(circ)
        sv = sv.apply_circuit(circ)
        q.apply_operator(gates.CZ(), [0, 3], QRUpdate(rank=None))
        sv = sv.apply_matrix(gates.CZ(), [0, 3])
        assert fidelity(q, sv) == pytest.approx(1.0, abs=1e-9)


class TestCircuitApplication:
    def test_circuit_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            peps.computational_zeros(2, 2).apply_circuit(Circuit(5).x(0))

    def test_apply_gate_object(self):
        from repro.circuits.circuit import Gate

        q = peps.computational_zeros(2, 2)
        q.apply_gate(Gate.named("X", (2,)))
        assert q.amplitude([0, 0, 1, 0]) == pytest.approx(1.0)

    def test_ghz_state_on_lattice(self):
        q = peps.computational_zeros(2, 2)
        circ = Circuit(4).h(0).cnot(0, 1).cnot(1, 3).cnot(3, 2)
        q.apply_circuit(circ, QRUpdate(rank=None))
        assert q.amplitude([0, 0, 0, 0], Exact()) == pytest.approx(1 / np.sqrt(2))
        assert q.amplitude([1, 1, 1, 1], Exact()) == pytest.approx(1 / np.sqrt(2))
        assert q.amplitude([1, 0, 0, 0], Exact()) == pytest.approx(0.0, abs=1e-12)

    def test_non_unitary_ite_gate_application(self):
        # exp(-tau ZZ) is non-unitary; the PEPS machinery must handle it.
        q = peps.computational_zeros(2, 2)
        q.apply_operator(gates.H(), [0])
        op = np.diag(np.exp(-0.3 * np.array([1.0, -1.0, -1.0, 1.0])))
        q.apply_operator(op, [0, 1], QRUpdate(rank=None))
        sv = StateVector.computational_zeros(4).apply_matrix(gates.H(), [0]).apply_matrix(op, [0, 1])
        assert fidelity(q, sv) == pytest.approx(1.0, abs=1e-9)

    def test_distributed_backend_circuit(self, dist_backend):
        q = peps.computational_zeros(2, 2, backend=dist_backend)
        circ = Circuit(4).h(0).cnot(0, 1).cnot(1, 3)
        q.apply_circuit(circ, LocalGramQRSVDUpdate(rank=None))
        sv = StateVector.computational_zeros(4).apply_circuit(circ)
        vec = q.to_statevector()
        assert abs(np.vdot(vec / np.linalg.norm(vec), sv.amplitudes)) == pytest.approx(1.0)
        assert dist_backend.simulated_seconds > 0

"""Tests for the driver applications: TEBD layers, imaginary time evolution, VQE."""

import numpy as np
import pytest

from repro import peps
from repro.algorithms.ite import ImaginaryTimeEvolution, ITEResult
from repro.algorithms.trotter import apply_tebd_layer, tebd_gate_layer
from repro.algorithms.vqe import VQE, build_vqe_ansatz
from repro.operators.hamiltonians import heisenberg_j1j2, transverse_field_ising
from repro.peps import BMPS, QRUpdate
from repro.statevector import StateVector
from repro.tensornetwork import ExplicitSVD


class TestTrotter:
    def test_trotter_gates_count_and_shape(self):
        ham = transverse_field_ising(2, 2)
        gates_list = ham.trotter_gates(-0.1)
        assert len(gates_list) == len(ham)

    def test_tebd_gate_layer_covers_all_bonds(self):
        gates_list = tebd_gate_layer(3, 3, rng=0)
        assert len(gates_list) == 12
        pairs = {tuple(sorted(p)) for p, _ in gates_list}
        assert (0, 1) in pairs and (0, 3) in pairs

    def test_tebd_layer_application_grows_bond(self):
        q = peps.computational_zeros(2, 2)
        q.apply_operator(np.eye(2), [0])
        gates_list = tebd_gate_layer(2, 2, rng=1)
        apply_tebd_layer(q, gates_list, QRUpdate(rank=3))
        assert q.max_bond_dimension() <= 3
        assert q.max_bond_dimension() > 1

    def test_tebd_layer_reproducible(self):
        a = tebd_gate_layer(2, 3, rng=7)
        b = tebd_gate_layer(2, 3, rng=7)
        for (pa, ga), (pb, gb) in zip(a, b):
            assert pa == pb
            assert np.allclose(ga, gb)


class TestITE:
    def test_trotterized_ite_matches_statevector_reference(self):
        # With a generous bond dimension the PEPS ITE must track the exact
        # Trotterized statevector ITE closely.
        ham = transverse_field_ising(2, 2)
        ite = ImaginaryTimeEvolution(
            ham, tau=0.05,
            update_option=QRUpdate(rank=4),
            contract_option=BMPS(ExplicitSVD(rank=16)),
        )
        result = ite.run(20, measure_every=5)
        plus = np.ones(16, dtype=complex) / 4.0
        sv_state, sv_energies = StateVector(plus).imaginary_time_evolution(ham, 0.05, 20)
        assert result.energies[-1] == pytest.approx(sv_energies[-1], abs=1e-3)
        assert result.measured_steps == [5, 10, 15, 20]

    def test_energy_decreases_toward_ground_state(self):
        ham = transverse_field_ising(2, 2)
        exact = ham.ground_state_energy() / 4
        ite = ImaginaryTimeEvolution(ham, tau=0.1, update_option=QRUpdate(rank=2),
                                     contract_option=BMPS(ExplicitSVD(rank=4)))
        result = ite.run(30, measure_every=10)
        # Truncation and Trotter error allow tiny non-monotonic wiggles only.
        assert result.energies[-1] <= result.energies[0] + 1e-4
        assert result.energies[-1] == pytest.approx(exact, abs=0.08)
        assert result.final_energy == result.energies[-1]

    def test_larger_bond_dimension_is_at_least_as_accurate(self):
        # The central accuracy claim of Fig. 13: increasing r improves (or at
        # least does not worsen) the reachable energy.
        ham = transverse_field_ising(2, 2)
        exact = ham.ground_state_energy() / 4
        errors = {}
        for r in (1, 2):
            ite = ImaginaryTimeEvolution(ham, tau=0.1, update_option=QRUpdate(rank=r),
                                         contract_option=BMPS(ExplicitSVD(rank=r * r)))
            result = ite.run(25, measure_every=25)
            errors[r] = abs(result.energies[-1] - exact)
        assert errors[2] <= errors[1] + 1e-6

    def test_custom_initial_state_and_callback(self):
        ham = transverse_field_ising(2, 2)
        ite = ImaginaryTimeEvolution(ham, tau=0.05, update_option=QRUpdate(rank=2))
        init = ite.initial_state()
        seen = []
        result = ite.run(4, initial_state=init, measure_every=2,
                         callback=lambda step, e: seen.append((step, e)))
        assert [s for s, _ in seen] == [2, 4]
        assert isinstance(result, ITEResult)

    @pytest.mark.parametrize("measure_every", [0, -1])
    def test_non_positive_measure_every_raises_before_evolving(self, measure_every):
        ite = ImaginaryTimeEvolution(transverse_field_ising(2, 2), tau=0.05,
                                     update_option=QRUpdate(rank=2))
        init = ite.initial_state()
        ite.step = lambda state: pytest.fail("evolved before validating measure_every")
        with pytest.raises(ValueError, match="measure_every"):
            ite.run(2, initial_state=init, measure_every=measure_every)

    def test_ite_result_requires_energies(self):
        with pytest.raises(ValueError):
            ITEResult(state=None).final_energy

    def test_j1j2_model_short_run(self):
        # Exercises diagonal terms (SWAP routing) inside the ITE loop.
        ham = heisenberg_j1j2(2, 2)
        ite = ImaginaryTimeEvolution(ham, tau=0.05, update_option=QRUpdate(rank=2),
                                     contract_option=BMPS(ExplicitSVD(rank=4)))
        result = ite.run(3, measure_every=3)
        assert len(result.energies) == 1
        assert np.isfinite(result.energies[0])


class TestVQEAnsatz:
    def test_parameter_count_and_structure(self):
        circ = build_vqe_ansatz(2, 2, np.zeros(8), n_layers=2)
        # Per layer: 4 Ry + 4 CNOT; 2 layers.
        assert len(circ) == 16
        assert sum(g.n_qubits == 2 for g in circ) == 8

    def test_wrong_parameter_count_raises(self):
        with pytest.raises(ValueError):
            build_vqe_ansatz(2, 2, np.zeros(7), n_layers=2)

    def test_zero_parameters_give_product_state(self):
        circ = build_vqe_ansatz(2, 2, np.zeros(4), n_layers=1)
        sv = StateVector.computational_zeros(4).apply_circuit(circ)
        assert abs(sv.amplitude([0, 0, 0, 0])) == pytest.approx(1.0)


class TestVQE:
    def test_energy_agrees_between_simulators(self):
        ham = transverse_field_ising(2, 2)
        params = np.linspace(0.1, 0.8, 4)
        vqe_sv = VQE(ham, n_layers=1, simulator="statevector")
        vqe_peps = VQE(ham, n_layers=1, simulator="peps",
                       update_option=QRUpdate(rank=4),
                       contract_option=BMPS(ExplicitSVD(rank=16)))
        assert vqe_peps.energy(params) == pytest.approx(vqe_sv.energy(params), abs=1e-6)

    def test_statevector_vqe_reaches_reasonable_energy(self):
        ham = transverse_field_ising(2, 2)
        exact = ham.ground_state_energy() / 4
        vqe = VQE(ham, n_layers=1, simulator="statevector")
        result = vqe.run(maxiter=40, seed=0)
        assert result.optimal_energy_per_site <= -3.0
        assert result.optimal_energy_per_site >= exact - 1e-6
        assert result.n_function_evaluations > 0
        assert len(result.energy_history) >= 1

    def test_peps_vqe_single_iterations_run(self):
        ham = transverse_field_ising(2, 2)
        vqe = VQE(ham, n_layers=1, simulator="peps", update_option=QRUpdate(rank=2),
                  contract_option=BMPS(ExplicitSVD(rank=4)))
        result = vqe.run(maxiter=2, seed=1)
        assert np.isfinite(result.optimal_energy)
        assert result.optimal_parameters.shape == (4,)

    def test_larger_bond_not_worse_at_fixed_parameters(self):
        # PEPS VQE objective approaches the exact objective as r grows
        # (Fig. 14's qualitative claim), checked at a fixed parameter vector.
        ham = transverse_field_ising(2, 2)
        params = np.linspace(-0.4, 0.9, 4)
        exact = VQE(ham, n_layers=1, simulator="statevector").energy(params)
        errors = {}
        for r in (1, 2):
            vqe = VQE(ham, n_layers=1, simulator="peps", update_option=QRUpdate(rank=r),
                      contract_option=BMPS(ExplicitSVD(rank=max(r * r, 2))))
            errors[r] = abs(vqe.energy(params) - exact)
        assert errors[2] <= errors[1] + 1e-8

    def test_invalid_configuration_raises(self):
        ham = transverse_field_ising(2, 2)
        with pytest.raises(ValueError):
            VQE(ham, simulator="quantum-annealer")
        vqe = VQE(ham, n_layers=1, simulator="statevector")
        with pytest.raises(ValueError):
            vqe.run(initial_parameters=np.zeros(3))

    def test_callback_invoked(self):
        ham = transverse_field_ising(2, 2)
        vqe = VQE(ham, n_layers=1, simulator="statevector")
        seen = []
        vqe.run(maxiter=3, seed=2, callback=lambda i, e: seen.append(i))
        assert seen == list(range(1, len(seen) + 1))

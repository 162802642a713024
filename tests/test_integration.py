"""End-to-end integration tests spanning multiple subsystems.

These follow the paper's own experimental designs at miniature scale:
random-quantum-circuit amplitude accuracy (Fig. 10), backend consistency
between NumPy and the simulated distributed backend, the caching claim of
Fig. 9 (same value, fewer row absorptions) and the local-Gram claim of
Fig. 7b (same result, no large redistributions).
"""

import numpy as np
import pytest

from repro import peps
from repro.algorithms.trotter import apply_tebd_layer, tebd_gate_layer
from repro.backends import get_backend
from repro.circuits import random_quantum_circuit
from repro.operators.hamiltonians import transverse_field_ising
from repro.operators.observable import Observable
from repro.peps import (
    BMPS,
    Exact,
    LocalGramQRSVDUpdate,
    LocalGramQRUpdate,
    QRUpdate,
)
from repro.statevector import StateVector
from repro.telemetry import REGISTRY
from repro.tensornetwork import ExplicitSVD, ImplicitRandomizedSVD
from benchmarks.bench_fig9_caching import expectation_uncached


class TestRQCAccuracy:
    """Miniature version of the Fig. 10 experiment."""

    def test_exact_peps_evolution_matches_statevector_amplitudes(self):
        nrow = ncol = 2
        circ = random_quantum_circuit(nrow, ncol, n_layers=8, seed=0)
        q = peps.computational_zeros(nrow, ncol)
        q.apply_circuit(circ, QRUpdate(rank=None))
        sv = StateVector.computational_zeros(4).apply_circuit(circ)
        for bits in ([0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]):
            assert q.amplitude(bits, Exact()) == pytest.approx(sv.amplitude(bits), abs=1e-8)

    def test_relative_error_drops_with_contraction_bond(self):
        nrow, ncol = 2, 3
        circ = random_quantum_circuit(nrow, ncol, n_layers=8, seed=1)
        q = peps.computational_zeros(nrow, ncol)
        q.apply_circuit(circ, QRUpdate(rank=None))
        sv = StateVector.computational_zeros(6).apply_circuit(circ)
        bits = [0, 1, 0, 1, 1, 0]
        exact = sv.amplitude(bits)
        errors = []
        for m in (1, 2, 8, 32):
            approx = q.amplitude(bits, BMPS(ExplicitSVD(rank=m)))
            errors.append(abs(approx - exact) / max(abs(exact), 1e-300))
        assert errors[-1] < 1e-6
        assert errors[-1] <= errors[0]

    def test_ibmps_matches_bmps_accuracy_for_rqc(self, randomized_svd_calls):
        nrow, ncol = 2, 2
        circ = random_quantum_circuit(nrow, ncol, n_layers=8, seed=2)
        q = peps.computational_zeros(nrow, ncol)
        q.apply_circuit(circ, QRUpdate(rank=None))
        sv = StateVector.computational_zeros(4).apply_circuit(circ)
        bits = [1, 0, 0, 1]
        exact = sv.amplitude(bits)
        m = 8
        bmps_val = q.amplitude(bits, BMPS(ExplicitSVD(rank=m)))
        ibmps_val = q.amplitude(bits, BMPS(ImplicitRandomizedSVD(rank=m, niter=2, oversample=4, seed=0)))
        assert bmps_val == pytest.approx(exact, abs=1e-7)
        assert ibmps_val == pytest.approx(exact, abs=1e-6)
        # On a 2x2 lattice every sketch covers its operator's short side.
        assert ibmps_val == bmps_val and randomized_svd_calls == []

    def test_truncated_rqc_evolution_has_bounded_bond(self):
        nrow, ncol = 2, 3
        circ = random_quantum_circuit(nrow, ncol, n_layers=8, seed=3)
        q = peps.computational_zeros(nrow, ncol)
        q.apply_circuit(circ, QRUpdate(rank=4))
        assert q.max_bond_dimension() <= 4
        norm = q.norm(BMPS(ExplicitSVD(rank=16)))
        assert np.isfinite(norm) and norm > 0


class TestBackendConsistency:
    def test_numpy_and_distributed_produce_identical_physics(self):
        results = {}
        for name in ("numpy", "distributed"):
            backend = get_backend(name) if name == "numpy" else get_backend(name, nprocs=4)
            q = peps.computational_zeros(2, 2, backend=backend)
            circ = random_quantum_circuit(2, 2, n_layers=4, seed=4)
            q.apply_circuit(circ, QRUpdate(rank=None))
            obs = Observable.ZZ(0, 1) + 0.5 * Observable.X(3)
            results[name] = q.expectation(obs, contract_option=BMPS(ExplicitSVD(rank=8)))
        assert results["numpy"] == pytest.approx(results["distributed"], abs=1e-10)

    def test_distributed_stats_accumulate_during_simulation(self):
        backend = get_backend("distributed", nprocs=16)
        q = peps.computational_zeros(2, 2, backend=backend)
        gates_layer = tebd_gate_layer(2, 2, rng=0)
        apply_tebd_layer(q, gates_layer, QRUpdate(rank=2))
        stats = backend.stats
        assert stats.simulated_seconds > 0
        assert stats.flops > 0
        assert stats.counts.get("einsum", 0) > 0


class TestCachingClaim:
    def test_cache_gives_identical_values_with_fewer_row_absorptions(self):
        q = peps.computational_zeros(3, 3)
        circ = random_quantum_circuit(3, 3, n_layers=4, seed=5)
        q.apply_circuit(circ, QRUpdate(rank=2))
        ham = transverse_field_ising(3, 3)
        option = BMPS(ExplicitSVD(rank=4))

        def absorptions():
            return REGISTRY.value("peps.row_absorptions")

        before = absorptions()
        cached = q.expectation(ham, contract_option=option)
        cached_calls = absorptions() - before

        before = absorptions()
        uncached = expectation_uncached(q, ham, option)
        uncached_calls = absorptions() - before

        assert cached == pytest.approx(uncached, abs=1e-8)
        # The cache needs two full sweeps (2 * nrow); without it every term
        # re-absorbs rows, which is strictly more work for this Hamiltonian.
        assert cached_calls < uncached_calls


class TestLocalGramClaim:
    def test_local_gram_update_avoids_large_redistributions(self):
        """Algorithm 5's point: the Gram path moves only small tensors."""
        layer = tebd_gate_layer(2, 3, rng=1)
        volumes = {}
        for option_cls in (QRUpdate, LocalGramQRSVDUpdate):
            backend = get_backend("distributed", nprocs=64)
            q = peps.computational_zeros(2, 3, backend=backend)
            apply_tebd_layer(q, layer, option_cls(rank=4))
            stats = backend.stats
            redis = stats.seconds_by_category.get("redistribution", 0.0)
            redis += stats.seconds_by_category.get("transpose", 0.0)
            factor = stats.seconds_by_category.get("svd", 0.0) + stats.seconds_by_category.get("qr", 0.0)
            volumes[option_cls.__name__] = redis + factor
        assert volumes["LocalGramQRSVDUpdate"] < volumes["QRUpdate"]

    def test_gram_and_qr_updates_agree_numerically(self):
        layer = tebd_gate_layer(2, 2, rng=2)
        states = {}
        for option_cls in (QRUpdate, LocalGramQRUpdate, LocalGramQRSVDUpdate):
            q = peps.computational_zeros(2, 2)
            apply_tebd_layer(q, layer, option_cls(rank=None))
            states[option_cls.__name__] = q.to_statevector()
        ref = states["QRUpdate"] / np.linalg.norm(states["QRUpdate"])
        for name, vec in states.items():
            vec = vec / np.linalg.norm(vec)
            assert abs(np.vdot(vec, ref)) == pytest.approx(1.0, abs=1e-8), name


class TestEndToEndGroundState:
    def test_ite_then_expectation_pipeline(self):
        from repro.algorithms.ite import ImaginaryTimeEvolution

        ham = transverse_field_ising(2, 2)
        ite = ImaginaryTimeEvolution(ham, tau=0.1, update_option=QRUpdate(rank=2),
                                     contract_option=BMPS(ExplicitSVD(rank=4)))
        result = ite.run(20, measure_every=20)
        state = result.state
        # The final state's magnetization along X should be substantial for
        # hx = -3.5 (the field dominates), and the energy should be below the
        # trivial product-state energy.
        mx = state.expectation(
            Observable.sum([Observable.X(i) for i in range(4)]),
            contract_option=BMPS(ExplicitSVD(rank=4)),
        ) / 4
        assert mx > 0.8
        assert result.final_energy < -3.4

"""Tests for PEPS expectation values and the intermediate caching strategy."""

import numpy as np
import pytest

from repro import peps
from repro.circuits import Circuit
from repro.operators.hamiltonians import heisenberg_j1j2, transverse_field_ising
from repro.operators.observable import Observable
from repro.peps import BMPS, Exact, QRUpdate
from repro.peps.peps import random_peps
from repro.statevector import StateVector
from repro.tensornetwork import ExplicitSVD, ImplicitRandomizedSVD
from benchmarks.bench_fig9_caching import expectation_uncached


def prepared_state(nrow, ncol, seed=0):
    """A moderately entangled PEPS and the matching statevector."""
    n = nrow * ncol
    rng = np.random.default_rng(seed)
    circ = Circuit(n)
    for i in range(n):
        circ.ry(i, float(rng.uniform(0, np.pi)))
    pairs = []
    for r in range(nrow):
        for c in range(ncol):
            s = r * ncol + c
            if c + 1 < ncol:
                pairs.append((s, s + 1))
            if r + 1 < nrow:
                pairs.append((s, s + ncol))
    for a, b in pairs:
        circ.cnot(a, b)
    q = peps.computational_zeros(nrow, ncol)
    q.apply_circuit(circ, QRUpdate(rank=None))
    sv = StateVector.computational_zeros(n).apply_circuit(circ)
    return q, sv


class TestAgainstStatevector:
    def test_single_site_terms(self):
        q, sv = prepared_state(2, 3, seed=1)
        obs = Observable.sum([Observable.Z(i) for i in range(6)]) + 0.3 * Observable.X(4)
        ref = sv.expectation(obs)
        val = q.expectation(obs, contract_option=BMPS(ExplicitSVD(rank=16)))
        assert val == pytest.approx(ref, abs=1e-8)

    def test_horizontal_vertical_and_diagonal_two_site_terms(self):
        q, sv = prepared_state(3, 3, seed=2)
        obs = (
            Observable.ZZ(0, 1)            # horizontal
            + Observable.XX(3, 6)          # vertical
            + 0.5 * Observable.ZZ(0, 4)    # diagonal
            + 0.25 * Observable.pauli("YY", 5, 7)   # anti-diagonal
        )
        ref = sv.expectation(obs)
        val = q.expectation(obs, contract_option=BMPS(ExplicitSVD(rank=32)))
        assert val == pytest.approx(ref, abs=1e-7)

    def test_constant_term(self):
        q, sv = prepared_state(2, 2, seed=3)
        obs = Observable.identity(2.5) + Observable.Z(0)
        ref = sv.expectation(obs)
        val = q.expectation(obs, contract_option=Exact())
        assert val == pytest.approx(ref, abs=1e-8)

    def test_hamiltonian_expectation_tfi(self):
        q, sv = prepared_state(2, 3, seed=4)
        ham = transverse_field_ising(2, 3)
        ref = sv.expectation(ham)
        val = q.expectation(ham, contract_option=BMPS(ExplicitSVD(rank=16)))
        assert val == pytest.approx(ref, abs=1e-7)

    def test_hamiltonian_expectation_j1j2_with_diagonals(self):
        q, sv = prepared_state(3, 3, seed=5)
        ham = heisenberg_j1j2(3, 3)
        ref = sv.expectation(ham)
        val = q.expectation(ham, contract_option=BMPS(ExplicitSVD(rank=32)))
        assert val == pytest.approx(ref, abs=1e-6)

    def test_unnormalized_expectation(self):
        q, sv = prepared_state(2, 2, seed=6)
        q_scaled = q.scale(2.0)
        obs = Observable.Z(0)
        ref = sv.expectation(obs)
        normalized = q_scaled.expectation(obs, contract_option=Exact(), normalized=True)
        unnormalized = q_scaled.expectation(obs, contract_option=Exact(), normalized=False)
        assert normalized == pytest.approx(ref, abs=1e-8)
        assert unnormalized == pytest.approx(4.0 * ref, abs=1e-7)


class TestCachingEquivalence:
    def test_cache_and_no_cache_agree(self):
        q, _ = prepared_state(3, 3, seed=7)
        ham = transverse_field_ising(3, 3)
        option = BMPS(ExplicitSVD(rank=8))
        cached = q.expectation(ham, contract_option=option)
        uncached = expectation_uncached(q, ham, option)
        assert cached == pytest.approx(uncached, abs=1e-8)

    def test_cache_with_implicit_svd(self, randomized_svd_calls):
        q, sv = prepared_state(2, 3, seed=8)
        obs = Observable.ZZ(0, 1) + Observable.ZZ(1, 4) + Observable.X(5)
        ref = sv.expectation(obs)
        val = q.expectation(
            obs,
            contract_option=BMPS(ImplicitRandomizedSVD(rank=16, niter=2, oversample=4, seed=0)),
        )
        assert val == pytest.approx(ref, abs=1e-6)
        # Bond 16 keeps a 2x3 sandwich whole: the explicit SVD runs throughout.
        assert randomized_svd_calls == []

    def test_environment_norm_matches_inner(self):
        from repro.peps.envs.boundary import BoundaryEnvironment

        q, _ = prepared_state(2, 3, seed=10)
        env = BoundaryEnvironment(q, BMPS(ExplicitSVD(rank=16))).build()
        ref = q.inner(q, BMPS(ExplicitSVD(rank=16)))
        assert env.norm_sq() == pytest.approx(ref, rel=1e-8)


class TestErrorsAndEdgeCases:
    def test_unsupported_term_span_raises(self):
        q, _ = prepared_state(3, 3, seed=11)
        obs = Observable.ZZ(0, 8)  # corner-to-corner spans 3 rows
        with pytest.raises(ValueError):
            q.expectation(obs, contract_option=Exact())

    def test_unsupported_observable_type_raises(self):
        q, _ = prepared_state(2, 2, seed=12)
        with pytest.raises(TypeError):
            q.expectation(object())

    def test_unsupported_contract_option_raises(self):
        q, _ = prepared_state(2, 2, seed=13)
        from repro.peps.contraction.options import ContractOption

        with pytest.raises(TypeError):
            q.expectation(Observable.Z(0), contract_option=ContractOption())

    def test_observable_on_random_peps(self):
        q = random_peps(2, 2, bond_dim=2, seed=14)
        sv = q.to_statevector()
        sv = sv / np.linalg.norm(sv)
        obs = Observable.ZZ(0, 3) + Observable.X(2)
        ref = float(np.real(np.vdot(sv, obs.to_matrix(4) @ sv)))
        val = q.expectation(obs, contract_option=Exact())
        assert val == pytest.approx(ref, abs=1e-8)

    def test_paper_api_example(self):
        """The code listing from Section V-A of the paper runs end to end."""
        from repro import Observable as Obs
        from repro.peps import QRUpdate as QR
        from repro.operators import gates

        qstate = peps.computational_zeros(nrow=2, ncol=3, backend="numpy")
        Y = gates.Y()
        CX = gates.CNOT()
        qstate.apply_operator(Y, [1])
        qstate.apply_operator(CX, [1, 4], QR(rank=2))
        H = Obs.ZZ(3, 4) + 0.2 * Obs.X(1)
        result = qstate.expectation(
            H,
            contract_option=BMPS(ImplicitRandomizedSVD(rank=4, seed=0)),
        )
        sv = StateVector.computational_zeros(6)
        sv = sv.apply_matrix(Y, [1]).apply_matrix(CX, [1, 4])
        assert result == pytest.approx(sv.expectation(H), abs=1e-6)

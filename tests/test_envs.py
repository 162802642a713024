"""Tests for the pluggable PEPS environment subsystem (repro.peps.envs)."""

import numpy as np
import pytest

from repro import peps
from repro.operators import gates
from repro.operators.hamiltonians import transverse_field_ising
from repro.operators.observable import Observable
from repro.peps import BMPS, BoundaryEnvironment, Exact, QRUpdate, make_environment
from repro.peps.envs.boundary import option_signature
from repro.tensornetwork import ExplicitSVD, ImplicitRandomizedSVD
from benchmarks.bench_fig9_caching import expectation_uncached

Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def random_gate_sequence(state, rng, n_gates, rank=None):
    """Apply a random sequence of one- and two-site gates in place."""
    n = state.n_sites
    for _ in range(n_gates):
        if rng.uniform() < 0.4:
            theta = float(rng.uniform(0, np.pi))
            ry = np.array(
                [[np.cos(theta / 2), -np.sin(theta / 2)],
                 [np.sin(theta / 2), np.cos(theta / 2)]],
                dtype=np.complex128,
            )
            state.apply_operator(ry, [int(rng.integers(n))])
        else:
            r = int(rng.integers(state.nrow))
            c = int(rng.integers(state.ncol))
            if rng.uniform() < 0.5 and c + 1 < state.ncol:
                a, b = r * state.ncol + c, r * state.ncol + c + 1
            elif r + 1 < state.nrow:
                a, b = r * state.ncol + c, (r + 1) * state.ncol + c
            else:
                a, b = r * state.ncol + c, r * state.ncol + (c + 1) % state.ncol
            if a == b:
                continue
            state.apply_operator(gates.CNOT(), [a, b], QRUpdate(rank=rank))


class TestEnvParity:
    def test_exact_and_bmps_identical_3x3(self, backend):
        """Acceptance: exact == BMPS environment to 1e-8 on both backends."""
        state = peps.random_peps(3, 3, bond_dim=2, seed=11, backend=backend)
        ham = transverse_field_ising(3, 3)
        exact = BoundaryEnvironment(state).expectation(ham)
        bmps = BoundaryEnvironment(state, BMPS(ExplicitSVD(rank=64))).expectation(ham)
        assert bmps == pytest.approx(exact, abs=1e-8)

    def test_cached_env_matches_fresh_after_random_gates(self, backend):
        """Incrementally maintained env == from-scratch evaluation, both backends."""
        rng = np.random.default_rng(5)
        state = peps.computational_zeros(3, 3, backend=backend)
        env = state.attach_environment(Exact())
        ham = transverse_field_ising(3, 3)
        for round_index in range(3):
            random_gate_sequence(state, rng, n_gates=4)
            cached = env.expectation(ham)
            fresh = make_environment(state).expectation(ham)
            assert cached == pytest.approx(fresh, abs=1e-8)

    def test_truncated_env_matches_seed_cache_path(self, randomized_svd_calls):
        # Rank 2 without oversampling is narrower than the zip-up operators
        # (4 wide at least), so the boundaries run Algorithm 4: they truncate
        # the random PEPS, and the circuit's stay low rank.
        circuit = peps.computational_zeros(3, 3)
        random_gate_sequence(circuit, np.random.default_rng(3), n_gates=10)
        ham = transverse_field_ising(3, 3)
        option = BMPS(ImplicitRandomizedSVD(rank=2, niter=1, oversample=0, seed=0))
        for state in (peps.random_peps(3, 3, bond_dim=2, seed=3), circuit):
            randomized_svd_calls.clear()
            via_env = state.expectation(ham, contract_option=option)
            uncached = expectation_uncached(state, ham, option)
            assert randomized_svd_calls
            assert via_env == pytest.approx(uncached, abs=1e-6)


class TestInvalidation:
    def test_dirty_rows_recompute_only_touched_segments(self):
        state = peps.random_peps(4, 3, bond_dim=2, seed=21)
        ham = transverse_field_ising(4, 3)
        env = state.attach_environment(Exact())
        env.expectation(ham)
        full_build = env.stats.row_absorptions
        # Touch only row 3 (the bottom row): upper boundaries stay valid.
        state.apply_operator(gates.CNOT(), [9, 10], QRUpdate(rank=2))
        before = env.stats.row_absorptions
        value = env.expectation(ham)
        incremental = env.stats.row_absorptions - before
        assert incremental < full_build
        fresh = make_environment(state, Exact()).expectation(ham)
        assert value == pytest.approx(fresh, abs=1e-8)

    def test_invalidate_all_and_row_bounds(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=22)
        env = state.attach_environment(Exact())
        env.build()
        env.invalidate()
        assert env._upper_valid == 0 and env._lower_valid == state.nrow - 1
        with pytest.raises(ValueError):
            env.invalidate([5])

    def test_invalidate_empty_rows_is_noop(self):
        """An empty row iterable must keep the cache — norm included — warm."""
        state = peps.random_peps(3, 3, bond_dim=2, seed=27)
        env = state.attach_environment(Exact())
        env.build()
        env.norm_sq()
        invalidations = env.stats.invalidations
        norm_evaluations = env.stats.norm_evaluations
        absorptions = env.stats.row_absorptions
        env.invalidate([])
        env.invalidate(iter(()))  # a consumed generator counts as empty too
        assert env.stats.invalidations == invalidations
        assert env._norm_sq is not None  # cached norm survived
        env.norm_sq()
        env.build()
        assert env.stats.norm_evaluations == norm_evaluations
        assert env.stats.row_absorptions == absorptions

    def test_setitem_invalidates(self):
        state = peps.random_peps(2, 2, bond_dim=1, seed=23)
        env = state.attach_environment(Exact())
        n0 = env.norm()
        state[0, 0] = state[0, 0] * 2.0
        assert env.norm() == pytest.approx(2.0 * n0, rel=1e-8)

    def test_truncated_norm_independent_of_cache_history(self):
        """A truncated env's norm must not depend on which sweeps are warm."""
        state = peps.random_peps(6, 6, bond_dim=2, seed=26)
        option = BMPS(ExplicitSVD(rank=4))
        cold = make_environment(state, option)
        cold_norm = cold.norm_sq()
        warm_lower = make_environment(state, option)
        warm_lower.ensure_lower(0)   # warm the bottom sweep first
        warm_lower.invalidate([0])   # then dirty only the top row
        assert warm_lower.norm_sq() == pytest.approx(cold_norm, rel=1e-12)

    def test_normalize_inplace_keeps_cache_warm(self):
        state = peps.random_peps(3, 3, bond_dim=2, seed=24)
        env = state.attach_environment(Exact())
        env.build()
        env.norm_sq()
        before = env.stats.row_absorptions
        state.normalize_()
        assert env.stats.row_absorptions == before  # no recomputation
        assert env.norm() == pytest.approx(1.0, abs=1e-9)

    def test_normalize_inplace_keeps_truncated_cache_warm(self):
        """The analytic rescale must also serve truncated environments: zero
        extra row absorptions, and subsequent queries match a fresh build."""
        option = BMPS(ExplicitSVD(rank=4))
        state = peps.random_peps(4, 4, bond_dim=3, seed=28)
        env = state.attach_environment(option)
        ham = transverse_field_ising(4, 4)
        env.expectation(ham)
        before = env.stats.row_absorptions
        state.normalize_()
        assert env.stats.row_absorptions == before  # analytic rescale only
        assert env.norm() == pytest.approx(1.0, abs=1e-9)
        value = env.expectation(ham)
        assert env.stats.row_absorptions == before  # boundaries still valid
        fresh = make_environment(state, option).expectation(ham)
        assert value == pytest.approx(fresh, rel=1e-8)

    def test_copy_does_not_share_environment(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=25)
        env = state.attach_environment(Exact())
        clone = state.copy()
        assert clone.environment is None
        assert state.environment is env


class TestBatchedMeasurement:
    def test_measure_1site_matches_per_term_expectation(self):
        state = peps.random_peps(3, 3, bond_dim=2, seed=31)
        env = state.attach_environment(Exact())
        values = env.measure_1site(Z)
        assert set(values) == set(range(9))
        for s in range(9):
            ref = BoundaryEnvironment(state).expectation(Observable.Z(s))
            assert values[s] == pytest.approx(ref, abs=1e-9)

    def test_measure_1site_site_subset_and_dict_operator(self):
        state = peps.random_peps(2, 3, bond_dim=2, seed=32)
        env = state.attach_environment(Exact())
        values = env.measure_1site({0: Z, 4: X})
        assert set(values) == {0, 4}
        assert values[0] == pytest.approx(
            BoundaryEnvironment(state).expectation(Observable.Z(0)), abs=1e-9
        )
        assert values[4] == pytest.approx(
            BoundaryEnvironment(state).expectation(Observable.X(4)), abs=1e-9
        )

    def test_measure_1site_duplicate_sites(self):
        state = peps.random_peps(2, 3, bond_dim=2, seed=35)
        env = state.attach_environment(Exact())
        values = env.measure_1site(Z, sites=[1, 0, 1, 1])
        assert set(values) == {0, 1}
        for s in (0, 1):
            ref = BoundaryEnvironment(state).expectation(Observable.Z(s))
            assert values[s] == pytest.approx(ref, abs=1e-9)

    def test_measure_2site_all_nearest_neighbours(self):
        state = peps.random_peps(3, 3, bond_dim=2, seed=33)
        env = state.attach_environment(Exact())
        values = env.measure_2site(Z, Z)
        assert len(values) == 12  # 6 horizontal + 6 vertical pairs on 3x3
        for (a, b), val in values.items():
            ref = BoundaryEnvironment(state).expectation(Observable.ZZ(a, b))
            assert val == pytest.approx(ref, abs=1e-9), (a, b)

    def test_measure_on_distributed_backend(self, dist_backend):
        state = peps.random_peps(2, 3, bond_dim=2, seed=34, backend=dist_backend)
        env = state.attach_environment(Exact())
        values = env.measure_1site(Z, sites=[0, 5])
        for s in (0, 5):
            ref = BoundaryEnvironment(state).expectation(Observable.Z(s))
            assert values[s] == pytest.approx(ref, abs=1e-9)


class TestSampling:
    def test_sample_statistics_match_statevector(self):
        """Acceptance: sample() frequencies track |<b|psi>|^2 on a small lattice."""
        rng = np.random.default_rng(41)
        state = peps.computational_zeros(2, 2)
        random_gate_sequence(state, rng, n_gates=6)
        env = state.attach_environment(Exact())
        sv = state.to_statevector()
        probs = np.abs(sv) ** 2
        probs /= probs.sum()
        nshots = 4000
        shots = env.sample(rng=0, nshots=nshots)
        assert shots.shape == (nshots, 4)
        weights = 2 ** np.arange(3, -1, -1)
        counts = np.bincount(shots @ weights, minlength=16)
        empirical = counts / nshots
        total_variation = 0.5 * np.abs(empirical - probs).sum()
        assert total_variation < 0.05

    def test_sample_values_within_physical_dimension(self, backend):
        state = peps.random_peps(2, 2, bond_dim=2, seed=42, backend=backend)
        shots = state.sample(rng=1, nshots=8)
        assert shots.shape == (8, 4)
        assert np.all((shots >= 0) & (shots < 2))

    @pytest.mark.parametrize("state,support", [
        (peps.computational_basis([1, 0, 1, 1, 0, 1], 2, 3), [[1, 0, 1, 1, 0, 1]]),
        # |+> on site 0, |0> elsewhere: a two-bitstring superposition
        (peps.product_state([[1, 1]] + [[1, 0]] * 5, 2, 3),
         [[0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]]),
    ], ids=["basis", "superposition"])
    def test_shots_lie_in_wavefunction_support(self, state, support):
        shots = state.sample(rng=7, nshots=16)
        assert all(list(shot) in support for shot in shots)

    def test_sample_rejects_bad_nshots(self):
        state = peps.random_peps(2, 2, bond_dim=1, seed=43)
        with pytest.raises(ValueError):
            state.sample(nshots=0)


class TestOptionRouting:
    def test_make_environment_dispatch(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=51)
        for option in (None, Exact(), BMPS(ExplicitSVD(rank=4))):
            assert type(make_environment(state, option)) is BoundaryEnvironment
        with pytest.raises(TypeError):
            from repro.peps.contraction.options import ContractOption

            make_environment(state, ContractOption())

    def test_attached_env_reused_only_for_matching_option(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=52)
        option = BMPS(ExplicitSVD(rank=4))
        env = state.attach_environment(option)
        assert state._environment_for(BMPS(ExplicitSVD(rank=4))) is env
        assert state._environment_for(None) is env
        other = state._environment_for(BMPS(ExplicitSVD(rank=8)))
        assert other is not env

    def test_explicit_option_norm_unchanged_by_attach(self):
        """norm()/inner() with an explicit option give the same value whether
        or not a matching environment is attached."""
        state = peps.random_peps(4, 4, bond_dim=3, seed=53)
        option = BMPS(ExplicitSVD(rank=3))
        before = state.norm(option)
        state.attach_environment(option)
        assert state.norm(option) == pytest.approx(before, rel=1e-12)
        assert state.inner(state, option) == pytest.approx(before**2, rel=1e-10)

    def test_option_signature_equivalences(self):
        assert option_signature(None) == option_signature(Exact())
        assert option_signature(BMPS()) == option_signature(BMPS(ExplicitSVD()))
        assert option_signature(BMPS(ExplicitSVD(rank=4))) != option_signature(
            BMPS(ImplicitRandomizedSVD(rank=4))
        )

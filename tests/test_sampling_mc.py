"""Tests for the Markov-chain (Metropolis) sampler (repro.peps.envs.sampling_mc).

Each chain is initialized from one perfect conditional draw, and Metropolis
updates preserve the stationary distribution, so every shot is an *exact*
sample from ``|<b|psi>|^2`` regardless of the sweep count — which is what the
statistical checks below rely on.
"""

import numpy as np
import pytest

from repro import peps
from repro.peps import BMPS
from repro.peps.contraction.options import CTMOption, Exact
from repro.peps.envs import BoundaryEnvironment, EnvCTM
from repro.peps.envs.sampling_mc import _amplitude_option, sample_mc
from repro.tensornetwork import ExplicitSVD


class TestDispatch:
    def test_unknown_sampler_kind_rejected(self):
        state = peps.computational_zeros(2, 2)
        with pytest.raises(ValueError, match="unknown sampler kind"):
            state.sample(rng=0, sampler="metropolis-hastings")

    def test_perfect_sampler_rejects_options(self):
        state = peps.computational_zeros(2, 2)
        with pytest.raises(ValueError, match="perfect sampler takes no options"):
            state.sample(rng=0, sampler="perfect", sampler_options={"sweeps": 4})

    def test_invalid_shot_and_sweep_counts_rejected(self):
        env = BoundaryEnvironment(peps.computational_zeros(2, 2))
        with pytest.raises(ValueError):
            sample_mc(env, rng=0, nshots=0)
        with pytest.raises(ValueError):
            sample_mc(env, rng=0, nshots=1, sweeps=-1)


class TestAmplitudeOption:
    """Chains evaluate amplitudes with the environment's own truncation."""

    def test_exact_environments_use_exact_amplitudes(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=3)
        assert _amplitude_option(BoundaryEnvironment(state)) == Exact()
        assert _amplitude_option(EnvCTM(state, CTMOption())) == Exact()

    def test_boundary_mps_uses_its_resolved_option(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=3)
        option = BMPS(ExplicitSVD(rank=4))
        env = BoundaryEnvironment(state, option)
        assert _amplitude_option(env) == BMPS(option.resolved_svd_option())
        shots = env.sample(rng=5, nshots=2, sampler="mc", sampler_options={"sweeps": 1})
        assert shots.shape == (2, 4)

    def test_truncating_ctm_is_refused(self):
        """A chi-truncated CTM environment has no single-layer amplitude:
        MC sampling refuses instead of silently contracting exactly."""
        env = EnvCTM(peps.random_peps(2, 2, bond_dim=2, seed=3), CTMOption(chi=4))
        with pytest.raises(ValueError, match="perfect sampler"):
            env.sample(rng=0, nshots=1, sampler="mc")
        assert env.sample(rng=0, nshots=1).shape == (1, 4)


class TestDeterminism:
    def test_same_seed_same_shots(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=3)
        first = state.sample(rng=11, nshots=4, sampler="mc", sampler_options={"sweeps": 2})
        second = state.sample(rng=11, nshots=4, sampler="mc", sampler_options={"sweeps": 2})
        np.testing.assert_array_equal(first, second)
        assert first.shape == (4, 4)
        assert first.dtype == np.int64

    def test_shots_are_independent_chains(self):
        # Chains hang off per-shot substreams: the first shot of a 4-shot
        # request equals a 1-shot request with the same root seed.
        state = peps.random_peps(2, 2, bond_dim=2, seed=3)
        many = state.sample(rng=11, nshots=4, sampler="mc", sampler_options={"sweeps": 2})
        one = state.sample(rng=11, nshots=1, sampler="mc", sampler_options={"sweeps": 2})
        np.testing.assert_array_equal(many[:1], one)

    def test_computational_basis_state_samples_exactly(self):
        state = peps.computational_basis([1, 0, 1, 1, 0, 1], 2, 3)
        shots = state.sample(rng=7, nshots=5, sampler="mc", sampler_options={"sweeps": 2})
        assert np.all(shots == np.array([1, 0, 1, 1, 0, 1]))

    def test_mc_shots_lie_in_wavefunction_support(self):
        # A two-bitstring superposition: every MC sample must be one of them.
        state = peps.computational_zeros(2, 2)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        state.apply_operator(h, [0])
        shots = state.sample(rng=13, nshots=8, sampler="mc", sampler_options={"sweeps": 3})
        for shot in shots:
            assert list(shot) in ([0, 0, 0, 0], [1, 0, 0, 0])


class TestStatistics:
    def test_full_distribution_chi_squared_2x2(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=22)
        env = BoundaryEnvironment(state)
        sv = state.to_statevector()
        probs = np.abs(sv) ** 2
        probs = probs / probs.sum()

        nshots = 400
        shots = env.sample(rng=77, nshots=nshots, sampler="mc", sampler_options={"sweeps": 2})
        weights = 2 ** np.arange(3, -1, -1)
        counts = np.bincount(shots @ weights, minlength=16).astype(float)

        expected = probs * nshots
        big = expected >= 5.0
        chi2 = float(np.sum((counts[big] - expected[big]) ** 2 / expected[big]))
        tail_exp = float(expected[~big].sum())
        if tail_exp > 0:
            tail_obs = float(counts[~big].sum())
            chi2 += (tail_obs - tail_exp) ** 2 / tail_exp
        dof = int(big.sum())
        assert chi2 < dof + 5.0 * np.sqrt(2.0 * dof), (chi2, dof)

    def test_site_marginals_against_statevector_3x3(self):
        """Acceptance: seeded statistical check of the MC sampler on a 3x3
        lattice, mirroring the lockstep sampler's chi-squared test."""
        state = peps.random_peps(3, 3, bond_dim=2, seed=21)
        env = BoundaryEnvironment(state, BMPS(ExplicitSVD(rank=16)))
        sv = state.to_statevector()
        probs = (np.abs(sv) ** 2).reshape([2] * 9)
        probs = probs / probs.sum()

        nshots = 150
        shots = env.sample(rng=77, nshots=nshots, sampler="mc", sampler_options={"sweeps": 2})
        assert shots.shape == (nshots, 9)

        # Per-site marginal z-scores; a 5-sigma bound per site is generous
        # but robust to the inter-site correlations of joint shots.
        for site in range(9):
            p1 = float(probs.sum(axis=tuple(j for j in range(9) if j != site))[1])
            observed = float(shots[:, site].mean())
            sigma = np.sqrt(max(p1 * (1.0 - p1), 1e-12) / nshots)
            assert abs(observed - p1) < 5.0 * sigma + 1e-9, (site, observed, p1)

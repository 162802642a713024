"""Tests for the corner-transfer-matrix environment (repro.peps.envs.ctm)."""

import json

import numpy as np
import pytest

from repro import peps
from repro.operators import gates
from repro.operators.hamiltonians import transverse_field_ising
from repro.peps import (
    BMPS, BoundaryEnvironment, CTMOption, EnvCTM, QRUpdate, make_environment,
)
from repro.peps.envs.boundary import option_signature
from repro.peps.envs.ctm import ctm_renormalize
from repro.sim import (
    RunSpec,
    Simulation,
    contract_option_from_dict,
    contract_option_to_dict,
    peps_from_dict,
    peps_to_dict,
)
from repro.sim import io as sim_io
from repro.telemetry import REGISTRY
from repro.tensornetwork import ExplicitSVD

Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)

#: chi that never truncates a 4x4 bond_dim-2 sandwich (max exact bond 4^3).
CONVERGED_CHI = 64


class TestCTMParity:
    def test_norm_and_expectation_match_exact_4x4(self):
        """Acceptance: EnvCTM == exact BoundaryEnvironment to 1e-8 at converged chi on 4x4."""
        state = peps.random_peps(4, 4, bond_dim=2, seed=11)
        ham = transverse_field_ising(4, 4)
        exact = BoundaryEnvironment(state)
        env = EnvCTM(state, CTMOption(chi=CONVERGED_CHI)).build()
        assert env.norm() == pytest.approx(exact.norm(), abs=1e-8)
        assert env.expectation(ham) == pytest.approx(exact.expectation(ham), abs=1e-8)

    def test_measurements_match_exact(self):
        state = peps.random_peps(4, 4, bond_dim=2, seed=12)
        exact = BoundaryEnvironment(state)
        env = EnvCTM(state, CTMOption(chi=CONVERGED_CHI))
        ones = env.measure_1site(Z)
        ones_exact = exact.measure_1site(Z)
        assert set(ones) == set(ones_exact)
        for site, value in ones_exact.items():
            assert ones[site] == pytest.approx(value, abs=1e-8)
        twos = env.measure_2site(Z, Z)
        twos_exact = exact.measure_2site(Z, Z)
        assert set(twos) == set(twos_exact)
        for pair, value in twos_exact.items():
            assert twos[pair] == pytest.approx(value, abs=1e-8), pair

    def test_sampling_matches_exact_shot_for_shot(self):
        """At converged chi the conditional densities equal the exact ones, so
        the same generator stream draws the same bitstrings."""
        state = peps.random_peps(3, 3, bond_dim=2, seed=13)
        exact_shots = BoundaryEnvironment(state).sample(rng=5, nshots=20)
        ctm_shots = EnvCTM(state, CTMOption(chi=CONVERGED_CHI)).sample(rng=5, nshots=20)
        np.testing.assert_array_equal(ctm_shots, exact_shots)

    def test_sampling_statistics_match_statevector(self):
        rng = np.random.default_rng(41)
        state = peps.computational_zeros(2, 2)
        for _ in range(6):
            site = int(rng.integers(4))
            theta = float(rng.uniform(0, np.pi))
            ry = np.array(
                [[np.cos(theta / 2), -np.sin(theta / 2)],
                 [np.sin(theta / 2), np.cos(theta / 2)]],
                dtype=np.complex128,
            )
            state.apply_operator(ry, [site])
            state.apply_operator(gates.CNOT(), [site, (site + 1) % 4], QRUpdate(rank=4))
        env = state.attach_environment(CTMOption(chi=32))
        sv = state.to_statevector()
        probs = np.abs(sv) ** 2
        probs /= probs.sum()
        nshots = 4000
        shots = env.sample(rng=0, nshots=nshots)
        weights = 2 ** np.arange(3, -1, -1)
        counts = np.bincount(shots @ weights, minlength=16)
        total_variation = 0.5 * np.abs(counts / nshots - probs).sum()
        assert total_variation < 0.05


class TestCTMConvergence:
    def test_error_decreases_with_chi(self):
        """The truncated CTM estimate converges to the exact value as chi grows."""
        state = peps.random_peps(4, 4, bond_dim=2, seed=21)
        ham = transverse_field_ising(4, 4)
        reference = BoundaryEnvironment(state).expectation(ham)
        errors = {
            chi: abs(EnvCTM(state, CTMOption(chi=chi)).expectation(ham) - reference)
            for chi in (2, 16, CONVERGED_CHI)
        }
        assert errors[CONVERGED_CHI] < 1e-10
        assert errors[CONVERGED_CHI] <= errors[16] <= errors[2] + 1e-12

    def test_build_runs_every_move_once(self):
        state = peps.random_peps(3, 3, bond_dim=2, seed=22)
        env = EnvCTM(state, CTMOption(chi=8)).build()
        # nrow upper moves + (nrow - 1) lower moves, each exactly once.
        assert env.stats.ctm_moves == 2 * state.nrow - 1
        assert env.stats.ctm_moves == env.stats.row_absorptions
        before = env.stats.ctm_moves
        env.build()  # warm: no move re-runs
        assert env.stats.ctm_moves == before

    def test_invalidation_reruns_only_stale_moves(self):
        state = peps.random_peps(4, 4, bond_dim=2, seed=23)
        ham = transverse_field_ising(4, 4)
        env = state.attach_environment(CTMOption(chi=6))
        env.build()
        full_build = env.stats.ctm_moves
        # Touch only the bottom row: upper levels stay warm, the three lower
        # levels (and the top closure) go stale.
        state.apply_operator(gates.CNOT(), [12, 13], QRUpdate(rank=2))
        before = env.stats.ctm_moves
        env.build()
        incremental = env.stats.ctm_moves - before
        assert 0 < incremental < full_build
        fresh = make_environment(state, CTMOption(chi=6)).expectation(ham)
        assert env.expectation(ham) == pytest.approx(fresh, abs=1e-10)

    def test_ctm_renormalize_returns_normalized_spectra(self):
        state = peps.random_peps(3, 4, bond_dim=2, seed=24)
        env = EnvCTM(state, CTMOption(chi=None))
        grown = env.ensure_upper(2)  # exact: the bonds are not renormalized yet
        _, spectra = ctm_renormalize(state.backend, grown, 4)
        assert len(spectra) == state.ncol - 1
        for spectrum in spectra:
            assert len(spectrum) <= 4
            assert np.linalg.norm(spectrum) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(spectrum) <= 1e-12)  # descending

    def test_ctm_renormalize_caps_bonds(self):
        state = peps.random_peps(2, 4, bond_dim=2, seed=25)
        env = EnvCTM(state, CTMOption(chi=3))
        boundary = env.ensure_upper(2)
        backend = state.backend
        bonds = [backend.shape(t)[3] for t in boundary[:-1]]
        assert max(bonds) <= 3
        # Renormalizing an already-capped boundary is the identity.
        again, _ = ctm_renormalize(backend, boundary, 3)
        for old, new in zip(boundary, again):
            np.testing.assert_array_equal(np.asarray(old), np.asarray(new))


class TestCTMCheckpoint:
    def test_environment_round_trip_bitwise(self):
        state = peps.random_peps(3, 3, bond_dim=2, seed=31)
        env = state.attach_environment(CTMOption(chi=5))
        env.build()
        norm_before = env.norm()
        restored_state = peps_from_dict(peps_to_dict(state))
        restored = restored_state.environment
        assert isinstance(restored, EnvCTM)
        assert restored.contract_option == env.contract_option
        # Warm caches round-trip float-for-float.
        assert restored._upper_valid == env._upper_valid
        assert restored._lower_valid == env._lower_valid
        for i in range(1, env._upper_valid + 1):
            for a, b in zip(env._upper[i], restored._upper[i]):
                np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        # The restored environment serves the norm without any new move.
        assert restored.norm() == norm_before
        assert restored.stats.ctm_moves == 0

    def test_simulation_checkpoint_resume_bitwise(self, tmp_path):
        """Acceptance: a CTM run selected purely from RunSpec JSON resumes
        with warm corner/edge caches, float-for-float."""
        payload = {
            "name": "ctm-ite", "workload": "ite", "lattice": [3, 3],
            "n_steps": 6, "seed": 7,
            "model": {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 1.0],
                      "j2": [0.5, 0.5, 0.5], "field": [0.2, 0.2, 0.2]},
            "algorithm": {"tau": 0.05},
            "update": {"kind": "qr", "rank": 2},
            "contraction": {"kind": "ctm", "chi": 8},
            "measure_every": 1, "checkpoint_every": 2,
        }
        ref_spec = RunSpec.from_dict({**payload, "checkpoint_dir": str(tmp_path / "a")})
        reference = Simulation(ref_spec).run()
        assert not reference.interrupted

        spec = RunSpec.from_dict({**payload, "checkpoint_dir": str(tmp_path / "b")})
        partial = Simulation(spec).run(stop_after=3)
        assert partial.interrupted
        resumed = Simulation(spec).run(resume=True)
        assert resumed.records == reference.records

    def test_resumed_workload_env_is_ctm_and_warm(self, tmp_path):
        payload = {
            "name": "ctm-warm", "workload": "ite", "lattice": [2, 3],
            "n_steps": 4, "seed": 1,
            "model": {"kind": "transverse_field_ising"},
            "contraction": {"kind": "ctm", "chi": 6},
            "checkpoint_every": 2, "checkpoint_dir": str(tmp_path / "ckpt"),
        }
        spec = RunSpec.from_dict(payload)
        Simulation(spec).run(stop_after=2)
        resumed_sim = Simulation(spec)
        resumed_sim.workload.setup()
        checkpoint_path = resumed_sim.latest_checkpoint()
        checkpoint = sim_io.load_checkpoint(checkpoint_path)
        store = sim_io.open_payload_store(checkpoint, checkpoint_path)
        resumed_sim.workload.restore_state(checkpoint["workload_state"], store=store)
        store.close()
        env = resumed_sim.workload.state.environment
        assert isinstance(env, EnvCTM)
        assert env._upper_valid == 2  # caches restored warm
        env.norm()
        assert env.stats.ctm_moves == 0


class TestCTMReadOnlyWireForms:
    """Documents written while CTM builds iterated sweeps carry ``tol`` /
    ``max_sweeps`` option fields and a ``ctm_state`` block; both are read
    and dropped, and nothing writes them."""

    RETIRED = {"tol", "max_sweeps", "ctm_state"}

    def test_legacy_option_fields_are_dropped(self):
        legacy = {"kind": "ctm", "chi": 8, "cutoff": None, "tol": 1e-10, "max_sweeps": 4}
        assert contract_option_from_dict(legacy) == CTMOption(chi=8)

    def test_legacy_ctm_state_is_ignored_and_caches_restore_warm(self):
        state = peps.random_peps(3, 3, bond_dim=2, seed=32)
        env = state.attach_environment(CTMOption(chi=5))
        env.build()
        payload = peps_to_dict(state)
        spectrum = sim_io.encode_tensor(state.backend, np.array([0.9, 0.1]))
        payload["environment"]["contract_option"].update(tol=1e-10, max_sweeps=4)
        payload["environment"]["ctm_state"] = {
            "upper_spectra": {"1": [spectrum, spectrum]},
            "lower_spectra": {"0": [spectrum, spectrum]},
            "converged": True, "n_sweeps": 2,
        }
        restored = peps_from_dict(json.loads(json.dumps(payload))).environment
        assert isinstance(restored, EnvCTM)
        assert restored.contract_option == CTMOption(chi=5)
        assert restored.norm() == env.norm()
        assert restored.stats.ctm_moves == 0

    def test_nothing_writes_the_retired_keys(self):
        state = peps.random_peps(2, 3, bond_dim=2, seed=33)
        env = state.attach_environment(CTMOption(chi=4))
        env.build()
        document = sim_io.environment_to_dict(env)
        assert not self.RETIRED & set(document)
        assert not self.RETIRED & set(document["contract_option"])
        assert not self.RETIRED & set(contract_option_to_dict(CTMOption(chi=4)))
        assert not self.RETIRED & set(peps_to_dict(state)["environment"])


class TestCTMOptionRouting:
    def test_make_environment_dispatch(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=41)
        env = make_environment(state, CTMOption(chi=4))
        assert isinstance(env, EnvCTM)

    def test_accepts_matching_option_only(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=42)
        env = state.attach_environment(CTMOption(chi=4))
        assert env.accepts(None)
        assert env.accepts(CTMOption(chi=4))
        assert not env.accepts(CTMOption(chi=8))
        assert not env.accepts(BMPS(ExplicitSVD(rank=4)))
        assert state._environment_for(CTMOption(chi=4)) is env
        assert state._environment_for(CTMOption(chi=8)) is not env

    def test_option_signature(self):
        assert option_signature(CTMOption(chi=4)) != option_signature(CTMOption(chi=8))

    def test_requires_ctm_option(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=43)
        with pytest.raises(TypeError, match="CTMOption"):
            EnvCTM(state, BMPS(ExplicitSVD(rank=4)))

    def test_inner_with_ctm_option(self):
        state = peps.random_peps(3, 3, bond_dim=2, seed=44)
        exact = state.inner(state, None)
        via_ctm = state.inner(state, CTMOption(chi=CONVERGED_CHI))
        assert via_ctm == pytest.approx(exact, rel=1e-10)
        other = peps.random_peps(3, 3, bond_dim=2, seed=45)
        with pytest.raises(TypeError, match="inner"):
            state.inner(other, CTMOption(chi=4))

    def test_contract_option_round_trip(self):
        option = CTMOption(chi=12)
        payload = contract_option_to_dict(option)
        json.dumps(payload)
        assert contract_option_from_dict(payload) == option

    def test_spec_parsing(self, tmp_path):
        spec = RunSpec.from_dict({
            "name": "x", "workload": "ite", "lattice": [2, 2], "n_steps": 1,
            "model": {"kind": "transverse_field_ising"},
            "contraction": {"kind": "ctm", "chi": 16},
        })
        option = spec.build_contract_option()
        assert option == CTMOption(chi=16)
        bad = RunSpec.from_dict({
            "name": "x", "workload": "ite", "lattice": [2, 2], "n_steps": 1,
            "model": {"kind": "transverse_field_ising"},
            "contraction": {"kind": "ctm", "chi": 16, "bond": 4},
        })
        with pytest.raises(ValueError, match="unknown contraction config keys"):
            bad.build_contract_option()

    def test_global_ctm_move_counter(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=46)
        REGISTRY.reset()
        EnvCTM(state, CTMOption(chi=4)).build()
        assert REGISTRY.value("peps.ctm_moves") == 3
        REGISTRY.reset()
        assert REGISTRY.value("peps.ctm_moves") == 0

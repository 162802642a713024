"""Tests for the batched contraction engine: ``einsum_batched``, lockstep
multi-shot sampling, and shared strip-boundary caches."""

import hashlib

import numpy as np
import pytest

from repro import peps
from repro.backends import (
    clear_path_caches,
    get_backend,
    parse_batched_subscripts,
    path_cache_stats,
    rewrite_batched_subscripts,
)
from repro.backends.numpy_backend import NumPyBackend
from repro.operators.hamiltonians import heisenberg_j1j2
from repro.peps.contraction.options import BMPS, CTMOption
from repro.peps.contraction.two_layer import absorb_sandwich_row, trivial_boundary
from repro.peps.envs import BoundaryEnvironment, EnvCTM, StripCache
from repro.peps.envs.sampling import _SamplingPlan, sample_bitstrings
from repro.sim.spec import RunSpec
from repro.telemetry import REGISTRY
from repro.tensornetwork import ExplicitSVD
from repro.utils.flops import FlopCounter

from benchmarks.bench_fig9_caching import expectation_uncached
from conftest import random_complex, sample_in_groups_of_one

Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


# --------------------------------------------------------------------- #
# Backend layer: einsum_batched
# --------------------------------------------------------------------- #
class TestEinsumBatchedParsing:
    def test_requires_explicit_output(self):
        with pytest.raises(ValueError, match="->"):
            parse_batched_subscripts("ab,bc", [(2, 2, 2), (2, 2, 2)])

    def test_rejects_ellipsis(self):
        with pytest.raises(ValueError, match="ellipsis"):
            parse_batched_subscripts("a...,b->ab", [(2, 2), (2, 2)])

    def test_rejects_missing_batch_axis(self):
        with pytest.raises(ValueError, match="batch"):
            parse_batched_subscripts("ab,bc->ac", [(2, 3), (3, 4)])

    def test_rejects_inconsistent_batch_dims(self):
        with pytest.raises(ValueError, match="batch"):
            parse_batched_subscripts("ab,bc->ac", [(2, 2, 3), (3, 3, 4)])

    def test_broadcast_batch_of_one(self):
        inputs, output, dims, batch = parse_batched_subscripts(
            "ab,bc->ac", [(1, 2, 3), (5, 3, 4)]
        )
        assert inputs == ["ab", "bc"]
        assert output == "ac"
        assert dims == [1, 5]
        assert batch == 5

    def test_rewrite_finds_free_letter(self):
        batched, label = rewrite_batched_subscripts("ab,bc->ac", [4, 4])
        assert len(label) == 1 and label not in "abc"
        assert batched == f"{label}ab,{label}bc->{label}ac"

    def test_rewrite_skips_broadcast_operands(self):
        batched, label = rewrite_batched_subscripts("ab,bc->ac", [1, 4])
        assert batched == f"ab,{label}bc->{label}ac"


class TestEinsumBatchedValues:
    CASES = [
        ("ab,bc->ac", [(3, 4), (4, 5)]),
        ("auwx,puedg,pwfhs,bdhy,xgsy->aefb",
         [(2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2)]),
        ("ab,ab->", [(2, 3), (2, 3)]),       # scalar output
        ("abc->cb", [(2, 3, 4)]),            # single operand transpose
        ("ab,b->a", [(3, 3), (3,)]),
    ]

    @pytest.mark.parametrize("subscripts,shapes", CASES)
    @pytest.mark.parametrize("batch_dims", ["full", "mixed"])
    def test_matches_stacked_loop(self, backend, rng, subscripts, shapes, batch_dims):
        """Acceptance: einsum_batched == stacking a loop of plain einsums."""
        nbatch = 3
        operands, arrays = [], []
        for i, shape in enumerate(shapes):
            b_dim = nbatch if (batch_dims == "full" or i % 2 == 0) else 1
            arr = random_complex(rng, (b_dim,) + shape)
            arrays.append(arr)
            operands.append(backend.astensor(arr))
        result = np.asarray(backend.asarray(backend.einsum_batched(subscripts, *operands)))
        for i in range(nbatch):
            items = [arr[0 if arr.shape[0] == 1 else i] for arr in arrays]
            ref = np.einsum(subscripts, *items)
            np.testing.assert_allclose(result[i], ref, atol=1e-12)

    def test_property_random_contractions(self, backend):
        """Property test over randomly generated subscripts and shapes."""
        gen = np.random.default_rng(2024)
        letters = "abcde"
        for _ in range(6):
            dims = {letter: int(gen.integers(1, 4)) for letter in letters}
            n_ops = int(gen.integers(1, 4))
            specs = []
            for _ in range(n_ops):
                k = int(gen.integers(1, 4))
                specs.append("".join(gen.choice(list(letters), size=k, replace=False)))
            used = sorted(set("".join(specs)))
            n_out = int(gen.integers(0, len(used) + 1))
            output = "".join(gen.choice(used, size=n_out, replace=False))
            subscripts = ",".join(specs) + "->" + output
            nbatch = int(gen.integers(2, 5))
            arrays = []
            for spec in specs:
                b_dim = 1 if gen.uniform() < 0.3 else nbatch
                shape = (b_dim,) + tuple(dims[c] for c in spec)
                arrays.append(gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
            operands = [backend.astensor(arr) for arr in arrays]
            result = np.asarray(
                backend.asarray(backend.einsum_batched(subscripts, *operands))
            )
            batch = max(arr.shape[0] for arr in arrays)
            assert result.shape[0] == batch
            for i in range(batch):
                items = [arr[0 if arr.shape[0] == 1 else i] for arr in arrays]
                ref = np.einsum(subscripts, *items)
                np.testing.assert_allclose(result[i], ref, atol=1e-12, err_msg=subscripts)

    def test_batch_of_one_matches_plain_einsum(self, backend, rng):
        a = random_complex(rng, (1, 3, 4))
        b = random_complex(rng, (1, 4, 5))
        out = backend.einsum_batched("ab,bc->ac", backend.astensor(a), backend.astensor(b))
        ref = np.einsum("ab,bc->ac", a[0], b[0])
        np.testing.assert_allclose(np.asarray(backend.asarray(out))[0], ref, atol=1e-12)


class TestPathCacheStats:
    def test_hits_and_misses_counted(self, rng):
        backend = get_backend("numpy")
        clear_path_caches()
        a = backend.astensor(random_complex(rng, (4, 3, 3)))
        b = backend.astensor(random_complex(rng, (4, 3, 3)))
        backend.einsum_batched("ab,bc->ac", a, b)
        backend.einsum_batched("ab,bc->ac", a, b)
        info = path_cache_stats()
        assert info["path"]["misses"] == 1
        assert info["path"]["hits"] >= 1
        clear_path_caches()
        assert path_cache_stats()["path"]["size"] == 0

    def test_flop_counter_batched_category(self, rng):
        counter = FlopCounter()
        backend = NumPyBackend(flop_counter=counter)
        a = backend.astensor(random_complex(rng, (4, 3, 3)))
        b = backend.astensor(random_complex(rng, (4, 3, 3)))
        backend.einsum_batched("ab,bc->ac", a, b)
        calls = counter.calls_by_category()
        assert calls["einsum_batched"] == 1
        assert sum(calls.values()) == 1
        counter.reset()
        assert counter.calls_by_category() == {} and counter.total == 0.0


# --------------------------------------------------------------------- #
# Batched row absorption
# --------------------------------------------------------------------- #
class TestBatchedAbsorption:
    def test_matches_per_shot_exact_absorb(self, rng):
        backend = get_backend("numpy")
        state = peps.random_peps(2, 3, bond_dim=2, seed=9)
        row = state.grid[0]
        nbatch = 4
        boundary_shots = []
        for s in range(nbatch):
            start = trivial_boundary(backend, 3)
            boundary_shots.append(
                absorb_sandwich_row(start, row, row, option=None, backend=backend)
            )
        stacked_boundary = [
            backend.ones((1, 1, 1, 1, 1)) for _ in range(3)
        ]
        lifted_row = [backend.reshape(t, (1,) + tuple(backend.shape(t))) for t in row]
        batched = absorb_sandwich_row(
            stacked_boundary, lifted_row, lifted_row, option=None, backend=backend
        )
        for c in range(3):
            got = np.asarray(backend.asarray(batched[c]))
            ref = np.asarray(backend.asarray(boundary_shots[0][c]))
            assert got.shape[0] == 1
            np.testing.assert_allclose(got[0], ref, atol=1e-12)

    def test_counts_row_absorptions_per_shot(self):
        backend = get_backend("numpy")
        state = peps.random_peps(1, 2, bond_dim=2, seed=10)
        row = []
        for t in state.grid[0]:
            arr = np.asarray(backend.asarray(t))
            row.append(backend.astensor(np.stack([arr, arr, arr])))
        boundary = [backend.ones((1, 1, 1, 1, 1))] * 2
        before = REGISTRY.value("peps.row_absorptions")
        absorb_sandwich_row(boundary, row, row, backend=backend)
        assert REGISTRY.value("peps.row_absorptions") - before == 3


#: What one build and one 4-shot sample of a 3x3 D=2 state cost, per
#: environment: the ``peps.*`` registry deltas, the non-zero ``env.stats``
#: and the backend calls by category.  A build grows boundaries one at a
#: time and a sample grows every shot's boundary in one batch, both through
#: the environment's one move; a sample makes no move after its last row.
MOVE_ENVS = {
    "exact": lambda state: BoundaryEnvironment(state),
    "bmps": lambda state: BoundaryEnvironment(state, BMPS(ExplicitSVD(rank=8))),
    "ctm": lambda state: EnvCTM(state, CTMOption(chi=8)),
}
MOVE_COUNTERS = ("peps.row_absorptions", "peps.ctm_moves", "peps.batched_contractions")
MOVE_COSTS = {
    ("exact", "build"): ((5, 0, 0), {"row_absorptions": 5}, {"einsum": 15}),
    ("exact", "sample"): (
        (8, 0, 39),
        {"row_absorptions": 8, "batched_contractions": 39},
        {"einsum": 12, "einsum_batched": 27},
    ),
    ("bmps", "build"): ((5, 0, 0), {"row_absorptions": 5}, {"einsum": 35, "svd": 10}),
    ("bmps", "sample"): (
        (8, 0, 33),
        {"row_absorptions": 8, "batched_contractions": 33},
        {"einsum": 68, "einsum_batched": 21, "svd": 16},
    ),
    ("ctm", "build"): (
        (5, 5, 0), {"row_absorptions": 5, "ctm_moves": 5}, {"einsum": 47, "svd": 10}
    ),
    ("ctm", "sample"): (
        (8, 8, 51),
        {"row_absorptions": 8, "ctm_moves": 8, "batched_contractions": 51},
        {"einsum": 12, "einsum_batched": 39, "svd": 16},
    ),
}


@pytest.mark.parametrize("kind", sorted(MOVE_ENVS))
def test_build_and_sample_move_counters_are_pinned(kind):
    counter = FlopCounter()
    backend = NumPyBackend(flop_counter=counter)
    env = MOVE_ENVS[kind](peps.random_peps(3, 3, bond_dim=2, seed=5, backend=backend))
    for phase, run in (("build", env.build), ("sample", lambda: env.sample(rng=3, nshots=4))):
        before = [REGISTRY.value(name) for name in MOVE_COUNTERS]
        counter.reset()
        env.stats.reset()
        run()
        registry = tuple(REGISTRY.value(name) - b for name, b in zip(MOVE_COUNTERS, before))
        stats = {k: v for k, v in env.stats.as_dict().items() if v}
        calls = counter.calls_by_category()
        assert (registry, stats, calls) == MOVE_COSTS[kind, phase], phase


#: sha256 of the int64 shot array of one 6-shot sample of a 3x3 D=2 state,
#: per environment: how the moves and factorizations run must not move a bit.
SHOT_HASHES = {
    "exact": "cd9b2ed3cfb9fc0a84c8e4aeddda8db74222b869f96f21d88196c074ae2c3dc9",
    "bmps": "cd9b2ed3cfb9fc0a84c8e4aeddda8db74222b869f96f21d88196c074ae2c3dc9",
    "ctm": "f0e608361818bc45023f1e33db6e4e755874f5d7b99e91650497350b9601b044",
}


@pytest.mark.parametrize("kind", sorted(SHOT_HASHES))
def test_sampled_shots_are_pinned(kind):
    shots = MOVE_ENVS[kind](peps.random_peps(3, 3, bond_dim=2, seed=5)).sample(rng=3, nshots=6)
    assert shots.shape == (6, 9) and shots.dtype == np.int64
    assert hashlib.sha256(shots.tobytes()).hexdigest() == SHOT_HASHES[kind]


# --------------------------------------------------------------------- #
# Lockstep sampling
# --------------------------------------------------------------------- #
def _make_env(kind, state):
    if kind == "exact":
        return BoundaryEnvironment(state)
    if kind == "bmps":
        return BoundaryEnvironment(state, BMPS(ExplicitSVD(rank=8)))
    if kind == "ctm":
        return EnvCTM(state, CTMOption(chi=8))
    raise ValueError(kind)


ENV_KINDS = ["exact", "bmps", "ctm"]


class TestLockstepSampling:
    @pytest.mark.parametrize("kind", ENV_KINDS)
    def test_one_group_matches_groups_of_one(self, kind):
        """Acceptance: a shot draws the same bits whether it advances alone
        or in one group with every other shot."""
        state = peps.random_peps(3, 3, bond_dim=2, seed=5)
        group = sample_bitstrings(_make_env(kind, state), rng=11, nshots=7)
        alone = sample_in_groups_of_one(_make_env(kind, state), 11, 7)
        np.testing.assert_array_equal(group, alone)

    @pytest.mark.parametrize("kind", ENV_KINDS)
    def test_shot_streams_independent_of_nshots(self, kind):
        """Shot ``s`` draws from its own substream: requesting more shots
        never perturbs the earlier ones."""
        state = peps.random_peps(2, 3, bond_dim=2, seed=6)
        few = _make_env(kind, state).sample(rng=3, nshots=3)
        many = _make_env(kind, state).sample(rng=3, nshots=8)
        np.testing.assert_array_equal(few, many[:3])

    def test_one_group_issues_fewer_einsum_calls(self):
        """Acceptance: one 32-shot group issues at most 25% of the einsum
        calls of 32 one-shot draws."""
        calls = []
        for draw in (
            lambda env: env.sample(rng=7, nshots=32),
            lambda env: [env.sample(rng=s, nshots=1) for s in range(32)],
        ):
            counter = FlopCounter()
            backend = NumPyBackend(flop_counter=counter)
            state = peps.random_peps(3, 3, bond_dim=2, seed=7, backend=backend)
            draw(EnvCTM(state, CTMOption(chi=8)))
            by_category = counter.calls_by_category()
            calls.append(by_category.get("einsum", 0) + by_category.get("einsum_batched", 0))
        group, one_shot = calls
        assert one_shot > 0
        assert group <= 0.25 * one_shot, (group, one_shot)

    def test_batched_contraction_stats_counted(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=8)
        env = BoundaryEnvironment(state)
        before = REGISTRY.value("peps.batched_contractions")
        env.sample(rng=2, nshots=4)
        assert env.stats.batched_contractions > 0
        assert REGISTRY.value("peps.batched_contractions") > before

    def test_uniform_fallback_counted(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=13)
        env = BoundaryEnvironment(state)
        plan = _SamplingPlan(env)
        probs = plan.probabilities(np.zeros((3, 2)))
        np.testing.assert_allclose(probs, np.full((3, 2), 0.5))
        assert env.stats.uniform_fallbacks == 3

    @pytest.mark.parametrize("kind", ENV_KINDS)
    def test_sample_on_distributed_backend(self, dist_backend, kind):
        state = peps.random_peps(2, 2, bond_dim=2, seed=14, backend=dist_backend)
        group = _make_env(kind, state).sample(rng=9, nshots=4)
        alone = sample_in_groups_of_one(_make_env(kind, state), 9, 4)
        np.testing.assert_array_equal(group, alone)
        numpy_state = peps.random_peps(2, 2, bond_dim=2, seed=14)
        np.testing.assert_array_equal(group, _make_env(kind, numpy_state).sample(rng=9, nshots=4))

    @pytest.mark.parametrize("nshots", [2.7, "3", True])
    def test_nshots_must_be_an_integer(self, nshots):
        state = peps.random_peps(2, 2, bond_dim=2, seed=8)
        with pytest.raises(TypeError, match="nshots"):
            state.sample(rng=1, nshots=nshots)

    def test_nshots_takes_numpy_integers(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=8)
        assert state.sample(rng=1, nshots=np.int64(3)).shape == (3, 4)

    def test_deterministic_state_samples_deterministically(self):
        state = peps.computational_basis([1, 0, 1, 1, 0, 1], 2, 3)
        shots = state.sample(rng=7, nshots=5)
        assert np.all(shots == np.array([1, 0, 1, 1, 0, 1]))


class TestLockstepDistribution:
    @pytest.mark.parametrize("kind", ["bmps16", "ctm16"])
    def test_chi_squared_against_statevector(self, kind):
        """Acceptance: seeded chi-squared check of the lockstep sampler on a
        3x3 lattice for BoundaryEnvironment and EnvCTM."""
        state = peps.random_peps(3, 3, bond_dim=2, seed=21)
        if kind == "bmps16":
            env = BoundaryEnvironment(state, BMPS(ExplicitSVD(rank=16)))
        else:
            env = EnvCTM(state, CTMOption(chi=16))
        sv = state.to_statevector()
        probs = np.abs(sv) ** 2
        probs = probs / probs.sum()

        nshots = 3000
        shots = env.sample(rng=77, nshots=nshots)
        weights = 2 ** np.arange(8, -1, -1)
        counts = np.bincount(shots @ weights, minlength=512).astype(float)

        # Lump bins with small expected counts so the chi-squared statistic
        # is well behaved, then compare against a generous quantile.
        expected = probs * nshots
        big = expected >= 5.0
        chi2 = float(np.sum((counts[big] - expected[big]) ** 2 / expected[big]))
        tail_exp = float(expected[~big].sum())
        if tail_exp > 0:
            tail_obs = float(counts[~big].sum())
            chi2 += (tail_obs - tail_exp) ** 2 / tail_exp
        dof = int(big.sum())  # (+1 lumped bin, -1 normalization)
        assert chi2 < dof + 5.0 * np.sqrt(2.0 * dof), (chi2, dof)

    def test_lockstep_statistics_match_statevector_2x2(self):
        """Total-variation check on the default (lockstep) sampling path."""
        state = peps.random_peps(2, 2, bond_dim=2, seed=22)
        env = BoundaryEnvironment(state)
        sv = state.to_statevector()
        probs = np.abs(sv) ** 2
        probs = probs / probs.sum()
        nshots = 4000
        shots = env.sample(rng=1, nshots=nshots)
        weights = 2 ** np.arange(3, -1, -1)
        empirical = np.bincount(shots @ weights, minlength=16) / nshots
        assert 0.5 * np.abs(empirical - probs).sum() < 0.05


# --------------------------------------------------------------------- #
# Strip caches
# --------------------------------------------------------------------- #
class TestStripCache:
    def test_term_values_match_fresh_strip_caches(self):
        """A strip cache shared by all terms gives every term the value of a
        fresh cache built for that term alone."""
        state = peps.random_peps(3, 3, bond_dim=2, seed=31)
        env = BoundaryEnvironment(state)
        H = heisenberg_j1j2(3, 3, j2=[0.5, 0.5, 0.5])
        caches = {}

        def strip_cache(r0, r1):
            return StripCache(state, env.ensure_upper(r0), env.ensure_lower(r1), r0, r1)

        for term in H.terms:
            r0, r1, _ = env._term_rows(term.sites)
            cache = caches.setdefault((r0, r1), strip_cache(r0, r1))
            got = cache.term_value(term.sites, term.matrix)
            ref = strip_cache(r0, r1).term_value(term.sites, term.matrix)
            assert got == pytest.approx(ref, rel=1e-10), term.sites

    def test_expectation_counts_hits_and_misses(self):
        state = peps.random_peps(3, 4, bond_dim=2, seed=32)
        env = BoundaryEnvironment(state)
        H = heisenberg_j1j2(3, 4, j2=[0.5, 0.5, 0.5])
        before = REGISTRY.value("peps.strip_cache_hits")
        energy = env.expectation(H)
        assert np.isfinite(energy)
        assert env.stats.strip_cache_hits > 0
        assert env.stats.strip_cache_misses > 0
        assert REGISTRY.value("peps.strip_cache_hits") - before == env.stats.strip_cache_hits

    def test_expectation_value_unchanged_by_caching(self):
        state = peps.random_peps(3, 3, bond_dim=2, seed=33)
        H = heisenberg_j1j2(3, 3)
        cached = BoundaryEnvironment(state).expectation(H)
        reference = expectation_uncached(state, H)
        assert cached == pytest.approx(reference, rel=1e-9)

    def test_measure_2site_unchanged_by_caching(self):
        state = peps.random_peps(2, 3, bond_dim=2, seed=34)
        env = BoundaryEnvironment(state)
        values = env.measure_2site(Z, Z)
        from repro.operators.observable import Observable

        for (a, b), val in values.items():
            ref = BoundaryEnvironment(state).expectation(Observable.ZZ(a, b))
            assert val == pytest.approx(ref, abs=1e-9), (a, b)


# --------------------------------------------------------------------- #
# Spec / stats plumbing
# --------------------------------------------------------------------- #
def test_spec_naming_a_group_size_is_rejected():
    """The sampler's grouping is not settable: a spec naming it is an
    unknown field."""
    with pytest.raises(ValueError, match="unknown RunSpec fields \\['batch_shots'\\]"):
        RunSpec.from_dict({"batch_shots": 4})


class TestEnvStatsReset:
    def test_reset_clears_batching_counters(self):
        state = peps.random_peps(2, 2, bond_dim=2, seed=44)
        env = BoundaryEnvironment(state)
        env.sample(rng=1, nshots=3)
        env.expectation(heisenberg_j1j2(2, 2))
        assert env.stats.batched_contractions > 0
        env.stats.reset()
        assert env.stats.batched_contractions == 0
        assert env.stats.uniform_fallbacks == 0
        assert env.stats.strip_cache_hits == 0
        assert env.stats.strip_cache_misses == 0

"""Serial <-> parallel parity tests for the pool executor.

The distributed backend's two executors — ``simulated`` (in-process) and
``pool`` (a persistent pool of worker processes) — must be *bitwise*
interchangeable: same einsum results, same collective payloads, same
predicted cost-model charges.  These tests pin that contract at the unit
level (the CLI-level golden parity lives in ``test_spec_golden.py``).
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.backends import clear_path_caches, get_backend, path_cache_stats
from repro.backends.distributed import execute_plan, plan_einsum
from repro.backends.distributed.engine import CANONICAL_PARTS, shard_bounds
from repro.peps import BMPS, random_peps
from repro.sim import RunSpec
from repro.tensornetwork import ImplicitRandomizedSVD
from repro.tensornetwork.contraction_path import concat_blocks, slice_operands
from tests.conftest import random_complex

EINSUM_CASES = [
    ("ab,bc->ac", [(6, 5), (5, 7)]),
    ("abc,cd->abd", [(3, 4, 5), (5, 6)]),
    ("aijb,cjkd,ik->acbd", [(2, 3, 4, 3), (2, 4, 5, 6), (3, 5)]),
    ("ab,ab->", [(5, 6), (5, 6)]),
    ("abcd->badc", [(2, 3, 4, 5)]),
    ("ab,bc,cd->ad", [(4, 5), (5, 6), (6, 3)]),
    ("xy,yz->xz", [(1, 7), (7, 2)]),
    # 14 400 output elements: three canonical blocks, so ranks own several.
    ("pqr,rs->pqs", [(3, 40, 5), (5, 120)]),
]


class TestPlanEinsum:
    def test_plan_fixes_canonical_partition(self):
        # 40 x 1 700 = 68 000 elements >= 16 * MIN_BLOCK_SIZE: the full split.
        plan = plan_einsum("ab,bc->ac", [(40, 5), (5, 1700)])
        assert plan.shard_label == "c"
        assert plan.shard_extent == 1700
        assert plan.shard_parts == CANONICAL_PARTS
        bounds = plan.canonical_bounds()
        assert bounds[0][0] == 0 and bounds[-1][1] == 1700
        assert all(lo <= hi for lo, hi in bounds)

    def test_small_output_is_one_block(self):
        # 40 x 204 = 8 160 elements < 2 * MIN_BLOCK_SIZE.
        plan = plan_einsum("ab,bc->ac", [(40, 5), (5, 204)])
        assert plan.shard_label == "c"
        assert plan.shard_parts == 1
        assert plan.canonical_bounds() == [(0, 204)]
        assert plan_einsum("ab,bc->ac", [(40, 5), (5, 205)]).shard_parts == 2

    def test_small_extent_caps_parts(self):
        # 10**5 elements would allow 24 blocks, the shard extent only 10.
        plan = plan_einsum("abcx,xde->abcde", [(10, 10, 10, 2), (2, 10, 10)])
        assert plan.shard_label == "a"
        assert plan.shard_parts == 10

    def test_scalar_output_has_no_shard_label(self):
        plan = plan_einsum("ab,ab->", [(4, 5), (4, 5)])
        assert plan.shard_label is None

    def test_subscripts_outside_the_grammar_raise(self):
        with pytest.raises(ValueError, match="repeated index"):
            plan_einsum("iij->j", [(3, 3, 2)])
        with pytest.raises(ValueError):
            plan_einsum("i...,i...->...", [(3, 3, 2), (3, 3, 2)])

    def test_plans_are_picklable(self):
        import pickle

        plan = plan_einsum("ab,bc->ac", [(6, 5), (5, 7)])
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_repeated_einsum_signature_is_not_replanned(self, dist_backend, rng):
        ops = [dist_backend.astensor(random_complex(rng, s)) for s in [(4, 5), (5, 6), (6, 3)]]
        clear_path_caches()
        first = dist_backend.einsum("ab,bc,cd->ad", *ops)
        assert path_cache_stats()["path"] == {"hits": 0, "misses": 1, "size": 1}
        again = dist_backend.einsum("ab,bc,cd->ad", *ops)
        assert path_cache_stats()["path"] == {"hits": 1, "misses": 1, "size": 1}
        assert dist_backend.asarray(again).tobytes() == dist_backend.asarray(first).tobytes()

    def test_execute_is_invariant_to_bounds_split(self, rng):
        # The same canonical blocks, grouped into rank ranges differently,
        # must produce the same bytes: this is the parity mechanism.
        ops = [random_complex(rng, (701, 5)), random_complex(rng, (5, 60))]
        plan = plan_einsum("ab,bc->ac", [o.shape for o in ops])
        assert plan.shard_parts == 10 and len(plan.blocks) == 2
        whole = execute_plan(plan, ops)
        bounds = plan.canonical_bounds()
        for split in (1, 2, 3, len(bounds)):
            cuts = shard_bounds(len(bounds), split)
            blocks = []
            for first, last in cuts:
                if last <= first:
                    continue
                lo, hi = bounds[first][0], bounds[last - 1][1]
                local = slice_operands(plan.contraction.inputs, plan.shard_label, ops, lo, hi)
                relative = [(a - lo, b - lo) for a, b in bounds[first:last]]
                blocks.append(execute_plan(plan, local, bounds=relative))
            output = plan.contraction.output
            merged = concat_blocks(output, plan.shard_label, blocks, plan.shard_extent,
                                   tuple(range(len(output))))
            assert merged.tobytes() == whole.tobytes()


class TestPoolParity:
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
    def test_einsum_bitwise_matches_simulated(self, rng, nprocs):
        sim = get_backend("distributed", nprocs=nprocs)
        pool = get_backend("distributed", nprocs=nprocs, executor="pool")
        try:
            for subscripts, shapes in EINSUM_CASES:
                ops = [random_complex(rng, s) for s in shapes]
                # Stress layout independence: a transposed view operand.
                ops[0] = ops[0].transpose().transpose()
                a = sim.einsum(subscripts, *[sim.astensor(o) for o in ops])
                b = pool.einsum(subscripts, *[pool.astensor(o) for o in ops])
                ra, rb = np.asarray(sim.asarray(a)), np.asarray(pool.asarray(b))
                assert ra.tobytes() == rb.tobytes(), (subscripts, nprocs)
        finally:
            pool.close()

    def test_einsum_bitwise_invariant_to_rank_count(self, rng):
        reference = {}
        for nprocs in (1, 2, 5):
            pool = get_backend("distributed", nprocs=nprocs, executor="pool")
            try:
                for subscripts, shapes in EINSUM_CASES:
                    ops = [random_complex(np.random.default_rng(3), s) for s in shapes]
                    out = pool.einsum(subscripts, *[pool.astensor(o) for o in ops])
                    data = np.asarray(pool.asarray(out)).tobytes()
                    reference.setdefault(subscripts, data)
                    assert reference[subscripts] == data, (subscripts, nprocs)
            finally:
                pool.close()

    def test_batched_einsum_parity(self, rng):
        sim = get_backend("distributed", nprocs=3)
        pool = get_backend("distributed", nprocs=3, executor="pool")
        try:
            a = random_complex(rng, (4, 3, 5))
            b = random_complex(rng, (4, 5, 6))
            rs = sim.einsum_batched("ab,bc->ac", sim.astensor(a), sim.astensor(b))
            rp = pool.einsum_batched("ab,bc->ac", pool.astensor(a), pool.astensor(b))
            assert np.asarray(sim.asarray(rs)).tobytes() == np.asarray(pool.asarray(rp)).tobytes()
            x = random_complex(rng, (4, 7))
            ss = sim.einsum_batched("a,a->", sim.astensor(x), sim.astensor(x.conj()))
            sp = pool.einsum_batched("a,a->", pool.astensor(x), pool.astensor(x.conj()))
            assert np.asarray(sim.asarray(ss)).tobytes() == np.asarray(pool.asarray(sp)).tobytes()
        finally:
            pool.close()

    def test_collectives_bitwise_transparent(self, rng):
        pool = get_backend("distributed", nprocs=3, executor="pool")
        try:
            x = random_complex(rng, (5, 4))
            for op in ("allreduce", "gather", "broadcast"):
                out = getattr(pool.comm, op)(x)
                assert np.asarray(out).tobytes() == x.tobytes(), op
        finally:
            pool.close()

    def test_predictor_charges_identical_across_executors(self, rng):
        # The cost model stays a *predictor*: the charges must be a function
        # of the work, never of which executor ran it.
        sim = get_backend("distributed", nprocs=4)
        pool = get_backend("distributed", nprocs=4, executor="pool")
        try:
            for be in (sim, pool):
                ops = [random_complex(np.random.default_rng(1), (6, 5)),
                       random_complex(np.random.default_rng(2), (5, 7))]
                t = [be.astensor(o) for o in ops]
                r = be.einsum("ab,bc->ac", *t)
                be.asarray(r)
                be.norm(r)
                be.comm.allreduce(ops[0])
            assert sim.simulated_seconds == pool.simulated_seconds
            assert sim.stats.counts == pool.stats.counts
            assert sim.stats.comm_bytes == pool.stats.comm_bytes
        finally:
            pool.close()

    def test_pool_requests_are_counted(self, rng):
        pool = get_backend("distributed", nprocs=2, executor="pool")
        try:
            ops = [random_complex(rng, (6, 5)), random_complex(rng, (5, 7))]
            pool.einsum("ab,bc->ac", *[pool.astensor(o) for o in ops])
            registry = pool.cost_model.stats.registry
            total = sum(
                registry.value("dist.pool.requests", op="contract", rank=str(r))
                for r in range(2)
            )
            assert total >= 1
        finally:
            pool.close()

    def test_one_block_einsums_spread_over_every_rank(self):
        # Most einsums of an IBMPS norm have one canonical block; they go
        # round-robin like unsharded ones instead of all to the last rank.
        option = BMPS(ImplicitRandomizedSVD(rank=12, seed=0))
        sim = get_backend("distributed", nprocs=4)
        pool = get_backend("distributed", nprocs=4, executor="pool")
        try:
            expected = random_peps(4, 4, bond_dim=3, backend=sim, seed=11).norm(option)
            value = random_peps(4, 4, bond_dim=3, backend=pool, seed=11).norm(option)
            assert np.float64(value).tobytes() == np.float64(expected).tobytes()
            registry = pool.cost_model.stats.registry
            requests = [
                registry.value("dist.pool.requests", op="contract", rank=str(r))
                for r in range(4)
            ]
            assert min(requests) >= 1, requests
        finally:
            pool.close()

    def test_close_is_idempotent(self):
        pool = get_backend("distributed", nprocs=2, executor="pool")
        pool.close()
        pool.close()


STAT_FIELDS = ("flops", "comm_bytes", "messages", "simulated_seconds", "counts",
               "seconds_by_category")


def stats_of(backend):
    stats = {name: getattr(backend.stats, name) for name in STAT_FIELDS}
    stats["tensor_bytes_peak"] = backend.stats.registry.value("dist.tensor_bytes_peak")
    return stats


class TestUsedBackendCopies:
    """A backend that has charged work (metric handles bound, locks inside)
    still flows through ``copy.deepcopy`` and ``dataclasses.asdict``."""

    def used_backend(self, rng):
        backend = get_backend("distributed", nprocs=4)
        for subscripts, shapes in EINSUM_CASES:
            backend.einsum(subscripts, *[backend.astensor(random_complex(rng, s)) for s in shapes])
        backend.svd(backend.astensor(random_complex(rng, (6, 4))))
        return backend

    def test_deepcopy_and_asdict_clone_the_stats(self, rng):
        backend = self.used_backend(rng)
        clone = copy.deepcopy(backend)
        assert stats_of(clone) == stats_of(backend)
        as_dict = dataclasses.asdict(RunSpec(backend=backend))
        assert stats_of(as_dict["backend"]) == stats_of(backend)

    def test_clone_and_original_mutate_independently(self, rng):
        backend = self.used_backend(rng)
        clone = copy.deepcopy(backend)
        before = stats_of(backend)
        ops = [clone.astensor(random_complex(rng, s)) for s in [(6, 5), (5, 7)]]
        clone.einsum("ab,bc->ac", *ops)
        clone.qr(clone.astensor(random_complex(rng, (6, 4))))
        assert stats_of(backend) == before
        assert clone.stats.flops > backend.stats.flops
        assert clone.stats.counts["qr"] == 1 and "qr" not in backend.stats.counts
        backend.norm(backend.astensor(random_complex(rng, (3, 3))))
        assert "norm" not in clone.stats.counts

    def test_reset_reads_like_a_fresh_backend(self, rng):
        backend = self.used_backend(rng)
        backend.stats.reset()
        fresh = get_backend("distributed", nprocs=4)
        ops = [random_complex(rng, s) for s in [(6, 5), (5, 7)]]
        for be in (backend, fresh):
            be.einsum("ab,bc->ac", *[be.astensor(o) for o in ops])
        assert stats_of(backend) == stats_of(fresh)

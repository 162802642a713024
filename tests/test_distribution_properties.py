"""Property tests for block distributions and pool collectives.

Seeded-random sweeps over shapes, dtypes, layouts and rank counts pin the
structural invariants the pool executor and the sharded checkpoint store
are built on:

* :meth:`Distribution.block_slices` partitions the index space exactly
  (every element owned once);
* slicing by ``block_slices`` -> ``reassemble`` is a bitwise round trip for any shape/grid,
  including non-contiguous inputs and over-decomposed modes;
* :func:`shard_bounds` covers ``[0, extent)`` contiguously with balanced
  parts;
* pool collectives return payloads bitwise invariant to the rank count;
* the engine's block kernel is bitwise invariant to the rank count and to
  how canonical blocks are grouped into rank ranges, agrees with the NumPy
  backend, and lowers a signature's blocks once.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.backends import get_backend
from repro.backends.distributed import Distribution, ProcessorGrid, execute_plan, plan_einsum
from repro.backends.distributed.engine import CANONICAL_PARTS, MIN_BLOCK_SIZE, shard_bounds
from repro.tensornetwork.contraction_path import concat_blocks, slice_operands
from tests.conftest import FAST, random_complex, random_network

#: (seed, ndim) cases; extents drawn in [1, 9] so grids over-decompose often.
SHAPE_CASES = [(seed, ndim) for ndim in (1, 2, 3, 4) for seed in (0, 1, 2)]

DTYPES = (np.complex128, np.float64, np.int64)


def _random_shape(seed, ndim):
    rng = np.random.default_rng(seed + 97 * ndim)
    return tuple(int(x) for x in rng.integers(1, 10, size=ndim))


def _random_array(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        return (data + 1j * rng.standard_normal(shape)).astype(dtype)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(-100, 100, size=shape).astype(dtype)
    return data.astype(dtype)


class TestShardBounds:
    @pytest.mark.parametrize("extent", [0, 1, 5, 16, 17, 100])
    @pytest.mark.parametrize("nparts", [1, 2, 3, 7, 16])
    def test_bounds_cover_and_balance(self, extent, nparts):
        bounds = shard_bounds(extent, nparts)
        assert len(bounds) == nparts
        assert bounds[0][0] == 0 and bounds[-1][1] == extent
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in bounds]
        assert all(s >= 0 for s in sizes)
        assert max(sizes) - min(sizes) <= 1


class TestProcessorGrid:
    @pytest.mark.parametrize("seed, ndim", SHAPE_CASES)
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 6, 8])
    def test_grid_places_every_factor(self, seed, ndim, nprocs):
        shape = _random_shape(seed, ndim)
        grid = ProcessorGrid.for_tensor(shape, nprocs)
        assert len(grid.dims) == len(shape)
        assert grid.nprocs == nprocs

    def test_empty_shape_grid_is_serial(self):
        grid = ProcessorGrid.for_tensor((), 8)
        assert grid.dims == ()
        assert grid.nprocs == 1


class TestBlockLayout:
    @pytest.mark.parametrize("seed, ndim", SHAPE_CASES)
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
    def test_blocks_partition_index_space_exactly(self, seed, ndim, nprocs):
        shape = _random_shape(seed, ndim)
        dist = Distribution.natural(shape, nprocs)
        owners = np.zeros(shape, dtype=np.int64)
        for rank in range(dist.nprocs):
            owners[dist.block_slices(rank)] += 1
        assert (owners == 1).all()

    @pytest.mark.parametrize("seed, ndim", SHAPE_CASES)
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    def test_shard_reassemble_bitwise_round_trip(self, seed, ndim, nprocs, dtype):
        shape = _random_shape(seed, ndim)
        array = _random_array(shape, dtype, seed)
        dist = Distribution.natural(shape, nprocs)
        blocks = [array[dist.block_slices(rank)] for rank in range(dist.nprocs)]
        rebuilt = dist.reassemble(blocks)
        assert rebuilt.dtype == array.dtype
        assert rebuilt.tobytes() == np.ascontiguousarray(array).tobytes()

    def test_non_contiguous_input_round_trips(self):
        base = _random_array((6, 8), np.complex128, 11)
        for view in (base.T, base[::2], base[:, ::-1]):
            dist = Distribution.natural(view.shape, 4)
            blocks = [view[dist.block_slices(rank)] for rank in range(dist.nprocs)]
            rebuilt = dist.reassemble(blocks)
            assert rebuilt.tobytes() == np.ascontiguousarray(view).tobytes()

    def test_over_decomposed_mode_yields_empty_blocks(self):
        # 8 ranks on a length-2 tensor: most blocks are empty, the round
        # trip must still be exact.
        dist = Distribution.natural((2,), 8)
        array = np.arange(2, dtype=np.complex128)
        blocks = [array[dist.block_slices(rank)] for rank in range(dist.nprocs)]
        assert sum(b.size for b in blocks) == array.size
        assert dist.reassemble(blocks).tobytes() == array.tobytes()

    def test_reassemble_rejects_wrong_block_count(self):
        dist = Distribution.natural((4, 4), 4)
        blocks = [np.zeros((4, 4))[dist.block_slices(rank)] for rank in range(dist.nprocs)]
        with pytest.raises(ValueError):
            dist.reassemble(blocks[:-1])

    @pytest.mark.parametrize("seed, ndim", SHAPE_CASES[:6])
    def test_rank_coords_enumerate_grid(self, seed, ndim):
        shape = _random_shape(seed, ndim)
        dist = Distribution.natural(shape, 6)
        coords = {dist.rank_coords(rank) for rank in range(dist.nprocs)}
        assert coords == set(itertools.product(*[range(g) for g in dist.grid.dims]))


class TestCollectiveRankInvariance:
    """Pool collectives and gathers are bitwise invariant to rank count."""

    @pytest.mark.parametrize("op", ["allreduce", "gather", "broadcast"])
    def test_collective_payload_invariant_to_nprocs(self, op):
        payloads = {}
        for seed, ndim in SHAPE_CASES[:6]:
            shape = _random_shape(seed, ndim)
            payloads[(seed, ndim)] = _random_array(shape, np.complex128, seed)
        reference = None
        for nprocs in (1, 2, 4, 7):
            pool = get_backend("distributed", nprocs=nprocs, executor="pool")
            try:
                got = {
                    key: np.asarray(getattr(pool.comm, op)(x)).tobytes()
                    for key, x in payloads.items()
                }
            finally:
                pool.close()
            if reference is None:
                reference = got
            assert got == reference, (op, nprocs)

    def test_gather_round_trips_every_dtype(self):
        pool = get_backend("distributed", nprocs=3, executor="pool")
        try:
            for dtype in DTYPES:
                x = _random_array((5, 3), dtype, 21)
                out = np.asarray(pool.comm.gather(x))
                assert out.dtype == x.dtype
                assert out.tobytes() == x.tobytes()
        finally:
            pool.close()


NUMPY = get_backend("numpy")
SIMULATED = {nprocs: get_backend("distributed", nprocs=nprocs) for nprocs in (1, 2, 3, 5, 8)}


#: Largest operand :func:`block_network` builds, in elements.
MAX_OPERAND = 2**17


def block_network(seed, n, shard_extent, blocks, scalar, dangling):
    """A ``random_network`` draw, reshaped to reach the block kernel's edge
    cases: the first output label stretched to at least ``shard_extent``, and
    far enough for the output to hold ``blocks`` canonical blocks' worth of
    elements (one to sixteen blocks of one or two extents; the stretch stops
    where an operand would exceed :data:`MAX_OPERAND` elements), or no output
    at all, and optionally an extent-1 label only the first operand carries."""
    subscripts, shapes = random_network(np.random.default_rng(seed), n)
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    if scalar:
        output = ""
    elif output:
        label = output[0]
        extent = {lab: e for term, shape in zip(terms, shapes) for lab, e in zip(term, shape)}
        rest = math.prod(extent[lab] for lab in output[1:])
        widest = max(
            math.prod(e for lab, e in zip(term, shape) if lab != label)
            for term, shape in zip(terms, shapes) if label in term
        )
        stretch = max(shard_extent, -(-blocks * MIN_BLOCK_SIZE // rest))
        stretch = max(1, min(stretch, MAX_OPERAND // widest))
        shapes = [
            tuple(stretch if lab == label else e for lab, e in zip(term, shape))
            for term, shape in zip(terms, shapes)
        ]
    if dangling:
        terms[0] += "z"
        shapes[0] += (1,)
    return ",".join(terms) + "->" + output, shapes


class TestBlockKernel:
    @FAST
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 6),
        shard_extent=st.integers(1, 40),
        blocks=st.integers(0, 20),
        scalar=st.booleans(),
        dangling=st.booleans(),
        cuts=st.sets(st.integers(1, 15)),
    )
    def test_blocks_are_rank_and_grouping_invariant(
        self, seed, n, shard_extent, blocks, scalar, dangling, cuts
    ):
        subscripts, shapes = block_network(seed, n, shard_extent, blocks, scalar, dangling)
        rng = np.random.default_rng(seed)
        ops = [random_complex(rng, shape) for shape in shapes]

        results = [
            np.asarray(be.asarray(be.einsum(subscripts, *[be.astensor(o) for o in ops])))
            for be in SIMULATED.values()
        ]
        for result in results[1:]:
            assert result.tobytes() == results[0].tobytes(), subscripts
        reference = np.asarray(NUMPY.einsum(subscripts, *ops))
        assert results[0].shape == reference.shape
        assert np.linalg.norm(results[0] - reference) <= 1e-12 * np.linalg.norm(reference)

        plan = plan_einsum(subscripts, shapes)
        assert len(plan.blocks) <= 2
        again = plan_einsum(subscripts, shapes)
        assert [block for _, block in again.blocks] == [block for _, block in plan.blocks]
        assert all(a is b for (_, a), (_, b) in zip(again.blocks, plan.blocks))
        if plan.shard_label is None:
            return
        size = math.prod(reference.shape)
        assert plan.shard_parts == max(
            1, min(plan.shard_extent, CANONICAL_PARTS, size // MIN_BLOCK_SIZE)
        )
        # Any grouping of the canonical blocks into rank ranges, each range
        # shipped as its own operand slices, gives the canonical bytes.
        whole = execute_plan(plan, ops)
        bounds = plan.canonical_bounds()
        edges = [0] + sorted(c for c in cuts if c < len(bounds)) + [len(bounds)]
        blocks = []
        for first, last in zip(edges, edges[1:]):
            lo, hi = bounds[first][0], bounds[last - 1][1]
            local = slice_operands(plan.contraction.inputs, plan.shard_label, ops, lo, hi)
            relative = [(a - lo, b - lo) for a, b in bounds[first:last]]
            blocks.append(execute_plan(plan, local, bounds=relative))
        output = plan.contraction.output
        merged = concat_blocks(output, plan.shard_label, blocks, plan.shard_extent,
                               tuple(range(len(output))))
        assert merged.tobytes() == whole.tobytes()

"""Tests for the contraction planner and the general network contractor."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import peps
from repro.backends import NumPyBackend, clear_path_caches, path_cache_stats
from repro.backends import numpy_backend
from repro.backends.numpy_backend import blocks_run_alike
from repro.operators.pauli import pauli_matrix
from repro.peps.envs.strip import StripCache, operator_pieces, pending_kappas
from repro.telemetry import REGISTRY, TRACER
from repro.tensornetwork import contraction_path
from repro.tensornetwork.contraction_path import (
    BLOCK_TARGET,
    BLOCK_TRIGGER,
    EXHAUSTIVE_LIMIT,
    _build_plan,
    _greedy_order,
    _optimal_order,
    concat_blocks,
    find_path,
    slice_operands,
)
from repro.tensornetwork.einsum_spec import EinsumSpec
from repro.tensornetwork.network import contract_network
from repro.utils.flops import FlopCounter
from tests.conftest import order_cost, random_complex, random_network, run_plan, search_inputs


#: Signatures on which NumPy's own planner disagrees with this module (so a
#: backend that let NumPy plan would run something other than what it counts):
#: on the first ``np.einsum_path`` hits its memory limit and returns one
#: five-operand step, on the second its greedy path differs.
SAMPLE_CTM = (
    "caefb,cauwx,cuedg,cwfhs,bdhy->cxgsy",
    ((12, 4, 2, 2, 8), (12, 4, 2, 2, 4), (12, 2, 2, 2, 2), (12, 2, 2, 2, 2), (8, 2, 2, 8)),
)
NORM_IBMPS = (
    "cxyaef,aghi,pgemo,phfqs,mqiosb->cxyb",
    ((16, 4, 4, 16, 4, 4), (16, 4, 4, 16), (2, 4, 4, 4, 4), (2, 4, 4, 4, 4),
     (4, 4, 16, 4, 4, 18)),
)
#: The BMPS norm's zip-up einsum, the one plan of the benchmark ladder above
#: the blocking trigger: its largest intermediate holds 1 179 648 elements.
NORM_BMPS = (
    "cxyaef,aghi,pgemo,phfqs->cxymqios",
    ((12, 4, 4, 12, 4, 4), (12, 4, 4, 12), (2, 4, 4, 4, 4), (2, 4, 4, 4, 4)),
)


class TestFindPath:
    def test_two_operand_chain(self):
        info = find_path("ij,jk->ik", [(10, 20), (20, 30)])
        assert info.path == ((0, 1),)
        assert info.total_flops == 8.0 * 10 * 20 * 30
        # Peak size accounts for operands as well as intermediates.
        assert info.max_intermediate_size == 20 * 30

    def test_matrix_chain_prefers_cheap_order(self):
        # (A(2x1000) B(1000x2)) C(2x1000): contracting A,B first is far cheaper.
        info = find_path("ij,jk,kl->il", [(2, 1000), (1000, 2), (2, 1000)])
        assert info.path[0] == (0, 1)

    def test_exhaustive_not_worse_than_greedy(self):
        shapes = [(8, 4), (4, 16), (16, 2), (2, 32)]
        _, terms, output, dims = search_inputs("ab,bc,cd,de->ae", shapes)
        greedy = _greedy_order(terms, output, dims)
        optimal = _optimal_order(terms, output, dims)
        assert order_cost(terms, output, dims, optimal) <= order_cost(terms, output, dims, greedy)

    def test_search_is_selected_from_the_operand_count(self):
        for n in (EXHAUSTIVE_LIMIT, EXHAUSTIVE_LIMIT + 1):
            subscripts = ",".join(
                f"{chr(97 + i)}{chr(98 + i)}" for i in range(n)
            ) + f"->a{chr(97 + n)}"
            shapes = [(2 + (i % 3), 2 + ((i + 1) % 3)) for i in range(n)]
            spec, terms, output, dims = search_inputs(subscripts, shapes)
            search = _optimal_order if n <= EXHAUSTIVE_LIMIT else _greedy_order
            assert find_path(subscripts, shapes) == _build_plan(
                spec, dims, search(terms, output, dims)
            )

    def test_single_operand(self):
        info = find_path("ijk->ik", [(2, 3, 4)])
        assert info.path == ((0,),)
        a = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(run_plan(info, [a]), a.sum(axis=1))

    def test_hyperedge_shared_by_three_tensors(self):
        # Index j appears in three operands; it must survive until the last
        # pairwise contraction involving it.
        shapes = [(2, 3), (3, 4), (3, 5)]
        info = find_path("ij,jk,jl->ikl", shapes)
        rng = np.random.default_rng(0)
        tensors = [rng.standard_normal(s) for s in shapes]
        ref = np.einsum("ij,jk,jl->ikl", *tensors)
        assert np.allclose(run_plan(info, tensors), ref, atol=1e-12)

    def test_steps_recorded(self):
        info = find_path("ab,bc,cd->ad", [(2, 3), (3, 4), (4, 5)])
        assert len(info.steps) == len(info.path) == 2
        assert all(step.count(",") == 1 and "->" in step for step in info.steps)

    def test_unparseable_subscripts_raise(self):
        with pytest.raises(ValueError):
            find_path("a...b,b->a...", [(2, 3, 4), (4,)])
        with pytest.raises(ValueError):
            find_path("ij,jk->ik", [(2, 3), (4, 5)])

    def test_repeated_signature_is_planned_once(self):
        clear_path_caches()
        first = find_path(*SAMPLE_CTM)
        assert path_cache_stats()["path"] == {"hits": 0, "misses": 1, "size": 1}
        assert find_path(SAMPLE_CTM[0], [list(shape) for shape in SAMPLE_CTM[1]]) is first
        assert path_cache_stats()["path"] == {"hits": 1, "misses": 1, "size": 1}


class TestSearch:
    #: The operator-carrying column of a two-row strip in letters, every
    #: extent 2 but the operator's closed bond: most orders tie with others.
    COLUMN = "acdb,eghf,pcikj,qdlnm,rqps,tkogu,tnvhw,ailove->bjmuwfs"
    COLUMN_SHAPES = [
        tuple(1 if letter == "r" else 2 for letter in term)
        for term in COLUMN.split("->")[0].split(",")
    ]

    @pytest.mark.parametrize("n", range(2, EXHAUSTIVE_LIMIT + 1))
    def test_work_is_bounded_by_three_to_the_n(self, n):
        """A search over pair orders would evaluate ``n! (n-1)! / 2^(n-1)``
        of them; unit extents make everything tie, the subset search's worst
        case."""
        subscripts = ",".join(
            f"{chr(97 + i)}{chr(98 + i)}" for i in range(n)
        ) + f"->a{chr(97 + n)}"
        _, terms, output, dims = search_inputs(subscripts, [(1, 1)] * n)
        counter = REGISTRY.counter("planner.split_evaluations", operands=n)
        before = counter.value
        order = _optimal_order(terms, output, dims)
        assert 0 < counter.value - before <= 3 ** n
        assert order == [(0, 1)] * (n - 1)  # everything ties: the smallest path

    def test_plan_does_not_depend_on_the_hash_seed(self):
        """Pool workers plan in their own process and must reach the same
        plan: string hashes, hence set orders, differ between these two."""
        code = (
            "from repro.tensornetwork.contraction_path import find_path\n"
            f"plan = find_path({self.COLUMN!r}, {self.COLUMN_SHAPES!r})\n"
            "print(plan.path, plan.steps, plan.lowered)"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        printed = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            printed.append(done.stdout)
        plan = find_path(self.COLUMN, self.COLUMN_SHAPES)
        assert printed == [f"{plan.path} {plan.steps} {plan.lowered}\n"] * 2
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_a_search_is_counted_and_traced_once_per_signature(self, tmp_path):
        clear_path_caches()
        searches = REGISTRY.counter("planner.searches", operands=8)
        before = searches.value
        trace_path = tmp_path / "trace.json"
        TRACER.start(str(trace_path))
        try:
            find_path(self.COLUMN, self.COLUMN_SHAPES)
            find_path(self.COLUMN, self.COLUMN_SHAPES)
        finally:
            TRACER.stop()
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert searches.value - before == 1
        assert [(e["name"], e["args"]) for e in events] == [("planner.search", {"operands": 8})]


def absorb_one_at_a_time(sequence):
    """The path that starts from operand ``sequence[0]`` and contracts the
    others into it in the order given."""
    positions = sorted(sequence)
    path, held = [], sequence[0]
    for operand in sequence[1:]:
        i, j = sorted((positions.index(held), positions.index(operand)))
        path.append((i, j))
        held = ("step", len(path))
        positions = [p for k, p in enumerate(positions) if k not in (i, j)] + [held]
    return path


class TestStripColumnPlans:
    """The paper's strip complexity (Table II): a column of a two-row strip
    is absorbed into the environment layer by layer, so nothing larger than
    ``m^2 D^6 d`` times the open operator bond is ever formed — the ket and
    bra of a site are never fused."""

    ROWS = (1, 2)
    COLUMN = 1

    def column_network(self, bond, boundary, positions):
        """Spec and shapes of one span column exactly as ``StripCache``
        labels it for ``term_value``, and the operator bond's extent."""
        state = peps.random_peps(4, 4, bond_dim=bond, seed=3)
        edge = np.zeros((boundary, bond, bond, boundary))
        cache = StripCache(state, [edge] * 4, [edge] * 4, *self.ROWS)
        j = self.COLUMN
        piece_map, kappa = None, 1
        environment, output = cache._column_labels(j), cache._column_labels(j + 1)
        if positions:
            sites = [r * 4 + c for r, c in positions]
            exchange = sum(np.kron(pauli, pauli) for pauli in map(pauli_matrix, "XYZ"))
            piece_map = operator_pieces(sites, exchange, positions)
            kappa = max(piece.shape[-1] for pieces in piece_map.values() for piece, _, _ in pieces)
            environment += tuple(pending_kappas(piece_map, j - 1))
            output += tuple(pending_kappas(piece_map, j))
        operands, inputs = cache._column_operands(j, piece_map)
        shapes = [tuple(np.shape(operand)) for operand in operands]
        extent = {label: dim for term, shape in zip(inputs, shapes) for label, dim in zip(term, shape)}
        inputs.append(environment)
        shapes.append(tuple(extent[label] for label in environment))
        return EinsumSpec(tuple(map(tuple, inputs)), output), shapes, kappa

    @pytest.mark.parametrize("bond, boundary", [(3, 9), (4, 16)])
    @pytest.mark.parametrize(
        "positions",
        [None, [(1, 1), (2, 1)], [(1, 1), (2, 2)], [(1, 0), (2, 1)], [(2, 1), (1, 2)]],
        ids=["traced", "vertical", "diagonal-first", "diagonal-second", "antidiagonal-first"],
    )
    def test_no_costlier_than_layer_by_layer_absorption(self, bond, boundary, positions):
        spec, shapes, kappa = self.column_network(bond, boundary, positions)
        plan = find_path(spec, shapes)

        # environment, upper, then per row ket, operator piece, bra, then lower
        n = len(shapes)
        rows = list(range(2, n - 1))
        pieces = [k for k in rows if len(spec.inputs[k]) == 4]
        for k in pieces:  # listed after its row's bra; absorb it before
            rows.remove(k)
            rows.insert(rows.index(k - 1), k)
        layered = _build_plan(
            spec, spec.index_dimensions(shapes), absorb_one_at_a_time([n - 1, 0] + rows + [1])
        )
        physical = shapes[2][0]
        assert layered.max_intermediate_size == boundary**2 * bond**6 * physical * kappa
        assert plan.total_flops <= layered.total_flops
        assert plan.max_intermediate_size <= boundary**2 * bond**6 * physical * kappa


class TestCountedIsExecuted:
    @pytest.mark.parametrize("subscripts, shapes", [SAMPLE_CTM, NORM_IBMPS])
    def test_numpy_backend_runs_the_pairwise_path_it_counts(
        self, monkeypatch, rng, subscripts, shapes
    ):
        products = []
        real = np.matmul

        def spy(a, b):
            products.append((a.shape, b.shape))
            return real(a, b)

        counter = FlopCounter()
        backend = NumPyBackend(flop_counter=counter)
        operands = [random_complex(rng, shape) for shape in shapes]
        monkeypatch.setattr(numpy_backend.np, "matmul", spy)
        monkeypatch.setattr(
            numpy_backend.np, "einsum", lambda *args, **kwargs: pytest.fail("np.einsum ran")
        )
        result = backend.einsum(subscripts, *operands)
        monkeypatch.undo()

        plan = find_path(subscripts, shapes)
        assert all(len(pair) == 2 for pair in plan.path)
        # One matrix product per pairwise step, of the shapes the plan lowered it to.
        assert products == [(step[2], step[5]) for step in plan.lowered]
        assert counter.total == plan.total_flops
        # (batch, kept, contracted) x (batch, contracted, kept): 8 m k n each.
        assert counter.total == sum(8.0 * b * m * k * n for (b, m, k), (_, _, n) in products)
        assert np.allclose(result, np.einsum(subscripts, *operands, optimize=True), atol=1e-10)

    def test_a_blocked_plan_runs_each_step_once_per_block(self, monkeypatch, rng):
        subscripts, shapes = NORM_BMPS
        products = []
        real = np.matmul

        def spy(a, b):
            products.append((a.shape, b.shape))
            return real(a, b)

        counter = FlopCounter()
        backend = NumPyBackend(flop_counter=counter)
        operands = [random_complex(rng, shape) for shape in shapes]
        monkeypatch.setattr(numpy_backend.np, "matmul", spy)
        result = backend.einsum(subscripts, *operands)
        monkeypatch.undo()

        plan = find_path(subscripts, shapes)
        block = plan.blocking.plan
        parts = len(plan.blocking.bounds)
        assert parts > 1
        # One matrix product per step per block, of the shapes the block plan lowered it to.
        assert products == [(step[2], step[5]) for step in block.lowered] * parts
        # Counting reads the whole plan, whose flops the blocks' sum to exactly.
        assert counter.total == plan.total_flops == parts * block.total_flops
        assert counter.total == sum(8.0 * b * m * k * n for (b, m, k), (_, _, n) in products)
        assert np.allclose(result, np.einsum(subscripts, *operands, optimize=True), atol=1e-10)


def blockable_network(rng, n):
    """A :func:`random_network` of ``n`` operands plus one output label on all
    operands but one, so that every step of a path touches it and the planner
    may block on it (or on another output label).  Its extent, 4 to 16, puts
    it in batch, row and column groups that slice down to a few elements."""
    subscripts, shapes = random_network(rng, n)
    terms, output = subscripts.split("->")
    extent = int(rng.choice([4, 8, 16]))
    skip = int(rng.integers(n))
    terms = [term + "z" * (k != skip) for k, term in enumerate(terms.split(","))]
    shapes = [shape + (extent,) * (k != skip) for k, shape in enumerate(shapes)]
    at = int(rng.integers(len(output) + 1))
    return ",".join(terms) + "->" + output[:at] + "z" + output[at:], shapes


class TestBlockedPlans:
    """A plan whose largest intermediate exceeds ``BLOCK_TRIGGER`` runs as
    output slices written into one array, bitwise as it runs whole."""

    def test_the_bmps_zip_up_blocks_on_its_first_label_without_extra_flops(self):
        plan = find_path(*NORM_BMPS)
        assert plan.max_intermediate_size > BLOCK_TRIGGER
        blocking = plan.blocking
        assert (blocking.label, len(blocking.bounds)) == ("c", 12)
        assert blocking.bounds == tuple((k, k + 1) for k in range(12))
        assert blocking.plan.max_intermediate_size <= BLOCK_TARGET
        assert len(blocking.bounds) * blocking.plan.total_flops == plan.total_flops
        for subscripts, shapes in (SAMPLE_CTM, NORM_IBMPS):
            assert find_path(subscripts, shapes).blocking is None

    @pytest.mark.parametrize("subscripts", ["abcd->dcba", "abcd->ad"])
    def test_a_one_operand_plan_is_not_blocked(self, rng, subscripts):
        # 2^20 elements, above the trigger, but one operand multiplies
        # nothing: a transpose stays a view of its operand.
        shape = (16, 16, 16, 256)
        plan = find_path(subscripts, [shape])
        assert plan.max_intermediate_size > BLOCK_TRIGGER
        assert plan.blocking is None
        operand = rng.standard_normal(shape)
        result = numpy_backend._execute(plan, [operand])
        assert np.shares_memory(result, operand) == (subscripts == "abcd->dcba")

    def test_blocks_are_written_in_place(self, rng):
        # The result is assembled in one array laid out as the whole plan's:
        # the traced peak holds it and a few block intermediates, not the
        # whole plan's.
        subscripts, shapes = NORM_BMPS
        operands = [random_complex(rng, shape) for shape in shapes]
        plan = find_path(subscripts, shapes)
        peaks = []
        for run in (plan, dataclasses.replace(plan, blocking=None)):
            tracemalloc.start()
            result = numpy_backend._execute(run, operands)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            if run is plan:
                blocked = result
        assert blocked.strides == result.strides
        assert blocked.tobytes() == result.tobytes()
        assert peaks[0] < peaks[1] / 2

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 9))
    def test_blocked_equals_unblocked_bitwise(self, seed, n):
        # Constants this small block networks of a few hundred elements; the
        # operands are real or complex and lie in memory every which way.
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(contraction_path, "BLOCK_TRIGGER", 0)
            patch.setattr(contraction_path, "BLOCK_TARGET", 256)
            clear_path_caches()
            try:
                for _ in range(100):
                    subscripts, shapes = blockable_network(rng, n)
                    plan = find_path(subscripts, shapes)
                    if plan.blocking is not None:
                        break
            finally:
                clear_path_caches()
        blocking = plan.blocking
        assert blocking is not None
        layouts = [LAYOUTS[name] for name in sorted(LAYOUTS)]
        operands = [layouts[rng.integers(len(layouts))](rng, random_complex(rng, shape))
                    for shape in shapes]

        blocked = numpy_backend._execute(plan, operands)
        whole = numpy_backend._execute(dataclasses.replace(plan, blocking=None), operands)
        assert blocked.shape == whole.shape and blocked.dtype == whole.dtype
        # Same strides too, so a later contraction takes both alike.
        assert blocked.strides == whole.strides
        assert blocked.tobytes() == whole.tobytes()

        # The planner's assembly holds np.concatenate's bytes, in C order
        # when asked for it, as np.concatenate lays out contiguous blocks.
        label, extent = blocking.label, blocking.bounds[-1][1]
        blocks = [
            numpy_backend._execute(
                blocking.plan, slice_operands(plan.inputs, label, operands, lo, hi))
            for lo, hi in blocking.bounds
        ]
        joined = np.concatenate(blocks, axis=plan.output.index(label))
        perm_ab = plan.lowered[-1][-1]
        assert concat_blocks(plan.output, label, iter(blocks), extent,
                             perm_ab).tobytes() == joined.tobytes()
        contiguous = [np.ascontiguousarray(block) for block in blocks]
        c_order = concat_blocks(plan.output, label, contiguous, extent, range(len(plan.output)))
        assert c_order.tobytes() == joined.tobytes()
        assert c_order.strides == np.concatenate(
            contiguous, axis=plan.output.index(label)).strides
        if blocks_run_alike(plan, operands):
            assert joined.tobytes() == whole.tobytes()

    def test_slices_laid_out_unlike_the_whole_run_whole(self, monkeypatch, rng):
        # Sliced to 8 of 24 elements, the last label leaves the first operand's
        # transpose-reshape a view where the whole's copies: the plan runs whole.
        subscripts, shapes = "abce,b,cdf->e", [(1, 3, 3, 24), (3,), (3, 2, 3)]
        monkeypatch.setattr(contraction_path, "BLOCK_TRIGGER", 0)
        monkeypatch.setattr(contraction_path, "BLOCK_TARGET", 256)
        clear_path_caches()
        plan = find_path(subscripts, shapes)
        clear_path_caches()
        assert len(plan.blocking.bounds) == 3
        operands = [random_complex(rng, shape) for shape in shapes]
        assert not blocks_run_alike(plan, operands)
        products = []
        real = np.matmul

        def spy(a, b):
            products.append((a.shape, b.shape))
            return real(a, b)

        monkeypatch.setattr(numpy_backend.np, "matmul", spy)
        result = numpy_backend._execute(plan, operands)
        assert products == [(step[2], step[5]) for step in plan.lowered]
        whole = numpy_backend._execute(dataclasses.replace(plan, blocking=None), operands)
        assert result.tobytes() == whole.tobytes()


def strided(rng, array):
    """The same values as every other element of a twice larger buffer."""
    buffer = np.full([2 * extent for extent in array.shape], np.nan, dtype=array.dtype)
    view = buffer[tuple(slice(int(rng.integers(2)), None, 2) for _ in array.shape) + (...,)]
    view[...] = array
    return view


def permuted(rng, array):
    """The same values on a buffer laid out in a random axis order."""
    axes = tuple(rng.permutation(array.ndim))
    return array.transpose(axes).copy().transpose(tuple(np.argsort(axes)))


def broadcast(rng, array):
    """Stride 0 along a random half of the axes (values repeat along them)."""
    index = tuple(slice(0, 1) if rng.random() < 0.5 else slice(None) for _ in array.shape)
    return np.broadcast_to(array[index], array.shape)


LAYOUTS = {
    "c-order": lambda rng, array: array,
    "fortran": lambda rng, array: array.copy(order="F"),
    "permuted": permuted,
    "strided": strided,
    "broadcast": broadcast,
    "real": lambda rng, array: array.real.copy(),
    "mixed": lambda rng, array: rng.choice([permuted, strided, broadcast])(
        rng, array.real if rng.random() < 0.5 else array
    ),
}

#: Hand-built expressions at the edges of the planner's grammar.
EDGE_CASES = [
    ("ij,jk,jl->ikl", [(2, 3), (3, 4), (3, 5)]),  # hyperedge
    ("bij,bjk->bik", [(3, 2, 4), (3, 4, 2)]),  # batch label
    ("ab,ab->ab", [(2, 3), (2, 3)]),  # batch labels only
    ("ab,ab,ba->a", [(2, 3), (2, 3), (3, 2)]),
    ("i,j->ij", [(2,), (3,)]),  # outer products
    ("ab,cd->cadb", [(2, 3), (4, 2)]),
    ("ab,cd,ef->", [(2, 3), (4, 2), (3, 3)]),
    (",ab->ba", [(), (2, 3)]),  # scalar operands
    (",->", [(), ()]),
    ("a,,a->", [(3,), (), (3,)]),
    ("ij,jk", [(2, 3), (3, 4)]),  # implicit output
    ("ba", [(2, 3)]),
    ("ij,ij", [(2, 3), (2, 3)]),
    ("ij,jk->ik", [(2, 0), (0, 3)]),  # extent 0: contracted, kept, dangling
    ("ij,jk->ik", [(0, 2), (2, 3)]),
    ("ijx,jk->ik", [(2, 2, 0), (2, 3)]),
    ("ij,jk,kl->il", [(1, 1), (1, 1), (1, 1)]),  # extent 1 everywhere
    ("ijk->ki", [(2, 3, 4)]),  # single operands
    ("ijk->j", [(2, 3, 4)]),
    ("ij->", [(2, 3)]),
    ("i->i", [(3,)]),
    ("->", [()]),
    # a strip column's last step: j and k dangle off the second operand
    ("abcd,befgachijk->gfiehd", [(2, 3, 2, 2), (3, 2, 2, 3, 2, 2, 2, 2, 1, 1)]),
    ("abcd,befgachijk->gfiehd", [(2, 3, 2, 2), (3, 2, 2, 3, 2, 2, 2, 2, 3, 1)]),
    ("axb,byc->ac", [(2, 3, 4), (4, 1, 2)]),  # dangling on either side
    ("ax,ab,bcy,cz->", [(2, 3), (2, 2), (2, 3, 2), (3, 1)]),  # carried to the last step
]


def reference(subscripts, operands):
    return np.einsum(subscripts, *operands, optimize=False)


def assert_same(result, ref):
    assert result.shape == ref.shape
    assert result.dtype == ref.dtype
    scale = max(1.0, np.abs(ref).max(initial=0.0))
    assert np.abs(result - ref).max(initial=0.0) <= 1e-12 * scale


class TestExecutor:
    """The backend's plan executor against NumPy's unoptimised einsum: equal
    values, dtype and shape whatever the expression and however the operands
    lie in memory, and the operands are only ever read."""

    def check(self, backend, rng, subscripts, shapes, layout):
        operands = [LAYOUTS[layout](rng, np.array(random_complex(rng, shape))) for shape in shapes]
        before = [np.array(op) for op in operands]
        for op in operands:
            op.flags.writeable = False

        ref = reference(subscripts, operands)
        assert_same(backend.einsum(subscripts, *operands), ref)

        spec, _, _, _ = search_inputs(subscripts, shapes)
        wrap = lambda term: tuple(("label", letter) for letter in term)
        assert_same(
            contract_network(operands, list(map(wrap, spec.inputs)), wrap(spec.output), backend),
            ref,
        )

        if "->" in subscripts:
            batch = 3
            stacked = [
                LAYOUTS[layout](rng, random_complex(rng, (int(rng.choice([1, batch])),) + shape))
                for shape in shapes
            ]
            items = [
                reference(subscripts, [op[min(i, len(op) - 1)] for op in stacked])
                for i in range(batch)
            ]
            if any(len(op) == batch for op in stacked):
                assert_same(backend.einsum_batched(subscripts, *stacked), np.stack(items))
            else:
                assert_same(backend.einsum_batched(subscripts, *stacked), items[0][np.newaxis])

        assert all(np.array_equal(op, copy) for op, copy in zip(operands, before))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", range(8))
    def test_random_networks(self, numpy_backend, seed, layout):
        rng = np.random.default_rng([seed, sorted(LAYOUTS).index(layout)])
        for n in (2, 3, 4, 6, EXHAUSTIVE_LIMIT + 1):
            subscripts, shapes = random_network(rng, n)
            self.check(numpy_backend, rng, subscripts, shapes, layout)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("subscripts, shapes", EDGE_CASES)
    def test_edge_cases(self, numpy_backend, rng, subscripts, shapes, layout):
        self.check(numpy_backend, rng, subscripts, shapes, layout)

    def test_more_labels_than_the_einsum_alphabet(self, numpy_backend, rng):
        n = 60
        legs = [(k, ("open", k), k + 1) if k % 20 == 0 else (k, k + 1) for k in range(n)]
        mats = [permuted(rng, random_complex(rng, (2,) * len(term))) for term in legs]
        spec = EinsumSpec(inputs=tuple(legs), output=(("open", 40), n, ("open", 0), 0, ("open", 20)))
        ref = np.eye(2)
        for mat in mats:
            ref = np.tensordot(ref, mat, axes=1)
        assert_same(numpy_backend.einsum(spec, *mats), ref.transpose(3, 4, 1, 0, 2))

    def test_subscripts_outside_the_grammar_raise(self, backend, rng):
        # No np.einsum fallback: the planner's ValueError reaches the caller.
        a = backend.astensor(random_complex(rng, (3, 3, 2)))
        with pytest.raises(ValueError, match="repeated index"):
            backend.einsum("iij->j", a)
        with pytest.raises(ValueError):
            backend.einsum("i...,i...->...", a, a)


class TestContractNetwork:
    def test_matches_einsum_three_tensors(self, backend, rng):
        a = random_complex(rng, (3, 4))
        b = random_complex(rng, (4, 5))
        c = random_complex(rng, (5, 2))
        out = contract_network(
            [backend.astensor(a), backend.astensor(b), backend.astensor(c)],
            [("i", "j"), ("j", "k"), ("k", "l")],
            ("i", "l"),
            backend=backend,
        )
        assert np.allclose(backend.asarray(out), a @ b @ c)

    def test_arbitrary_hashable_labels(self, numpy_backend, rng):
        a = random_complex(rng, (2, 3))
        b = random_complex(rng, (3, 2))
        out = contract_network(
            [a, b],
            [((0, "row"), ("bond", 7)), (("bond", 7), (1, "col"))],
            ((0, "row"), (1, "col")),
            backend=numpy_backend,
        )
        assert np.allclose(out, a @ b)

    def test_more_labels_than_einsum_alphabet(self, numpy_backend, rng):
        # A chain of 30 matrices has 31 distinct indices in total; single-call
        # einsum would be fine, but with 60 the alphabet runs out -- the
        # network contractor must still work because each pairwise step only
        # sees a handful of labels.
        n = 60
        mats = [random_complex(rng, (2, 2)) for _ in range(n)]
        operands = mats
        inputs = [((i,), (i + 1,)) for i in range(n)]
        out = contract_network(operands, inputs, ((0,), (n,)), backend=numpy_backend)
        ref = mats[0]
        for m in mats[1:]:
            ref = ref @ m
        assert np.allclose(out, ref)

    def test_scalar_output(self, numpy_backend, rng):
        a = random_complex(rng, (4,))
        b = random_complex(rng, (4,))
        out = contract_network([a, b], [("i",), ("i",)], (), backend=numpy_backend)
        assert numpy_backend.item(out) == pytest.approx(np.sum(a * b))

    def test_sums_over_dangling_unit_labels(self, numpy_backend, rng):
        a = random_complex(rng, (3, 1))
        out = contract_network([a], [("i", "dangling")], ("i",), backend=numpy_backend)
        assert np.allclose(out, a[:, 0])

    @pytest.mark.parametrize("extent", [1, 3])
    def test_sums_over_dangling_labels_on_each_side_of_a_step(self, backend, rng, extent):
        """Labels one operand alone holds and the result drops: absorbed by a
        reshape at extent 1, summed ahead of the matrix product otherwise."""
        a = random_complex(rng, (3, extent, 4))
        b = random_complex(rng, (1, 4, 2, extent))
        out = contract_network(
            [backend.astensor(a), backend.astensor(b)],
            [("i", "left", "j"), ("unit", "j", "k", "right")],
            ("k", "i"),
            backend=backend,
        )
        ref = (a.sum(axis=1) @ b.sum(axis=(0, 3))).T
        assert np.allclose(backend.asarray(out), ref, rtol=0, atol=1e-12)
        plan = find_path("ilj,ujkr->ki", [a.shape, b.shape])
        ((sum_a, perm_a, shape_a, sum_b, perm_b, shape_b, shape_ab, perm_ab),) = plan.lowered
        assert (sum_a, sum_b) == (((1,), (3,)) if extent > 1 else ((), ()))
        assert (shape_a, shape_b, shape_ab, perm_ab) == ((1, 3, 4), (1, 4, 2), (3, 2), (1, 0))

    def test_output_order_respected(self, numpy_backend, rng):
        a = random_complex(rng, (2, 3, 4))
        out = contract_network([a], [("x", "y", "z")], ("z", "x", "y"), backend=numpy_backend)
        assert out.shape == (4, 2, 3)
        assert np.allclose(out, a.transpose(2, 0, 1))

    def test_single_operand_identity(self, numpy_backend, rng):
        a = random_complex(rng, (3, 4))
        out = contract_network([a], [("i", "j")], ("i", "j"), backend=numpy_backend)
        assert np.allclose(out, a)

    def test_errors(self, numpy_backend, rng):
        a = random_complex(rng, (2, 2))
        with pytest.raises(ValueError):
            contract_network([a], [("i",)], ("i",), backend=numpy_backend)  # wrong arity
        with pytest.raises(ValueError):
            contract_network([a], [("i", "j")], ("q",), backend=numpy_backend)  # unknown output
        with pytest.raises(ValueError):
            contract_network([a], [("i", "j")], ("i", "i"), backend=numpy_backend)  # repeated
        with pytest.raises(ValueError):
            contract_network([a, a], [("i", "j")], ("i",), backend=numpy_backend)  # count mismatch
        b = random_complex(rng, (3, 3))
        with pytest.raises(ValueError):
            contract_network([a, b], [("i", "j"), ("j", "k")], ("i", "k"), backend=numpy_backend)

    def test_label_names_do_not_matter_to_the_plan_cache(self, numpy_backend, rng):
        a = random_complex(rng, (3, 4))
        b = random_complex(rng, (4, 5))
        c = random_complex(rng, (5, 2))
        clear_path_caches()
        cold = contract_network(
            [a, b, c], [("i", "j"), ("j", "k"), ("k", "l")], ("l", "i"), backend=numpy_backend
        )
        # One entry for the network; its pairwise steps are not planned again.
        assert path_cache_stats()["path"] == {"hits": 0, "misses": 1, "size": 1}
        renamed = contract_network(
            [a, b, c],
            [((0, 0), "x"), ("x", ("bond", 7)), (("bond", 7), 3.5)],
            (3.5, (0, 0)),
            backend=numpy_backend,
        )
        assert path_cache_stats()["path"] == {"hits": 1, "misses": 1, "size": 1}
        assert renamed.tobytes() == cold.tobytes()
        assert np.allclose(cold, (a @ b @ c).T)

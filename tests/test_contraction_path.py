"""Tests for the contraction planner and the general network contractor."""

import numpy as np
import pytest

from repro.backends import NumPyBackend, clear_path_caches, path_cache_stats
from repro.backends import numpy_backend
from repro.tensornetwork.contraction_path import (
    EXHAUSTIVE_LIMIT,
    _build_plan,
    _greedy_order,
    _optimal_order,
    find_path,
)
from repro.tensornetwork.network import contract_network
from repro.utils.flops import FlopCounter
from tests.conftest import order_cost, random_complex, run_plan, search_inputs


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


class TestCountedIsExecuted:
    @pytest.mark.parametrize("subscripts, shapes", [SAMPLE_CTM, NORM_IBMPS])
    def test_numpy_backend_runs_the_pairwise_path_it_counts(
        self, monkeypatch, rng, subscripts, shapes
    ):
        handed = []
        real = np.einsum

        def spy(*args, optimize=False, **kwargs):
            handed.append(optimize)
            return real(*args, optimize=optimize, **kwargs)

        monkeypatch.setattr(numpy_backend.np, "einsum", spy)
        counter = FlopCounter()
        backend = NumPyBackend(flop_counter=counter)
        operands = [random_complex(rng, shape) for shape in shapes]
        result = backend.einsum(subscripts, *operands)
        monkeypatch.undo()

        (optimize,) = handed
        assert optimize[0] == "einsum_path"
        path = optimize[1:]
        assert all(len(pair) == 2 for pair in path)
        spec, _, _, dims = search_inputs(subscripts, shapes)
        assert counter.total == _build_plan(spec, dims, path).total_flops
        assert counter.total == find_path(subscripts, shapes).total_flops
        assert np.allclose(result, np.einsum(subscripts, *operands, optimize=True), atol=1e-10)


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
        # One entry for the network, one for each of its two pairwise einsums.
        assert path_cache_stats()["path"] == {"hits": 0, "misses": 3, "size": 3}
        renamed = contract_network(
            [a, b, c],
            [((0, 0), "x"), ("x", ("bond", 7)), (("bond", 7), 3.5)],
            (3.5, (0, 0)),
            backend=numpy_backend,
        )
        assert path_cache_stats()["path"] == {"hits": 3, "misses": 3, "size": 3}
        assert renamed.tobytes() == cold.tobytes()
        assert np.allclose(cold, (a @ b @ c).T)

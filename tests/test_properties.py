"""Property-based tests (hypothesis) for core data structures and invariants."""

import dataclasses
import importlib
import io
import json
import os
import pickle
import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from repro.backends import get_backend, interface
from repro.backends.numpy_backend import NumPyBackend
from repro.linalg import DenseTensorOperator, randomized_svd, tensor_qr, truncate_spectrum, truncated_svd
from repro.operators import gates
from repro.operators.hamiltonians import heisenberg_j1j2, transverse_field_ising
from repro.operators.observable import Observable
from repro.peps import BMPS, Exact, contract_single_layer, random_peps
from repro.peps.contraction.options import CONTRACT_OPTION_KINDS, CTMOption
from repro.peps.contraction.two_layer import absorb_sandwich_row
from repro.peps.peps import random_single_layer_grid
from repro.peps.envs import BoundaryEnvironment, EnvCTM, ctm_renormalize, make_environment
from repro.peps.envs.boundary import option_signature
from repro.peps.envs.ctm import bond_projectors
from repro.peps.update import DOWN, UP, UPDATE_OPTION_KINDS, QRUpdate
from repro.sim import RunSpec
from repro.sim import io as sim_io
from repro.statevector import StateVector
from repro.tensornetwork import ExplicitSVD, ImplicitRandomizedSVD, einsumsvd
from repro.tensornetwork.contraction_path import (
    EXHAUSTIVE_LIMIT,
    _greedy_order,
    _optimal_order,
    find_path,
)
from repro.tensornetwork.einsum_spec import parse_einsum
from repro.tensornetwork.einsumsvd import SVD_OPTION_KINDS
from repro.utils.flops import FlopCounter
from tests.conftest import (
    FAST,
    brute_force_order,
    exact_single_layer_value,
    order_cost,
    random_network,
    run_plan,
    sample_in_groups_of_one,
    search_inputs,
)

BACKEND = get_backend("numpy")


def _complex_array(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


dims = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestSpectrumTruncationProperties:
    @FAST
    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=12),
        rank=st.integers(min_value=1, max_value=12),
    )
    def test_truncate_spectrum_invariants(self, values, rank):
        s = np.sort(np.asarray(values))[::-1]
        keep, err = truncate_spectrum(s, rank=rank)
        assert 1 <= keep <= len(s)
        assert keep <= max(rank, 1)
        assert 0.0 <= err <= 1.0 + 1e-12

    @FAST
    @given(seed=seeds, m=st.integers(2, 8), n=st.integers(2, 8), rank=st.integers(1, 8))
    def test_truncated_svd_error_matches_discarded_spectrum(self, seed, m, n, rank):
        rng = np.random.default_rng(seed)
        a = _complex_array(rng, (m, n))
        result = truncated_svd(BACKEND, a, rank=rank)
        s = np.linalg.svd(a, compute_uv=False)
        k = min(rank, min(m, n))
        expected = np.sqrt(np.sum(s[k:] ** 2) / np.sum(s**2)) if np.sum(s**2) > 0 else 0.0
        assert result.rank <= k
        assert result.truncation_error == pytest.approx(expected, abs=1e-10)
        rec = (BACKEND.asarray(result.u) * result.s) @ BACKEND.asarray(result.vh)
        assert np.linalg.norm(a - rec) <= np.sqrt(np.sum(s[k:] ** 2)) + 1e-9


class TestQRReducedSVDProperties:
    """``truncated_svd`` on the QR-reduced route (``long >= 4 * short`` and
    ``rank < short``) agrees with one ``scipy.linalg.svd`` of the matrix."""

    @staticmethod
    def _matrix(rng, shape, kind, complex_dtype, draw):
        """A matrix of ``shape`` with a ``random``, ``rank_deficient``,
        exactly ``degenerate`` or ``zero`` spectrum."""

        def gaussian(rows, cols):
            if complex_dtype:
                return _complex_array(rng, (rows, cols))
            return rng.standard_normal((rows, cols))

        short = min(shape)
        if kind == "random":
            return gaussian(*shape)
        if kind == "zero":
            spectrum = np.zeros(short)
        elif kind == "rank_deficient":
            nonzero = draw(st.integers(1, short - 1))
            spectrum = np.concatenate([np.arange(nonzero, 0, -1), np.zeros(short - nonzero)])
        else:  # integer levels 1..3: multiplets, or gaps of at least a third
            spectrum = np.sort(draw(st.lists(st.integers(1, 3), min_size=short, max_size=short)))
            spectrum = spectrum[::-1].astype(float)
        left = np.linalg.qr(gaussian(shape[0], short))[0]
        right = np.linalg.qr(gaussian(shape[1], short))[0]
        return (left * spectrum) @ right.conj().T

    @FAST
    @given(
        data=st.data(),
        seed=seeds,
        short=st.integers(2, 12),
        aspect=st.integers(4, 8),
        wide=st.booleans(),
        complex_dtype=st.booleans(),
        kind=st.sampled_from(["random", "rank_deficient", "degenerate", "zero"]),
    )
    def test_matches_scipy_svd(self, data, seed, short, aspect, wide, complex_dtype, kind):
        rng = np.random.default_rng(seed)
        shape = (short, aspect * short) if wide else (aspect * short, short)
        a = self._matrix(rng, shape, kind, complex_dtype, data.draw)
        rank = data.draw(st.integers(1, short - 1))
        ref_u, ref_s, ref_vh = scipy.linalg.svd(a, full_matrices=False)
        keep, error = truncate_spectrum(ref_s, rank=rank)

        with mock.patch.object(interface, "_qr_svd", wraps=interface._qr_svd) as route:
            result = truncated_svd(BACKEND, a, rank=rank)
            _, s, _ = BACKEND.svd(a, rank=rank)
        assert route.call_count == 2

        assert result.rank == keep
        assert abs(result.truncation_error - error) <= 1e-12
        assert np.all(np.abs(s - ref_s) <= 1e-13 * ref_s[0])
        u, vh = result.u, result.vh
        assert np.allclose(u.conj().T @ u, np.eye(keep), rtol=0, atol=1e-12)
        assert np.allclose(vh @ vh.conj().T, np.eye(keep), rtol=0, atol=1e-12)
        # a truncation that splits a multiplet has no unique answer
        if ref_s[keep - 1] > ref_s[keep] * (1 + 1e-8):
            ref = (ref_u[:, :keep] * ref_s[:keep]) @ ref_vh[:keep]
            approx = (u * result.s) @ vh
            assert np.linalg.norm(approx - ref) <= 1e-12 * np.linalg.norm(ref)


class TestDenseSVDRouteProperties:
    """On shapes around both route thresholds (aspect 4, and the ``geqrt``
    panel width), ``dense_svd`` returns the spectrum and the rank-k truncation
    of ``np.linalg.svd`` and refuses non-finite input, whichever route runs;
    a plain ``dense_svd`` is ``scipy.linalg.svd`` bit for bit."""

    @FAST
    @given(
        data=st.data(),
        seed=seeds,
        short=st.integers(interface._GEQRT_MIN_SHORT - 4, interface._GEQRT_MIN_SHORT + 4),
        aspect=st.sampled_from([3, 4, 5]),
        extra=st.integers(0, 3),
        wide=st.booleans(),
        complex_dtype=st.booleans(),
        order=st.sampled_from(["C", "F"]),
    )
    def test_matches_numpy_on_every_route(self, data, seed, short, aspect, extra, wide,
                                          complex_dtype, order):
        rng = np.random.default_rng(seed)
        shape = (short, aspect * short + extra)
        shape = shape if wide else shape[::-1]
        a = _complex_array(rng, shape) if complex_dtype else rng.standard_normal(shape)
        a = np.asarray(a, order=order)
        rank = data.draw(st.integers(1, short - 1))
        ref_u, ref_s, ref_vh = np.linalg.svd(a, full_matrices=False)
        u, s, vh = interface.dense_svd(a, rank=rank)
        assert np.all(np.abs(s - ref_s) <= 1e-13 * ref_s[0])
        if ref_s[rank - 1] > ref_s[rank] * (1 + 1e-8):
            ref = (ref_u[:, :rank] * ref_s[:rank]) @ ref_vh[:rank]
            approx = (u[:, :rank] * s[:rank]) @ vh[:rank]
            assert np.all(np.abs(approx - ref) <= 1e-12 * ref_s[0])
        bad = a.copy(order=order)
        bad[data.draw(st.integers(0, shape[0] - 1)), data.draw(st.integers(0, shape[1] - 1))] = (
            data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        )
        with pytest.raises(ValueError, match="infs or NaNs"):
            interface.dense_svd(bad, rank=rank)

    @FAST
    @given(
        seed=seeds,
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        dtype=st.sampled_from([np.float64, np.complex128, np.float32, np.complex64]),
        order=st.sampled_from(["C", "F"]),
    )
    def test_gesdd_is_scipy_svd_bitwise(self, seed, rows, cols, dtype, order):
        rng = np.random.default_rng(seed)
        a = _complex_array(rng, (rows, cols)) if np.dtype(dtype).kind == "c" else (
            rng.standard_normal((rows, cols)))
        a = np.asarray(a, dtype=dtype, order=order)
        for got, ref in zip(interface.dense_svd(a), scipy.linalg.svd(a, full_matrices=False),
                            strict=True):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


class TestStackedCornerProperties:
    """CTM corner projectors of a stack of Grams (batch axis first, or a
    broadcasting 1 on one side) are, item by item, exactly the bytes of the
    2-d call on that item's Grams, and their SVDs are charged as the 2-d
    calls' are (the distributed gathers of a stack are not per item)."""

    @FAST
    @given(
        seed=seeds,
        batch=st.integers(1, 6),
        bond=st.integers(1, 40),
        chi=st.one_of(st.none(), st.integers(1, 40)),
        complex_dtype=st.booleans(),
        shared_left=st.booleans(),
    )
    def test_items_are_the_2d_calls(self, seed, batch, bond, chi, complex_dtype, shared_left):
        rng = np.random.default_rng(seed)

        def grams(count):
            shape = (count, int(rng.integers(1, bond + 1)), bond)
            half = rng.standard_normal(shape)
            if complex_dtype:
                half = half + 1j * rng.standard_normal(shape)
            return np.swapaxes(half.conj(), -1, -2) @ half

        left, right = grams(1 if shared_left else batch), grams(batch)
        counter = FlopCounter()
        counted = NumPyBackend(flop_counter=counter)
        dist = get_backend("distributed", nprocs=4)

        def run(backend, left_gram, right_gram):
            return bond_projectors(
                backend, backend.astensor(left_gram), backend.astensor(right_gram), chi
            )

        def charged(call):
            counter.reset()
            dist.stats.reset()
            out = call()
            stats = dist.stats
            return out, (counter.by_category(), counter.calls_by_category(),
                         stats.counts.get("svd"), stats.seconds_by_category.get("svd"))

        for backend in (counted, dist):
            (pair, spectrum), got = charged(lambda: run(backend, left, right))
            items, want = charged(
                lambda: [run(backend, left[0 if shared_left else s], right[s]) for s in range(batch)]
            )
            assert got == want
            for s, (item_pair, item_spectrum) in enumerate(items):
                assert spectrum[s].tobytes() == item_spectrum.tobytes()
                assert (pair is None) == (item_pair is None)
                for stacked, alone in zip(pair or (), item_pair or (), strict=True):
                    assert stacked[s].shape == alone.shape
                    assert stacked[s].tobytes() == alone.tobytes()


class TestDenseQRProperties:
    """``dense_qr`` returns the bits of ``np.linalg.qr(mode="reduced")``."""

    @FAST
    @given(
        data=st.data(),
        seed=seeds,
        form=st.sampled_from(["tall", "square", "wide"]),
        short=st.integers(1, 12),
        aspect=st.integers(2, 24),
        complex_dtype=st.booleans(),
        order=st.sampled_from(["C", "F"]),
        kind=st.sampled_from(["random", "rank_deficient", "single_column", "zero"]),
    )
    def test_matches_numpy_bitwise(self, data, seed, form, short, aspect, complex_dtype,
                                   order, kind):
        rng = np.random.default_rng(seed)
        shape = {"tall": (aspect * short, short), "square": (short, short),
                 "wide": (short, aspect * short)}[form]
        if kind == "single_column":
            shape = (shape[0], 1)

        def gaussian(rows, cols):
            if complex_dtype:
                return _complex_array(rng, (rows, cols))
            return rng.standard_normal((rows, cols))

        if kind == "zero":
            a = np.zeros(shape, dtype=complex if complex_dtype else float)
        elif kind == "rank_deficient" and min(shape) > 1:
            inner = data.draw(st.integers(1, min(shape) - 1))
            a = gaussian(shape[0], inner) @ gaussian(inner, shape[1])
        else:
            a = gaussian(*shape)
        a = np.asarray(a, order=order)

        ref_q, ref_r = np.linalg.qr(a, mode="reduced")
        q, r = interface.dense_qr(a)
        for got, ref in ((q, ref_q), (r, ref_r)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


class TestOrthogonalizationProperties:
    @FAST
    @given(seed=seeds, a=dims, b=dims, c=dims,
           method=st.sampled_from(["qr", "gram"]))
    def test_tensor_qr_always_reconstructs(self, seed, a, b, c, method):
        rng = np.random.default_rng(seed)
        t = _complex_array(rng, (a + 1, b + 1, c))
        q, r = tensor_qr(BACKEND, t, 2, method=method)
        rec = np.einsum("abk,kc->abc", q, r)
        assert np.allclose(rec, t, atol=1e-8)

    @FAST
    @given(seed=seeds, rows=st.integers(4, 10), cols=st.integers(1, 4))
    def test_gram_isometry_for_tall_operators(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        t = _complex_array(rng, (rows, 2, cols))
        q, _ = tensor_qr(BACKEND, t, 2, method="gram")
        qm = q.reshape(rows * 2, -1)
        gram = qm.conj().T @ qm
        assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-6)


class TestEinsumSVDProperties:
    @FAST
    @given(seed=seeds, a=dims, b=dims, c=dims, d=dims, e=dims)
    def test_full_rank_einsumsvd_is_exact(self, seed, a, b, c, d, e):
        rng = np.random.default_rng(seed)
        x = _complex_array(rng, (a, b, c))
        y = _complex_array(rng, (c, d, e))
        left, right = einsumsvd("abc,cde->abk,kde", x, y, option=ExplicitSVD(), backend=BACKEND)
        rec = np.einsum("abk,kde->abde", left, right)
        full = np.einsum("abc,cde->abde", x, y)
        assert np.allclose(rec, full, atol=1e-9)

    @FAST
    @given(seed=seeds, rank=st.integers(1, 6))
    def test_truncation_never_exceeds_rank(self, seed, rank):
        rng = np.random.default_rng(seed)
        x = _complex_array(rng, (3, 3, 4))
        y = _complex_array(rng, (4, 3, 3))
        left, right = einsumsvd("abc,cde->abk,kde", x, y, option=ExplicitSVD(rank=rank),
                                backend=BACKEND)
        assert left.shape[-1] <= rank
        assert right.shape[0] == left.shape[-1]


#: einsumsvd networks of two to four operands; the bonds inside them can
#: make the contracted operator rank-deficient.
SKETCH_NETWORKS = (
    "abc,cde->abk,kde",
    "ab,bc,cd->ak,kd",
    "xab,bcd,ce,dy->xak,key",
    "ab,bcd,ce->adk,ke",
)
SVD_BACKENDS = {"numpy": BACKEND, "distributed": get_backend("distributed", nprocs=4)}


class TestSketchRouteProperties:
    """An implicit einsumsvd whose sketch covers the operator's short side is
    the explicit one; a narrower sketch runs Algorithm 4.  Both reconstruct."""

    @FAST
    @given(seed=seeds, subscripts=st.sampled_from(SKETCH_NETWORKS), is_complex=st.booleans(),
           backend_name=st.sampled_from(sorted(SVD_BACKENDS)), rank=st.integers(1, 5),
           oversample=st.integers(0, 2), data=st.data())
    def test_covering_sketch_is_explicit_and_narrower_runs_algorithm_4(
        self, seed, subscripts, is_complex, backend_name, rank, oversample, data
    ):
        backend = SVD_BACKENDS[backend_name]
        rng = np.random.default_rng(seed)
        inputs, outputs = subscripts.split("->")
        labels = sorted(set(inputs.replace(",", "")))
        # Outer legs 2-5, the bonds inside the network 1-3: operators of low
        # rank next to full-rank ones, and sketches on both sides of the rule.
        free = set(outputs.replace(",", "").replace("k", ""))
        extent = {
            label: data.draw(st.integers(2, 5) if label in free else st.integers(1, 3))
            for label in labels
        }
        arrays = []
        for term in inputs.split(","):
            shape = tuple(extent[label] for label in term)
            arrays.append(_complex_array(rng, shape) if is_complex else rng.standard_normal(shape))
        operands = [backend.astensor(a) for a in arrays]
        out_a, out_b = outputs.split(",")
        full = np.einsum(f"{inputs}->{out_a[:-1] + out_b[1:]}", *arrays)
        rows = int(np.prod([extent[label] for label in out_a[:-1]]))
        matrix = full.reshape(rows, -1)
        spectrum = np.linalg.svd(matrix, compute_uv=False)
        max_rank = min(matrix.shape)

        option = ImplicitRandomizedSVD(rank=rank, oversample=oversample, seed=seed)
        module = importlib.import_module("repro.linalg.randomized_svd")
        with mock.patch.object(module, "randomized_svd", wraps=module.randomized_svd) as spy:
            left, right = einsumsvd(subscripts, *operands, option=option, backend=backend)
        rec = np.einsum(
            f"{out_a},{out_b}->{out_a[:-1] + out_b[1:]}",
            backend.asarray(left), backend.asarray(right),
        ).reshape(matrix.shape)
        error = np.linalg.norm(rec - matrix)
        scale = np.linalg.norm(matrix)
        keep = min(rank, max_rank)
        # Eckart-Young: no rank-keep factorization does better than the tail.
        floor = float(np.sqrt(np.sum(spectrum[keep:] ** 2)))
        if min(rank + oversample, max_rank) == max_rank:
            assert spy.call_count == 0
            explicit = einsumsvd(
                subscripts, *operands, option=ExplicitSVD(rank=rank), backend=backend,
            )
            for got, want in zip((left, right), explicit, strict=True):
                assert np.array_equal(backend.asarray(got), backend.asarray(want))
            assert error == pytest.approx(floor, abs=1e-9 * scale)
        else:
            assert spy.call_count == 1
            assert error >= floor - 1e-9 * scale
            if rank >= np.linalg.matrix_rank(matrix):
                # The sketch spans the operator's whole range.
                assert error <= 1e-7 * scale
            else:
                # A projection of the operator never overshoots it.
                assert error <= scale * (1 + 1e-9)


class TestContractionPathProperties:
    @FAST
    @given(seed=seeds, n=st.integers(2, 5))
    def test_path_length_and_positive_cost(self, seed, n):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, size=n + 1)
        subscripts = ",".join(
            f"{chr(ord('a') + i)}{chr(ord('a') + i + 1)}" for i in range(n)
        ) + f"->a{chr(ord('a') + n)}"
        shapes = [(int(sizes[i]), int(sizes[i + 1])) for i in range(n)]
        info = find_path(subscripts, shapes)
        assert len(info.path) == n - 1
        assert info.total_flops > 0
        assert info.max_intermediate_size >= 1

    @FAST
    @given(seed=seeds, n=st.integers(2, EXHAUSTIVE_LIMIT + 3))
    def test_executing_a_plan_reproduces_numpy_result(self, seed, n):
        """Random networks on both sides of the search/greedy switch."""
        rng = np.random.default_rng(seed)
        subscripts, shapes = random_network(rng, n)
        operands = [_complex_array(rng, shape) for shape in shapes]

        plan = find_path(subscripts, shapes)
        assert len(plan.path) == len(plan.steps) == n - 1
        assert all(len(pair) == 2 for pair in plan.path)
        assert pickle.loads(pickle.dumps(plan)) == plan
        ref = np.einsum(subscripts, *operands, optimize=False)
        assert np.allclose(run_plan(plan, operands), ref, rtol=0, atol=1e-12 * max(1, np.abs(ref).max()))
        spec = parse_einsum(subscripts)
        assert find_path(spec, shapes) == plan

    @FAST
    @given(seed=seeds, n=st.integers(2, 5))
    def test_search_finds_the_first_cheapest_of_all_pair_orders(self, seed, n):
        """Optimal, and on ties the smallest path: exactly what enumerating
        every order in ``combinations`` order and keeping the first cheapest
        one gives."""
        subscripts, shapes = random_network(np.random.default_rng(seed), n)
        _, terms, output, dims = search_inputs(subscripts, shapes)
        assert _optimal_order(terms, output, dims) == brute_force_order(terms, output, dims)

    @FAST
    @given(seed=seeds, n=st.integers(3, EXHAUSTIVE_LIMIT))
    def test_exhaustive_search_is_the_reference_for_greedy(self, seed, n):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 9, size=n + 1)
        subscripts = ",".join(
            f"{chr(ord('a') + i)}{chr(ord('a') + i + 1)}" for i in range(n)
        ) + f"->a{chr(ord('a') + n)}"
        shapes = [(int(sizes[i]), int(sizes[i + 1])) for i in range(n)]
        _, terms, output, dims = search_inputs(subscripts, shapes)
        best = order_cost(terms, output, dims, _optimal_order(terms, output, dims))
        assert best <= order_cost(terms, output, dims, _greedy_order(terms, output, dims))


class TestSingleLayerProperties:
    @FAST
    @given(seed=seeds, nrow=st.integers(1, 3), ncol=st.integers(1, 4), bond=st.integers(1, 3))
    def test_exact_and_full_rank_bmps_equal_the_network(self, seed, nrow, ncol, bond):
        grid = random_single_layer_grid(nrow, ncol, bond_dim=bond, seed=seed)
        exact = contract_single_layer(grid, Exact(), BACKEND)
        assert exact == pytest.approx(exact_single_layer_value(BACKEND, grid), rel=1e-10)
        assert contract_single_layer(grid, BMPS(ExplicitSVD()), BACKEND) == pytest.approx(
            exact, rel=1e-10
        )


lattice_sides = st.integers(1, 3)
layer_bonds = st.integers(1, 2)
phys_dims = st.integers(2, 3)


def random_pair(nrow, ncol, bond_dim, phys_dim, seed):
    """Two independent random states of one shape."""
    return tuple(
        random_peps(nrow, ncol, bond_dim=bond_dim, phys_dim=phys_dim, seed=seed + k)
        for k in (0, 1)
    )


class TestInnerProductProperties:
    """``<a|b>`` is the norm of a cross environment of ``b`` with ``a`` as the
    bra, ``<a|a>`` that of ``a``'s own environment."""

    @FAST
    @given(nrow=lattice_sides, ncol=lattice_sides, bond_dim=layer_bonds, phys_dim=phys_dims,
           seed=seeds)
    def test_exact_overlap_is_the_statevector_vdot(self, nrow, ncol, bond_dim, phys_dim, seed):
        a, b = random_pair(nrow, ncol, bond_dim, phys_dim, seed)
        value = a.inner(b, Exact())
        assert value == pytest.approx(np.vdot(a.to_statevector(), b.to_statevector()), rel=1e-10)
        assert value == pytest.approx(np.conj(b.inner(a, Exact())), rel=1e-10)

    @FAST
    @given(nrow=lattice_sides, ncol=lattice_sides, bond_dim=layer_bonds, phys_dim=phys_dims,
           seed=seeds, option=st.sampled_from([
               Exact(), BMPS(ExplicitSVD(rank=2)),
               # no oversampling: a sketch of 2 is narrower than most operators
               BMPS(ImplicitRandomizedSVD(rank=2, oversample=0, seed=0)), CTMOption(chi=2),
           ]))
    # Three D=2 columns: the middle zip-up step runs Algorithm 4.
    @example(nrow=3, ncol=3, bond_dim=2, phys_dim=2, seed=0,
             option=BMPS(ImplicitRandomizedSVD(rank=2, oversample=0, seed=0)))
    def test_norm_squared_is_the_self_overlap(
        self, nrow, ncol, bond_dim, phys_dim, seed, option
    ):
        a = random_peps(nrow, ncol, bond_dim=bond_dim, phys_dim=phys_dim, seed=seed)
        self_overlap = max(float(np.real(a.inner(a, option))), 0.0)
        assert a.norm(option) ** 2 == pytest.approx(self_overlap, rel=1e-12)

    @FAST
    @given(nrow=lattice_sides, ncol=lattice_sides, bond_dim=layer_bonds, phys_dim=phys_dims,
           seed=seeds, implicit=st.booleans(), m=st.sampled_from([1, 2, None]))
    def test_bmps_and_two_layer_bmps_are_one_computation(
        self, nrow, ncol, bond_dim, phys_dim, seed, implicit, m
    ):
        a, b = random_pair(nrow, ncol, bond_dim, phys_dim, seed)
        svd = ImplicitRandomizedSVD(rank=m, oversample=0, seed=0) if implicit else ExplicitSVD(rank=m)
        legacy = sim_io.contract_option_from_dict(
            {"kind": "two_layer_bmps", "svd": sim_io.svd_option_to_dict(svd)}
        )
        for bra, ket in ((a, b), (a, a)):
            assert bra.inner(ket, BMPS(svd)) == bra.inner(ket, legacy)

    @pytest.mark.parametrize("option", [Exact(), BMPS(ExplicitSVD(rank=4))], ids=["exact", "bmps"])
    def test_cross_environment_serves_only_its_norm(self, option):
        a, b = random_pair(2, 2, 2, 2, seed=7)
        env = make_environment(b, option, bra=a)
        assert env.norm_sq() == a.inner(b, option)
        z = np.diag([1.0, -1.0])
        for query in (
            lambda: env.expectation(Observable.Z(0)),
            lambda: env.measure_1site(z),
            lambda: env.measure_2site(z, z),
            lambda: env.sample(rng=0),
        ):
            with pytest.raises(ValueError, match="cross environment"):
                query()


class TestQuantumInvariants:
    @FAST
    @given(seed=seeds, n=st.integers(1, 4))
    def test_unitary_circuits_preserve_norm(self, seed, n):
        from repro.circuits import random_quantum_circuit

        circ = random_quantum_circuit(1, n, n_layers=4, seed=seed)
        sv = StateVector.computational_zeros(n).apply_circuit(circ)
        assert sv.norm() == pytest.approx(1.0, abs=1e-10)

    @FAST
    @given(seed=seeds)
    def test_pauli_expectations_bounded(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sv = StateVector(amps / np.linalg.norm(amps), 3)
        for obs in (Observable.X(0), Observable.Y(1), Observable.Z(2), Observable.ZZ(0, 2)):
            value = sv.expectation(obs)
            assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    @FAST
    @given(nrow=st.integers(2, 3), ncol=st.integers(2, 3))
    def test_hamiltonians_are_hermitian(self, nrow, ncol):
        for ham in (transverse_field_ising(nrow, ncol), heisenberg_j1j2(nrow, ncol)):
            dense = ham.to_matrix()
            assert np.allclose(dense, dense.conj().T)

    @FAST
    @given(theta=st.floats(min_value=-6.0, max_value=6.0))
    def test_rotation_gates_are_unitary_for_all_angles(self, theta):
        for gate in (gates.Rx(theta), gates.Ry(theta), gates.Rz(theta)):
            assert gates.is_unitary(gate)

    @FAST
    @given(seed=seeds)
    def test_randomized_svd_never_overestimates_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        a = _complex_array(rng, (8, 6))
        op = DenseTensorOperator(BACKEND, a, 1)
        result = randomized_svd(BACKEND, op, rank=3, niter=2, rng=seed)
        exact = np.linalg.svd(a, compute_uv=False)
        assert np.all(result.s <= exact[0] + 1e-8)


# --------------------------------------------------------------------- #
# Option objects: one description (the dataclass), every layer derived
# --------------------------------------------------------------------- #
small_ints = st.integers(min_value=1, max_value=64)

#: One strategy per option *field name*, over all nine option classes.  A
#: field added to a dataclass without a strategy here fails the build below
#: with a KeyError: that is the only edit a new field needs outside its class.
FIELD_STRATEGIES = {
    "rank": st.none() | small_ints,
    "niter": st.integers(0, 4),
    "oversample": st.integers(0, 8),
    "orth_method": st.sampled_from(["auto", "qr", "gram"]),
    "seed": st.none() | seeds,
    "chi": st.none() | small_ints,
}


def options_of(cls):
    return st.builds(cls, **{f.name: FIELD_STRATEGIES[f.name] for f in dataclasses.fields(cls)})


svd_options = st.one_of([options_of(cls) for cls in SVD_OPTION_KINDS.values()])
FIELD_STRATEGIES["svd_option"] = st.none() | svd_options
contract_options = st.one_of(
    [options_of(cls) for cls in dict.fromkeys(CONTRACT_OPTION_KINDS.values())]
)
update_options = st.one_of([options_of(cls) for cls in UPDATE_OPTION_KINDS.values()])

#: Spec shorthand kind of a boundary-MPS option: (class, einsumsvd class) -> alias.
SHORTHAND = {
    (BMPS, ExplicitSVD): "bmps",
    (BMPS, ImplicitRandomizedSVD): "ibmps",
}


def wire(payload):
    return json.loads(json.dumps(payload))


def physical(option):
    """The io form of what an environment is built from."""
    if isinstance(option, BMPS):
        option = option.resolved_svd_option()
    return sim_io.option_to_dict(option)


class TestOptionDescriptionProperties:
    def test_every_option_class_is_drawn(self):
        kinds = {**SVD_OPTION_KINDS, **CONTRACT_OPTION_KINDS, **UPDATE_OPTION_KINDS}
        classes = set(kinds.values())
        assert len(classes) == 9
        assert all(kinds[cls.kind] is cls for cls in classes)

    @FAST
    @given(option=svd_options)
    def test_svd_option_round_trips_through_json(self, option):
        assert sim_io.svd_option_from_dict(wire(sim_io.svd_option_to_dict(option))) == option

    @FAST
    @given(option=contract_options)
    def test_contract_option_round_trips_through_json(self, option):
        payload = wire(sim_io.contract_option_to_dict(option))
        again = sim_io.contract_option_from_dict(payload)
        assert type(again) is type(option) and again == option

    @FAST
    @given(option=update_options)
    def test_update_option_round_trips_through_json(self, option):
        payload = wire(sim_io.update_option_to_dict(option))
        again = sim_io.update_option_from_dict(payload)
        assert type(again) is type(option) and again == option

    @FAST
    @given(option=contract_options)
    def test_spec_shorthand_and_io_form_build_the_same_contraction(self, option):
        io_form = wire(sim_io.contract_option_to_dict(option))
        assert RunSpec(contraction=io_form).build_contract_option() == option
        if isinstance(option, BMPS) and option.svd_option is not None:
            flat = wire(sim_io.svd_option_to_dict(option.svd_option))
            flat["kind"] = SHORTHAND[type(option), type(option.svd_option)]
            flat["bond"] = flat.pop("rank")
            assert RunSpec(contraction=flat).build_contract_option() == option

    @FAST
    @given(option=update_options)
    def test_spec_and_io_form_build_the_same_update(self, option):
        io_form = wire(sim_io.update_option_to_dict(option))
        assert RunSpec(update=io_form).build_update_option() == option
        if type(option) is QRUpdate:  # "qr" is the spec's default kind
            del io_form["kind"]
            assert RunSpec(update=io_form).build_update_option() == option

    @FAST
    @given(a=contract_options, b=contract_options)
    def test_signatures_agree_exactly_on_the_physical_fields(self, a, b):
        assert (option_signature(a) == option_signature(b)) == (physical(a) == physical(b))

    @FAST
    @given(option=contract_options, data=st.data())
    def test_signature_changes_with_every_field(self, option, data):
        base = option.resolved_svd_option() if isinstance(option, BMPS) else option
        names = [f.name for f in dataclasses.fields(base)]
        wrap = BMPS if isinstance(option, BMPS) else (lambda o: o)
        assert option_signature(wrap(dataclasses.replace(base))) == option_signature(option)
        if names:
            name = data.draw(st.sampled_from(names))
            value = data.draw(FIELD_STRATEGIES[name].filter(lambda v: v != getattr(base, name)))
            changed = dataclasses.replace(base, **{name: value})
            assert option_signature(wrap(changed)) != option_signature(option)


# --------------------------------------------------------------------- #
# Boundary moves: a batch is its items
# --------------------------------------------------------------------- #
def assert_item_matches(got, want, rounds):
    """``got`` is ``want`` bit for bit, or to rounding where ``rounds``.

    A batch-1 operand that broadcasts against a stacked one joins its GEMM
    as extra rows, so a lockstep contraction with both may round unlike the
    item's own call.  A batch of one, a fully stacked batch and any per-item
    route give the item's bits.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if rounds:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    else:
        assert got.tobytes() == want.tobytes()


def item(tensor, s):
    """Item ``s`` of a batched tensor; a batch of one broadcasts."""
    return tensor[0 if tensor.shape[0] == 1 else s]


def batch_of(items, shared):
    """Per-item tensor lists stacked column by column; a shared column is
    item 0's tensor alone, a batch of one that broadcasts."""
    return [
        items[0][c][np.newaxis] if shared[c] else np.stack([tensors[c] for tensors in items])
        for c in range(len(shared))
    ]


def broadcasts(batch, shared):
    """Whether some operands broadcast against stacked ones."""
    return batch > 1 and any(shared) and not all(shared)


def random_boundaries(rng, batch, phys, layers, max_bond):
    """``batch`` random boundaries with physical legs ``phys`` per column."""
    bonds = [1] + [int(b) for b in rng.integers(1, max_bond + 1, size=len(phys) - 1)] + [1]
    return [
        [
            _complex_array(rng, (bonds[c], *[int(p)] * layers, bonds[c + 1]))
            for c, p in enumerate(phys)
        ]
        for _ in range(batch)
    ]


def absorb_options(m):
    # No oversampling, so the implicit zip-up runs Algorithm 4 wherever rank
    # m is below the operator's short side.
    return [None, ExplicitSVD(rank=m), ImplicitRandomizedSVD(rank=m, oversample=0, seed=0)]


class TestBatchedMoveProperties:
    @FAST
    @given(nrow=st.integers(1, 3), ncol=st.integers(1, 4), bond_dim=st.integers(1, 2),
           batch=st.integers(1, 3), layers=st.sampled_from([1, 2]), own_bra=st.booleans(),
           from_below=st.booleans(), m=st.integers(1, 3), kind=st.integers(0, 2),
           seed=seeds, data=st.data())
    def test_absorbing_a_batch_absorbs_each_item(
        self, nrow, ncol, bond_dim, batch, layers, own_bra, from_below, m, kind, seed, data
    ):
        option = absorb_options(m)[kind]
        from_below = from_below and layers == 2
        rng = np.random.default_rng(seed)
        r = data.draw(st.integers(0, nrow - 1))
        if layers == 2:
            grids = [random_peps(nrow, ncol, bond_dim=bond_dim, seed=seed + s).grid
                     for s in range(2 * batch)]
        else:
            grids = [random_single_layer_grid(nrow, ncol, bond_dim=bond_dim, seed=seed + s)
                     for s in range(batch)]
        kets = [grid[r] for grid in grids[:batch]]
        leg = (DOWN if from_below else UP) if layers == 2 else 0
        boundaries = random_boundaries(
            rng, batch, [t.shape[leg] for t in kets[0]], layers, max_bond=3
        )
        shared = [data.draw(st.lists(st.booleans(), min_size=ncol, max_size=ncol))
                  for _ in range(3)]
        boundary = batch_of(boundaries, shared[0])
        ket_row = batch_of(kets, shared[1])
        bra_row = None
        if layers == 2 and own_bra:
            bra_row, shared[2] = ket_row, shared[1]
        elif layers == 2:
            bra_row = batch_of([grid[r] for grid in grids[batch:]], shared[2])
        used = shared[0] + shared[1] + (shared[2] if layers == 2 else [])
        rounds = option is None and broadcasts(batch, used)

        got = absorb_sandwich_row(
            boundary, ket_row, bra_row, option=option, backend=BACKEND, from_below=from_below
        )
        for s in range(batch):
            want = absorb_sandwich_row(
                [item(t, s) for t in boundary],
                [item(t, s) for t in ket_row],
                None if bra_row is None else [item(t, s) for t in bra_row],
                option=option,
                backend=BACKEND,
                from_below=from_below,
            )
            for got_column, want_column in zip(got, want, strict=True):
                assert_item_matches(item(got_column, s), want_column, rounds)

    @FAST
    @given(ncol=st.integers(1, 4), batch=st.integers(1, 3), chi=st.sampled_from([1, 2, None]),
           seed=seeds, data=st.data())
    def test_renormalizing_a_batch_renormalizes_each_item(self, ncol, batch, chi, seed, data):
        # Physical legs of dimension 2 keep every corner Gram full rank: the
        # square root of a rank-deficient one amplifies rounding by itself.
        rng = np.random.default_rng(seed)
        boundaries = random_boundaries(rng, batch, [2] * ncol, layers=2, max_bond=4)
        shared = data.draw(st.lists(st.booleans(), min_size=ncol, max_size=ncol))
        boundary = batch_of(boundaries, shared)
        rounds = broadcasts(batch, shared)

        got, got_spectra = ctm_renormalize(BACKEND, boundary, chi)
        for s in range(batch):
            want, want_spectra = ctm_renormalize(BACKEND, [item(t, s) for t in boundary], chi)
            for got_column, want_column in zip(got, want, strict=True):
                assert_item_matches(item(got_column, s), want_column, rounds)
            for got_spectrum, want_spectrum in zip(got_spectra, want_spectra, strict=True):
                assert_item_matches(item(got_spectrum, s), want_spectrum, rounds)

    def test_mismatched_batch_sizes_raise(self):
        row = [np.stack([t] * 3) for t in random_peps(1, 3, bond_dim=2, seed=1).grid[0]]
        boundary = [np.ones((2, 1, 1, 1, 1))] * 3
        for option in absorb_options(2):
            with pytest.raises(ValueError, match="batch"):
                absorb_sandwich_row(boundary, row, row, option=option, backend=BACKEND)
        grown = [np.ones((2, 1, 1, 1, 2)), np.ones((3, 2, 1, 1, 2)), np.ones((2, 2, 1, 1, 1))]
        with pytest.raises(ValueError, match="batch"):
            ctm_renormalize(BACKEND, grown, 1)


#: The environment kinds of the sampler's parity probe: exact and
#: fixed-rank truncations of both boundary schemes.
SAMPLING_ENVS = {
    "exact": lambda state: BoundaryEnvironment(state),
    "bmps": lambda state: BoundaryEnvironment(state, BMPS(ExplicitSVD(rank=8))),
    "ctm": lambda state: EnvCTM(state, CTMOption(chi=8)),
}


class TestSamplingProperties:
    @FAST
    @given(
        nrow=st.integers(1, 3),
        ncol=st.integers(1, 3),
        bond_dim=st.integers(1, 2),
        phys_dim=st.integers(2, 3),
        kind=st.sampled_from(sorted(SAMPLING_ENVS)),
        seed=seeds,
        nshots=st.integers(1, 6),
        data=st.data(),
    )
    def test_shots_are_prefix_stable_group_independent_and_in_range(
        self, nrow, ncol, bond_dim, phys_dim, kind, seed, nshots, data
    ):
        state = random_peps(nrow, ncol, bond_dim=bond_dim, phys_dim=phys_dim, seed=seed)
        env = SAMPLING_ENVS[kind](state)
        shots = env.sample(rng=seed, nshots=nshots)
        k = data.draw(st.integers(1, nshots))
        np.testing.assert_array_equal(shots[:k], env.sample(rng=seed, nshots=k))
        np.testing.assert_array_equal(shots, sample_in_groups_of_one(env, seed, nshots))
        assert shots.shape == (nshots, nrow * ncol)
        assert shots.min() >= 0 and shots.max() < phys_dim


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


class TestAtomicJSONProperties:
    @FAST
    @given(payload=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=5))
    def test_bytes_match_json_dump(self, payload):
        """NaN and +-inf included: ``st.floats()`` draws them."""
        expected = io.StringIO()
        json.dump(payload, expected)
        with tempfile.TemporaryDirectory() as directory:
            path = sim_io.atomic_write_json(os.path.join(directory, "doc.json"), payload)
            with open(path, "rb") as handle:
                assert handle.read() == expected.getvalue().encode()

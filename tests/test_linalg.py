"""Tests for truncated SVD, orthogonalization (Algorithm 5) and implicit operators."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro.backends import NumPyBackend, interface
from repro.backends.interface import dense_svd
from repro.linalg import (
    DenseTensorOperator,
    TensorNetworkOperator,
    randomized_svd,
    tensor_qr,
    truncate_spectrum,
    truncated_svd,
)
from repro.linalg.randomized_svd import _orth, sketch_size
from repro.tensornetwork.einsum_spec import parse_einsumsvd
from repro.utils.flops import FlopCounter, svd_flops
from tests.conftest import FAST, random_complex


def low_rank_matrix(rng, m, n, rank, decay=0.5):
    """A matrix with controlled, rapidly decaying spectrum."""
    u, _ = np.linalg.qr(random_complex(rng, (m, rank)))
    v, _ = np.linalg.qr(random_complex(rng, (n, rank)))
    s = decay ** np.arange(rank)
    return (u * s) @ v.conj().T


class TestTruncateSpectrum:
    def test_no_truncation(self):
        keep, err = truncate_spectrum(np.array([3.0, 2.0, 1.0]))
        assert keep == 3 and err == 0.0

    def test_rank_truncation_error(self):
        s = np.array([2.0, 1.0, 1.0])
        keep, err = truncate_spectrum(s, rank=1)
        assert keep == 1
        assert err == pytest.approx(np.sqrt(2.0 / 6.0))

    def test_rank_above_the_spectrum_keeps_it_all(self):
        keep, err = truncate_spectrum(np.array([1.0, 0.9, 0.8, 1e-9]), rank=10)
        assert keep == 4 and err == 0.0

    def test_keeps_at_least_one(self):
        keep, _ = truncate_spectrum(np.array([1.0, 0.1]), rank=0)
        assert keep == 1

    def test_empty_and_zero_spectra(self):
        assert truncate_spectrum(np.array([])) == (0, 0.0)
        keep, err = truncate_spectrum(np.zeros(3), rank=2)
        assert keep >= 1 and err == 0.0
        assert truncate_spectrum(np.zeros(3)) == (3, 0.0)


class TestTruncatedSVD:
    def test_exact_reconstruction_full_rank(self, backend, rng):
        a = random_complex(rng, (6, 4))
        result = truncated_svd(backend, backend.astensor(a))
        rec = (backend.asarray(result.u) * result.s) @ backend.asarray(result.vh)
        assert np.allclose(rec, a)
        assert result.truncation_error == pytest.approx(0.0, abs=1e-12)

    def test_rank_truncation_is_best_approximation(self, numpy_backend, rng):
        a = low_rank_matrix(rng, 12, 10, 6)
        result = truncated_svd(numpy_backend, a, rank=3)
        rec = (result.u * result.s) @ result.vh
        s = np.linalg.svd(a, compute_uv=False)
        expected_err = np.sqrt(np.sum(s[3:] ** 2))
        assert np.linalg.norm(a - rec) == pytest.approx(expected_err, rel=1e-8)
        assert result.rank == 3

    def test_factors_are_isometric(self, numpy_backend, rng):
        a = random_complex(rng, (8, 5))
        result = truncated_svd(numpy_backend, a, rank=3)
        u = result.u
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-12)


class TestDenseSVDRoute:
    """``dense_svd`` QR-reduces the long side only when ``rank`` is below the
    short side and the long side is at least four times the short one."""

    @pytest.fixture
    def routed(self, monkeypatch):
        """Shapes of the matrices that took the QR-reduced route."""
        calls = []
        original = interface._qr_svd

        def spy(array, rank):
            calls.append(array.shape)
            return original(array, rank)

        monkeypatch.setattr(interface, "_qr_svd", spy)
        return calls

    @pytest.fixture
    def lapack_names(self, monkeypatch):
        """Every LAPACK routine name the kernels look up."""
        names = []
        original = interface._lapack

        def spy(dtype, *wanted):
            names.extend(wanted)
            return original(dtype, *wanted)

        monkeypatch.setattr(interface, "_lapack", spy)
        return names

    @pytest.mark.parametrize(
        "shape, rank, expected",
        [
            ((81, 729), 9, True),
            ((192, 16), 12, True),
            ((6, 12), 3, False),
            ((192, 256), 12, False),
            ((81, 729), None, False),
            ((81, 729), 81, False),
            # the QR-reduced route's panel: geqrt from a short side of 64, geqrf below
            ((192, 3072), 12, "geqrt"),
            ((63, 252), 12, "geqrf"),
        ],
    )
    def test_route_selection(self, routed, lapack_names, rng, shape, rank, expected):
        a = random_complex(rng, shape)
        u, s, vh = dense_svd(a, rank=rank)
        assert bool(routed) == bool(expected)
        if expected in ("geqrt", "geqrf"):
            assert ("geqrt" in lapack_names) == (expected == "geqrt")
        k = min(shape) if rank is None else rank
        assert s.shape == (min(shape),)
        assert u.shape[1] >= k and vh.shape[0] >= k
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(s, s_ref, rtol=0, atol=1e-13 * s_ref[0])
        low_rank = (u[:, :k] * s[:k]) @ vh[:k]
        ref_u, _, ref_vh = np.linalg.svd(a, full_matrices=False)
        assert np.allclose(low_rank, (ref_u[:, :k] * s_ref[:k]) @ ref_vh[:k], atol=1e-12 * s_ref[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape, rank", [((81, 729), 9), ((6, 12), 3)])
    def test_non_finite_input_raises_on_both_routes(self, rng, shape, rank, bad):
        a = rng.standard_normal(shape)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            dense_svd(a, rank=rank)

    def test_truncated_svd_takes_the_route_and_charges_the_economy_svd(self, routed, rng):
        counter = FlopCounter()
        a = low_rank_matrix(rng, 8, 96, 6)
        result = truncated_svd(NumPyBackend(flop_counter=counter), a, rank=3)
        assert routed == [(8, 96)]
        assert counter.by_category() == {"svd": svd_flops(8, 96)}
        s = np.linalg.svd(a, compute_uv=False)
        assert result.truncation_error == pytest.approx(np.sqrt(np.sum(s[3:] ** 2) / np.sum(s**2)))
        rec = (result.u * result.s) @ result.vh
        assert np.linalg.norm(a - rec) == pytest.approx(np.sqrt(np.sum(s[3:] ** 2)))


class TestOrthogonalize:
    @pytest.mark.parametrize("method", ["qr", "gram"])
    def test_tensor_qr_reconstructs(self, backend, rng, method):
        t = backend.astensor(random_complex(rng, (4, 5, 3, 2)))
        q, r = tensor_qr(backend, t, 2, method=method)
        rec = backend.einsum("abk,kcd->abcd", q, r)
        assert np.allclose(backend.asarray(rec), backend.asarray(t))

    @pytest.mark.parametrize("method", ["qr", "gram"])
    def test_tensor_qr_isometry(self, numpy_backend, rng, method):
        t = random_complex(rng, (6, 4, 3))
        q, _ = tensor_qr(numpy_backend, t, 2, method=method)
        qm = q.reshape(24, -1)
        k = qm.shape[1]
        assert np.allclose(qm.conj().T @ qm, np.eye(k), atol=1e-10)

    def test_gram_matches_auto_on_distributed(self, dist_backend, rng):
        t = dist_backend.astensor(random_complex(rng, (6, 4, 3)))
        q_auto, r_auto = tensor_qr(dist_backend, t, 2, method="auto")
        rec = dist_backend.einsum("abk,kc->abc", q_auto, r_auto)
        assert np.allclose(dist_backend.asarray(rec), dist_backend.asarray(t))

    def test_gram_rank_deficient_input(self, numpy_backend, rng):
        # A rank-1 operator: the Gram matrix is singular but QR must still
        # reproduce the tensor.
        u = random_complex(rng, (8,))
        v = random_complex(rng, (4,))
        t = np.outer(u, v).reshape(8, 2, 2)
        q, r = tensor_qr(numpy_backend, t, 1, method="gram")
        rec = np.einsum("ak,kbc->abc", q, r)
        assert np.allclose(rec, t, atol=1e-10)

    def test_orthogonalize_helpers(self, numpy_backend, rng):
        t = random_complex(rng, (10, 3))
        for method in ("qr", "gram"):
            q = tensor_qr(numpy_backend, t, 1, method=method)[0]
            assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-10)

    def test_invalid_split_raises(self, numpy_backend, rng):
        t = random_complex(rng, (3, 3))
        with pytest.raises(ValueError):
            tensor_qr(numpy_backend, t, 0)
        with pytest.raises(ValueError):
            tensor_qr(numpy_backend, t, 2)
        with pytest.raises(ValueError):
            tensor_qr(numpy_backend, t, 1, method="cholesky")


class TestImplicitOperators:
    def test_dense_operator_apply_matches_matrix(self, numpy_backend, rng):
        t = random_complex(rng, (3, 4, 5))  # rows (3,4), cols (5,)
        op = DenseTensorOperator(numpy_backend, t, 2)
        probe = random_complex(rng, (5, 2))
        out = op.apply(probe)
        ref = np.tensordot(t, probe, axes=([2], [0]))
        assert np.allclose(out, ref)
        adj = op.apply_adjoint(random_complex(rng, (3, 4, 2)))
        assert adj.shape == (5, 2)

    def test_dense_operator_adjoint_consistency(self, numpy_backend, rng):
        t = random_complex(rng, (4, 6))
        op = DenseTensorOperator(numpy_backend, t, 1)
        x = random_complex(rng, (6, 1))
        y = random_complex(rng, (4, 1))
        lhs = np.vdot(y[:, 0], op.apply(x)[:, 0])
        rhs = np.vdot(op.apply_adjoint(y)[:, 0], x[:, 0])
        assert lhs == pytest.approx(rhs)

    def test_network_operator_matches_materialized(self, backend, rng):
        spec = parse_einsumsvd("abc,cde->abk,kde")
        a = backend.astensor(random_complex(rng, (3, 4, 5)))
        b = backend.astensor(random_complex(rng, (5, 2, 6)))
        op = TensorNetworkOperator(backend, spec, [a, b])
        assert op.row_shape == (3, 4)
        assert op.col_shape == (2, 6)
        dense = backend.asarray(op.materialize())
        probe = backend.astensor(random_complex(rng, (2, 6, 3)))
        out = backend.asarray(op.apply(probe))
        ref = np.einsum("abde,dek->abk", dense, backend.asarray(probe))
        assert np.allclose(out, ref)
        probe_r = backend.astensor(random_complex(rng, (3, 4, 2)))
        out_adj = backend.asarray(op.apply_adjoint(probe_r))
        ref_adj = np.einsum("abde,abk->dek", dense.conj(), backend.asarray(probe_r))
        assert np.allclose(out_adj, ref_adj)

    def test_network_operator_conjugates_its_operands_once(self, backend, rng, monkeypatch):
        spec = parse_einsumsvd("abc,cde->abk,kde")
        a = backend.astensor(random_complex(rng, (3, 4, 5)))
        b = backend.astensor(random_complex(rng, (5, 2, 6)))
        op = TensorNetworkOperator(backend, spec, [a, b])
        probes = [backend.astensor(random_complex(rng, (3, 4, 2))) for _ in range(3)]
        first = [backend.asarray(op.apply_adjoint(p)) for p in probes]
        conjugated = []
        monkeypatch.setattr(backend, "conj", lambda t: conjugated.append(t) or t)
        again = [backend.asarray(op.apply_adjoint(p)) for p in probes]
        assert conjugated == []
        for x, y in zip(first, again, strict=True):
            assert np.array_equal(x, y)

    def test_operand_count_mismatch_raises(self, numpy_backend, rng):
        spec = parse_einsumsvd("abc,cde->abk,kde")
        with pytest.raises(ValueError):
            TensorNetworkOperator(numpy_backend, spec, [random_complex(rng, (3, 4, 5))])


class TestRandomizedSVD:
    @pytest.mark.parametrize("rank, oversample, max_rank, sketch", [
        (3, 2, 10, 5), (8, 2, 10, 10), (9, 4, 10, 10), (1, 0, 1, 1), (4, 0, 0, 1),
    ])
    def test_sketch_size_caps_rank_plus_oversample(self, rank, oversample, max_rank, sketch):
        assert sketch_size(rank, oversample, max_rank) == sketch

    def test_exact_recovery_of_low_rank_operator(self, backend, rng):
        a = low_rank_matrix(rng, 20, 15, 5)
        op = DenseTensorOperator(backend, backend.astensor(a), 1)
        result = randomized_svd(backend, op, rank=5, niter=2, oversample=4, rng=0)
        rec = backend.asarray(result.u) * result.s @ backend.asarray(result.vh)
        assert np.allclose(rec, a, atol=1e-10)

    def test_singular_values_match_exact(self, numpy_backend, rng):
        a = low_rank_matrix(rng, 30, 20, 8)
        op = DenseTensorOperator(numpy_backend, a, 1)
        result = randomized_svd(numpy_backend, op, rank=8, niter=3, oversample=4, rng=1)
        exact = np.linalg.svd(a, compute_uv=False)[:8]
        assert np.allclose(np.sort(result.s)[::-1], exact, rtol=1e-6)

    @pytest.mark.parametrize("orth_method", ["qr", "gram"])
    def test_orthogonalization_methods_agree(self, numpy_backend, rng, orth_method):
        a = low_rank_matrix(rng, 16, 12, 4)
        op = DenseTensorOperator(numpy_backend, a, 1)
        result = randomized_svd(numpy_backend, op, rank=4, niter=2, orth_method=orth_method, rng=2)
        rec = (result.u * result.s) @ result.vh
        assert np.allclose(rec, a, atol=1e-9)

    def test_truncation_below_numerical_rank(self, numpy_backend, rng):
        a = low_rank_matrix(rng, 20, 20, 10, decay=0.3)
        op = DenseTensorOperator(numpy_backend, a, 1)
        result = randomized_svd(numpy_backend, op, rank=4, niter=3, oversample=6, rng=3)
        exact = np.linalg.svd(a, compute_uv=False)
        best_err = np.sqrt(np.sum(exact[4:] ** 2))
        rec = (result.u * result.s) @ result.vh
        err = np.linalg.norm(a - rec)
        assert err <= 3.0 * best_err + 1e-12

    def test_rank_larger_than_operator_is_clamped(self, numpy_backend, rng):
        a = random_complex(rng, (4, 3))
        op = DenseTensorOperator(numpy_backend, a, 1)
        result = randomized_svd(numpy_backend, op, rank=10, niter=1, rng=0)
        assert result.rank <= 3

    def test_invalid_rank_raises(self, numpy_backend, rng):
        op = DenseTensorOperator(numpy_backend, random_complex(rng, (4, 4)), 1)
        with pytest.raises(ValueError):
            randomized_svd(numpy_backend, op, rank=0)

    @pytest.mark.parametrize("niter, oversample", [(-3, 0), (1, -5)])
    def test_negative_niter_or_oversample_raises(self, numpy_backend, rng, niter, oversample):
        op = DenseTensorOperator(numpy_backend, random_complex(rng, (4, 4)), 1)
        with pytest.raises(ValueError, match="non-negative"):
            randomized_svd(numpy_backend, op, rank=2, niter=niter, oversample=oversample)


    @pytest.mark.parametrize("niter, oversample", [(1.5, 0), (1, 2.7), ("2", 0)])
    def test_non_integer_niter_or_oversample_raises(self, numpy_backend, rng, niter, oversample):
        op = DenseTensorOperator(numpy_backend, random_complex(rng, (4, 4)), 1)
        with pytest.raises(TypeError, match="must be an integer"):
            randomized_svd(numpy_backend, op, rank=2, niter=niter, oversample=oversample)

def _reference_randomized_svd(backend, operator, rank, niter, oversample, seed):
    """Steps 1-3 of :func:`randomized_svd` verbatim, then ``np.linalg.svd`` of
    the wide sketch ``B = (A* P)^H`` and ``U = P U_tilde``."""
    rng = np.random.default_rng(seed)
    sketch = max(min(rank + oversample, operator.row_size, operator.col_size), 1)
    probe = backend.random_uniform(tuple(operator.col_shape) + (sketch,), -1.0, 1.0, rng=rng)
    p = _orth(backend, operator.apply(probe), "auto")
    for _ in range(niter):
        q = _orth(backend, operator.apply_adjoint(p), "auto")
        p = _orth(backend, operator.apply(q), "auto")
    apstar = backend.asarray(operator.apply_adjoint(p)).reshape(operator.col_size, -1)
    u_tilde, s, vh = np.linalg.svd(apstar.conj().T, full_matrices=False)
    keep, _ = truncate_spectrum(s, rank=min(rank, len(s)))
    p_mat = backend.asarray(p).reshape(operator.row_size, -1)
    return p_mat @ u_tilde[:, :keep], s, vh[:keep]


class TestAlgorithm4Conventions:
    """The probe stream and the sketch SVD's phase convention: what every
    seeded IBMPS golden depends on."""

    @pytest.mark.parametrize("shape", [(7,), (3, 4, 5)])
    def test_complex_probe_stream_is_pinned(self, backend, shape):
        ref_rng = np.random.default_rng(11)
        expected = ref_rng.uniform(-1.0, 1.0, shape) + 1j * ref_rng.uniform(-1.0, 1.0, shape)
        probe = backend.asarray(
            backend.random_uniform(shape, -1.0, 1.0, rng=np.random.default_rng(11))
        )
        assert probe.dtype == np.complex128 and probe.tobytes() == expected.tobytes()

    @FAST
    @given(
        seed=st.integers(0, 2**31 - 1),
        dims=st.tuples(*[st.integers(2, 6)] * 5),
        rank=st.integers(1, 6),
        niter=st.integers(0, 2),
        oversample=st.integers(0, 4),
    )
    def test_sketch_svd_keeps_the_wide_factorization_phases(
        self, seed, dims, rank, niter, oversample
    ):
        """Householder orthogonalisation only: Algorithm 5's Gram step can
        make ``B B^H`` diagonal to rounding, and then the phases of ``B``'s
        singular vectors are set by rounding on any LAPACK path."""
        backend = NumPyBackend()
        rng = np.random.default_rng(seed)
        a, b, c, d, e = dims
        operands = [random_complex(rng, (a, b, c)), random_complex(rng, (c, d, e))]
        op = TensorNetworkOperator(backend, parse_einsumsvd("abc,cde->abk,kde"), operands)
        ref_u, ref_s, ref_vh = _reference_randomized_svd(backend, op, rank, niter, oversample, seed)
        keep = len(ref_vh)
        # A sketch wider than the network's rank has zero singular values;
        # gesdd deflates them, and the kept vectors' signs then depend on
        # the LAPACK path.
        assume(ref_s[-1] > 1e-8 * ref_s[0])
        # vectors of a (near-)multiplet have no unique phase or rotation
        gaps = ref_s[:-1] > ref_s[1:] * (1 + 1e-8)
        assume(np.all(gaps[:keep]))

        result = randomized_svd(backend, op, rank=rank, niter=niter, oversample=oversample,
                                rng=np.random.default_rng(seed))
        assert result.rank == keep
        assert np.all(np.abs(result.s - ref_s[:keep]) <= 1e-12 * ref_s[0])
        u = result.u.reshape(op.row_size, keep)
        vh = result.vh.reshape(keep, op.col_size)
        assert np.max(np.abs(u - ref_u)) <= 1e-12
        assert np.max(np.abs(vh - ref_vh)) <= 1e-12

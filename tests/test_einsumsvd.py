"""Tests for the einsumsvd primitive (explicit and implicit implementations)."""

import numpy as np
import pytest

from repro.tensornetwork import (
    EinsumSVDOption,
    ExplicitSVD,
    ImplicitRandomizedSVD,
    einsumsvd,
)
from tests.conftest import random_complex


def reconstruct(backend, spec_out_a, spec_out_b, a, b, contracted):
    """Contract the two einsumsvd outputs back over the new bond."""
    return np.einsum(
        f"{spec_out_a},{spec_out_b}->{contracted}", backend.asarray(a), backend.asarray(b)
    )


class TestExplicitSVD:
    def test_full_rank_reproduces_contraction(self, backend, rng):
        a = backend.astensor(random_complex(rng, (3, 4, 5)))
        b = backend.astensor(random_complex(rng, (5, 6, 2)))
        x, y = einsumsvd("abc,cde->abk,kde", a, b, option=ExplicitSVD(), backend=backend)
        full = np.einsum("abc,cde->abde", backend.asarray(a), backend.asarray(b))
        rec = reconstruct(backend, "abk", "kde", x, y, "abde")
        assert np.allclose(rec, full)

    def test_rank_truncation_caps_bond(self, numpy_backend, rng):
        a = random_complex(rng, (3, 4, 5))
        b = random_complex(rng, (5, 6, 2))
        x, y = einsumsvd("abc,cde->abk,kde", a, b, option=ExplicitSVD(rank=4), backend=numpy_backend)
        assert x.shape == (3, 4, 4)
        assert y.shape == (4, 6, 2)

    def test_rank_kwarg_overrides_option(self, numpy_backend, rng):
        a = random_complex(rng, (3, 4, 5))
        b = random_complex(rng, (5, 6, 2))
        x, _ = einsumsvd("abc,cde->abk,kde", a, b, option=ExplicitSVD(rank=10), rank=2,
                         backend=numpy_backend)
        assert x.shape[-1] == 2

    def test_truncation_is_optimal_for_the_merged_tensor(self, numpy_backend, rng):
        a = random_complex(rng, (2, 3, 4))
        b = random_complex(rng, (4, 3, 2))
        full = np.einsum("abc,cde->abde", a, b)
        matrix = full.reshape(6, 6)
        s = np.linalg.svd(matrix, compute_uv=False)
        x, y = einsumsvd("abc,cde->abk,kde", a, b, option=ExplicitSVD(rank=2), backend=numpy_backend)
        rec = reconstruct(numpy_backend, "abk", "kde", x, y, "abde")
        best = np.sqrt(np.sum(s[2:] ** 2))
        assert np.linalg.norm(full - rec) == pytest.approx(best, rel=1e-8)

    def test_output_index_order_respected(self, numpy_backend, rng):
        a = random_complex(rng, (3, 4, 5))
        b = random_complex(rng, (5, 6, 2))
        x, y = einsumsvd("abc,cde->kba,dek", a, b, backend=numpy_backend)
        assert x.shape[1:] == (4, 3)
        assert y.shape[:2] == (6, 2)
        rec = np.einsum("kba,dek->abde", x, y)
        full = np.einsum("abc,cde->abde", a, b)
        assert np.allclose(rec, full)

    def test_return_spectrum(self, numpy_backend, rng):
        a = random_complex(rng, (3, 4, 5))
        b = random_complex(rng, (5, 6, 2))
        x, y, s = einsumsvd("abc,cde->abk,kde", a, b, backend=numpy_backend, return_spectrum=True)
        full = np.einsum("abc,cde->abde", a, b).reshape(12, 12)
        exact = np.linalg.svd(full, compute_uv=False)
        assert np.allclose(s, exact, rtol=1e-10)

    def test_three_operand_network(self, numpy_backend, rng):
        g = random_complex(rng, (2, 2, 2, 2))
        ra = random_complex(rng, (3, 2, 4))
        rb = random_complex(rng, (3, 2, 4))
        x, y = einsumsvd("xyjg,sjk,tgk->sxz,zty", g, ra, rb, backend=numpy_backend)
        full = np.einsum("xyjg,sjk,tgk->sxty", g, ra, rb)
        rec = np.einsum("sxz,zty->sxty", x, y)
        assert np.allclose(rec, full)

    def test_real_input_gives_real_factors(self, backend, rng):
        """Real operands keep real factors: the spectrum is multiplied in as
        real numbers.  (The implicit flavour still returns complex factors,
        because its random probe is complex; ROADMAP item 8.)"""
        x = backend.astensor(rng.standard_normal((4, 5)))
        y = backend.astensor(rng.standard_normal((5, 6)))
        a, b = einsumsvd("ab,bc->ak,kc", x, y, option=ExplicitSVD(rank=2), backend=backend)
        assert backend.asarray(a).dtype == np.float64
        assert backend.asarray(b).dtype == np.float64


def low_rank_pair(rng):
    """Two tensors whose ``abc,cde->abde`` contraction (12 x 8) has rank 3."""
    u = random_complex(rng, (12, 3))
    v = random_complex(rng, (3, 8))
    return u.reshape(3, 4, 3), v.reshape(3, 4, 2)


def assert_same_factors(backend, got, want):
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(backend.asarray(g), backend.asarray(w))


class TestImplicitRandomizedSVD:
    def test_full_rank_reproduces_contraction(self, backend, rng, randomized_svd_calls):
        a = backend.astensor(random_complex(rng, (3, 4, 5)))
        b = backend.astensor(random_complex(rng, (5, 6, 2)))
        option = ImplicitRandomizedSVD(rank=12, niter=2, oversample=4, seed=0)
        x, y = einsumsvd("abc,cde->abk,kde", a, b, option=option, backend=backend)
        full = np.einsum("abc,cde->abde", backend.asarray(a), backend.asarray(b))
        rec = reconstruct(backend, "abk", "kde", x, y, "abde")
        assert np.allclose(rec, full, atol=1e-9)
        # A sketch of 16 covers the 12 x 12 operator: the explicit route ran.
        assert randomized_svd_calls == []

    @pytest.mark.parametrize("rank, oversample", [(7, 1), (6, 6), (None, 0)])
    def test_sketch_covering_the_short_side_is_the_explicit_svd(
        self, backend, rng, randomized_svd_calls, rank, oversample
    ):
        # "abc,cde->abk,kde" on these shapes is a 12 x 8 operator.
        a = backend.astensor(random_complex(rng, (3, 4, 5)))
        b = backend.astensor(random_complex(rng, (5, 4, 2)))
        option = ImplicitRandomizedSVD(rank=rank, oversample=oversample, seed=0)
        implicit = einsumsvd("abc,cde->abk,kde", a, b, option=option, backend=backend,
                             return_spectrum=True)
        explicit = einsumsvd("abc,cde->abk,kde", a, b, backend=backend, return_spectrum=True,
                             option=ExplicitSVD(rank=rank))
        assert_same_factors(backend, implicit[:2], explicit[:2])
        assert np.array_equal(implicit[2], explicit[2])
        assert randomized_svd_calls == []

    def test_narrower_sketch_runs_algorithm_4(self, backend, rng, randomized_svd_calls):
        # rank + oversample = 7 < min(12, 8): one column short of covering.
        a = backend.astensor(random_complex(rng, (3, 4, 5)))
        b = backend.astensor(random_complex(rng, (5, 4, 2)))
        option = ImplicitRandomizedSVD(rank=6, oversample=1, seed=0)
        x, y = einsumsvd("abc,cde->abk,kde", a, b, option=option, backend=backend)
        assert randomized_svd_calls == [6]
        assert backend.shape(x) == (3, 4, 6)

    def test_matches_explicit_on_low_rank_input(self, numpy_backend, rng, randomized_svd_calls):
        a, b = low_rank_pair(rng)
        explicit = einsumsvd("abc,cde->abk,kde", a, b, option=ExplicitSVD(rank=3),
                             backend=numpy_backend)
        implicit = einsumsvd("abc,cde->abk,kde", a, b,
                             option=ImplicitRandomizedSVD(rank=3, niter=3, oversample=3, seed=1),
                             backend=numpy_backend)
        assert randomized_svd_calls == [3]
        rec_e = np.einsum("abk,kde->abde", *explicit)
        rec_i = np.einsum("abk,kde->abde", *implicit)
        assert np.allclose(rec_e, rec_i, atol=1e-8)

    def test_seed_reproducibility(self, numpy_backend, rng):
        a = random_complex(rng, (3, 4, 5))
        b = random_complex(rng, (5, 6, 2))
        opt = ImplicitRandomizedSVD(rank=4, seed=42)
        x1, y1 = einsumsvd("abc,cde->abk,kde", a, b, option=opt, backend=numpy_backend)
        x2, y2 = einsumsvd("abc,cde->abk,kde", a, b,
                           option=ImplicitRandomizedSVD(rank=4, seed=42), backend=numpy_backend)
        assert np.allclose(x1, x2)
        assert np.allclose(y1, y2)

    def test_default_rank_is_full(self, numpy_backend, rng, randomized_svd_calls):
        a = random_complex(rng, (2, 3, 4))
        b = random_complex(rng, (4, 3, 2))
        x, y = einsumsvd("abc,cde->abk,kde", a, b,
                         option=ImplicitRandomizedSVD(niter=2, seed=0), backend=numpy_backend)
        rec = np.einsum("abk,kde->abde", x, y)
        full = np.einsum("abc,cde->abde", a, b)
        assert np.allclose(rec, full, atol=1e-9)
        # rank=None keeps everything: the explicit route, whatever the sketch.
        assert randomized_svd_calls == []
        assert_same_factors(numpy_backend, (x, y), einsumsvd(
            "abc,cde->abk,kde", a, b, option=ExplicitSVD(), backend=numpy_backend
        ))

    def test_gram_orthogonalization_variant(self, dist_backend, rng, randomized_svd_calls):
        # Rank 3 through a sketch of 5 < min(12, 8): Algorithm 4 with
        # Algorithm 5's Gram QR recovers the whole operator.
        a, b = (dist_backend.astensor(t) for t in low_rank_pair(rng))
        option = ImplicitRandomizedSVD(rank=3, niter=2, oversample=2, seed=0, orth_method="gram")
        x, y = einsumsvd("abc,cde->abk,kde", a, b, option=option, backend=dist_backend)
        assert randomized_svd_calls == [3]
        full = np.einsum("abc,cde->abde", dist_backend.asarray(a), dist_backend.asarray(b))
        rec = np.einsum("abk,kde->abde", dist_backend.asarray(x), dist_backend.asarray(y))
        assert np.allclose(rec, full, atol=1e-8)


class TestOptionObjects:
    def test_base_option_default_is_explicit_path(self, numpy_backend, rng):
        a = random_complex(rng, (2, 3, 4))
        b = random_complex(rng, (4, 2, 2))
        x, y = einsumsvd("abc,cde->abk,kde", a, b, option=EinsumSVDOption(), backend=numpy_backend)
        full = np.einsum("abc,cde->abde", a, b)
        assert np.allclose(np.einsum("abk,kde->abde", x, y), full)

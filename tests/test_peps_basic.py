"""Tests for PEPS construction, indexing, amplitudes and dense conversion."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import peps
from repro.peps import BMPS, Exact, PEPS
from repro.peps.peps import _gaussian_site, random_peps, random_single_layer_grid
from repro.tensornetwork import ExplicitSVD
from tests.conftest import FAST, random_complex


def old_site(rng, shape):
    """The site expression the generators used before drawing into one array."""
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    data /= np.sqrt(np.prod(shape))
    return data


class TestGaussianSites:
    @FAST
    @given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_a_site_is_bitwise_the_old_expression(self, shape, seed):
        new = _gaussian_site(np.random.default_rng(seed), tuple(shape))
        old = old_site(np.random.default_rng(seed), tuple(shape))
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()

    @FAST
    @given(nrow=st.integers(1, 4), ncol=st.integers(1, 4), bond=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_random_states_draw_the_old_sites(self, nrow, ncol, bond, seed):
        state = random_peps(nrow, ncol, bond_dim=bond, phys_dim=3, seed=seed)
        grid = random_single_layer_grid(nrow, ncol, bond_dim=bond, seed=seed)
        for tensors, phys in ((state.grid, (3,)), (grid, ())):
            rng = np.random.default_rng(seed)
            for row in tensors:
                for site in row:
                    assert site.tobytes() == old_site(rng, phys + site.shape[len(phys):]).tobytes()


class TestConstruction:
    def test_computational_zeros_amplitudes(self, backend):
        q = peps.computational_zeros(2, 3, backend=backend)
        assert q.nrow == 2 and q.ncol == 3
        assert q.n_sites == 6
        assert q.amplitude([0] * 6) == pytest.approx(1.0)
        assert q.amplitude([1, 0, 0, 0, 0, 0]) == pytest.approx(0.0)

    def test_computational_basis(self):
        bits = [1, 0, 1, 1, 0, 0]
        q = peps.computational_basis(bits, 2, 3)
        assert q.amplitude(bits) == pytest.approx(1.0)
        sv = q.to_statevector()
        assert np.sum(np.abs(sv)) == pytest.approx(1.0)

    def test_product_state(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        q = peps.product_state([plus] * 4, 2, 2)
        for bits in ([0, 0, 0, 0], [1, 0, 1, 1]):
            assert q.amplitude(bits) == pytest.approx(0.25)

    def test_product_state_wrong_count_raises(self):
        with pytest.raises(ValueError):
            peps.product_state([[1, 0]] * 3, 2, 2)

    def test_random_peps_properties(self):
        q = random_peps(3, 3, bond_dim=3, seed=0)
        assert q.max_bond_dimension() == 3
        assert len(q.bond_dimensions()) == 12
        q2 = random_peps(3, 3, bond_dim=3, seed=0)
        assert np.allclose(q.to_statevector(), q2.to_statevector())

    def test_random_single_layer_grid_shapes(self, numpy_backend):
        grid = random_single_layer_grid(3, 4, bond_dim=2, seed=1)
        assert len(grid) == 3 and len(grid[0]) == 4
        assert numpy_backend.shape(grid[0][0]) == (1, 1, 2, 2)
        assert numpy_backend.shape(grid[1][1]) == (2, 2, 2, 2)

    def test_grid_validation(self, numpy_backend, rng):
        good = peps.computational_zeros(2, 2).grid
        bad = [[t for t in row] for row in good]
        bad[0][0] = random_complex(rng, (2, 2, 1, 1, 1))  # top edge leg must be 1
        with pytest.raises(ValueError):
            PEPS(bad)
        bad = [[t for t in row] for row in good]
        bad[0][0] = random_complex(rng, (2, 1, 1, 1, 3))  # bond mismatch with right
        with pytest.raises(ValueError):
            PEPS(bad)
        with pytest.raises(ValueError):
            PEPS([])
        with pytest.raises(ValueError):
            PEPS([good[0], good[1][:1]])


class TestIndexing:
    def test_site_position(self):
        q = peps.computational_zeros(3, 4)
        for site in range(12):
            assert q.site_position(site) == divmod(site, 4)
        with pytest.raises(ValueError):
            q.site_position(12)

    def test_getitem_setitem(self, numpy_backend):
        q = peps.computational_zeros(2, 2)
        t = q[0, 1]
        assert numpy_backend.shape(t)[0] == 2
        q[0, 1] = t * 2.0
        assert np.allclose(numpy_backend.asarray(q[0, 1]), 2.0 * numpy_backend.asarray(t))

    def test_copy_is_independent(self):
        q = peps.computational_zeros(2, 2)
        c = q.copy()
        c.grid[0][0] = c.grid[0][0] * 0.0
        assert q.amplitude([0, 0, 0, 0]) == pytest.approx(1.0)

    def test_scale(self):
        q = peps.computational_zeros(2, 2).scale(3.0)
        assert q.amplitude([0, 0, 0, 0]) == pytest.approx(3.0)


class TestAmplitudesAndNorm:
    def test_amplitude_options_agree(self, rng):
        q = random_peps(3, 3, bond_dim=2, seed=5)
        bits = [int(b) for b in rng.integers(0, 2, 9)]
        exact = q.amplitude(bits, Exact())
        bmps = q.amplitude(bits, BMPS(ExplicitSVD(rank=16)))
        assert bmps == pytest.approx(exact, rel=1e-8)

    def test_amplitude_matches_statevector(self, rng):
        q = random_peps(2, 3, bond_dim=2, seed=3)
        sv = q.to_statevector()
        for _ in range(4):
            bits = [int(b) for b in rng.integers(0, 2, 6)]
            index = int("".join(map(str, bits)), 2)
            assert q.amplitude(bits, Exact()) == pytest.approx(sv[index])

    def test_amplitude_validation(self):
        q = peps.computational_zeros(2, 2)
        with pytest.raises(ValueError):
            q.amplitude([0, 0, 0])
        with pytest.raises(ValueError):
            q.amplitude([0, 0, 0, 5])

    def test_norm_of_basis_state_is_one(self, backend):
        q = peps.computational_zeros(2, 2, backend=backend)
        assert q.norm(Exact()) == pytest.approx(1.0)
        assert q.norm(BMPS(ExplicitSVD(rank=8))) == pytest.approx(1.0)

    def test_norm_matches_statevector(self):
        q = random_peps(2, 3, bond_dim=2, seed=9)
        sv = q.to_statevector()
        assert q.norm(Exact()) == pytest.approx(np.linalg.norm(sv), rel=1e-8)
        assert q.norm(BMPS(ExplicitSVD(rank=32))) == pytest.approx(
            np.linalg.norm(sv), rel=1e-6
        )

    def test_inner_matches_statevector(self):
        a = random_peps(2, 2, bond_dim=2, seed=1)
        b = random_peps(2, 2, bond_dim=2, seed=2)
        ref = np.vdot(a.to_statevector(), b.to_statevector())
        assert a.inner(b, Exact()) == pytest.approx(ref, rel=1e-8)
        assert a.inner(b, BMPS(ExplicitSVD(rank=16))) == pytest.approx(ref, rel=1e-6)

    def test_inner_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            peps.computational_zeros(2, 2).inner(peps.computational_zeros(2, 3))

    def test_normalize(self):
        q = random_peps(2, 2, bond_dim=2, seed=4)
        n = q.normalize()
        assert n.norm(Exact()) == pytest.approx(1.0, rel=1e-8)

    def test_to_statevector_size_guard(self):
        with pytest.raises(ValueError):
            random_peps(5, 5, bond_dim=1).to_statevector()

    def test_repr(self):
        assert "PEPS" in repr(peps.computational_zeros(2, 2))

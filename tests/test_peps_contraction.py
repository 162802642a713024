"""Tests for the PEPS contraction algorithms: Exact, BMPS, IBMPS, two-layer."""

import numpy as np
import pytest

from repro.peps import BMPS, Exact, TwoLayerBMPS
from repro.peps.contraction import (
    absorb_sandwich_row,
    close_boundaries,
    contract_inner_fused,
    contract_inner_two_layer,
    contract_single_layer,
    single_layer_boundary_sweep,
    trivial_boundary,
)
from repro.peps.contraction.two_layer import boundary_bond_dimensions
from repro.peps.peps import random_peps, random_single_layer_grid
from repro.tensornetwork import ExplicitSVD, ImplicitRandomizedSVD
from repro.tensornetwork.network import contract_network


def exact_single_layer_value(backend, grid):
    """Reference value of a single-layer grid via the generic network contractor."""
    operands, inputs = [], []
    nrow, ncol = len(grid), len(grid[0])
    for i in range(nrow):
        for j in range(ncol):
            operands.append(grid[i][j])
            inputs.append(((("v", i, j)), ("h", i, j), ("v", i + 1, j), ("h", i, j + 1)))
    result = contract_network(operands, inputs, (), backend=backend)
    return backend.item(result)


class TestOptionObjects:
    def test_bmps_option_resolution(self):
        opt = BMPS(ExplicitSVD(rank=8))
        assert opt.truncation_bond == 8
        assert not opt.is_implicit
        assert "BMPS" in opt.describe()

    def test_truncate_bond_override(self):
        opt = BMPS(ExplicitSVD(rank=8), truncate_bond=4)
        assert opt.truncation_bond == 4

    def test_implicit_flag_and_describe(self):
        opt = BMPS(ImplicitRandomizedSVD(rank=6))
        assert opt.is_implicit
        assert "IBMPS" in opt.describe()
        two = TwoLayerBMPS(ImplicitRandomizedSVD(rank=6))
        assert "2-layer" in two.describe()
        assert Exact().describe() == "Exact"


class TestSingleLayerContraction:
    def test_exact_matches_reference(self, backend):
        grid = random_single_layer_grid(3, 3, bond_dim=2, seed=0, backend=backend)
        ref = exact_single_layer_value(backend, grid)
        value = contract_single_layer(grid, Exact(), backend=backend)
        assert value == pytest.approx(ref, rel=1e-10)

    def test_bmps_converges_with_bond(self, numpy_backend):
        grid = random_single_layer_grid(4, 4, bond_dim=3, seed=1)
        ref = exact_single_layer_value(numpy_backend, grid)
        errors = []
        for m in (1, 3, 9, 27):
            value = contract_single_layer(grid, BMPS(ExplicitSVD(rank=m)), backend=numpy_backend)
            errors.append(abs(value - ref) / abs(ref))
        assert errors[-1] < 1e-10
        assert errors[-1] <= errors[0]

    def test_ibmps_matches_bmps_at_full_rank(self, numpy_backend):
        grid = random_single_layer_grid(4, 4, bond_dim=2, seed=2)
        ref = exact_single_layer_value(numpy_backend, grid)
        value = contract_single_layer(
            grid,
            BMPS(ImplicitRandomizedSVD(rank=16, niter=2, oversample=4, seed=0)),
            backend=numpy_backend,
        )
        assert value == pytest.approx(ref, rel=1e-8)

    def test_single_row_and_single_column(self, numpy_backend):
        row_grid = random_single_layer_grid(1, 4, bond_dim=3, seed=3)
        ref = exact_single_layer_value(numpy_backend, row_grid)
        assert contract_single_layer(row_grid, Exact()) == pytest.approx(ref)
        col_grid = random_single_layer_grid(4, 1, bond_dim=3, seed=4)
        ref = exact_single_layer_value(numpy_backend, col_grid)
        assert contract_single_layer(col_grid, Exact()) == pytest.approx(ref)

    def test_boundary_sweep_bond_capped(self, numpy_backend):
        grid = random_single_layer_grid(4, 4, bond_dim=3, seed=5)
        boundary = single_layer_boundary_sweep(grid, BMPS(ExplicitSVD(rank=4)), numpy_backend)
        assert boundary.max_bond_dimension() <= 4

    def test_exact_sweep_bond_grows_multiplicatively(self, numpy_backend):
        grid = random_single_layer_grid(3, 4, bond_dim=2, seed=6)
        boundary = single_layer_boundary_sweep(grid, Exact(), numpy_backend)
        # Row 0 starts with bond 2; absorbing rows 1 and 2 multiplies by 2 each.
        assert boundary.max_bond_dimension() == 8

    def test_unsupported_option_raises(self, numpy_backend):
        grid = random_single_layer_grid(2, 2, bond_dim=2, seed=7)
        with pytest.raises(TypeError):
            contract_single_layer(grid, option="bad", backend=numpy_backend)

    def test_empty_grid_raises(self, numpy_backend):
        with pytest.raises(ValueError):
            contract_single_layer([], Exact(), backend=numpy_backend)


class TestTwoLayerContraction:
    def test_inner_product_agreement_between_all_algorithms(self):
        a = random_peps(3, 3, bond_dim=2, seed=10)
        b = random_peps(3, 3, bond_dim=2, seed=11)
        ref = np.vdot(a.to_statevector(), b.to_statevector())
        fused_exact = contract_inner_fused(a.grid, b.grid, Exact(), a.backend)
        fused_bmps = contract_inner_fused(a.grid, b.grid, BMPS(ExplicitSVD(rank=16)), a.backend)
        two_layer = contract_inner_two_layer(a.grid, b.grid, TwoLayerBMPS(ExplicitSVD(rank=16)), a.backend)
        two_layer_implicit = contract_inner_two_layer(
            a.grid, b.grid,
            TwoLayerBMPS(ImplicitRandomizedSVD(rank=16, niter=2, oversample=4, seed=0)),
            a.backend,
        )
        assert fused_exact == pytest.approx(ref, rel=1e-8)
        assert fused_bmps == pytest.approx(ref, rel=1e-6)
        assert two_layer == pytest.approx(ref, rel=1e-6)
        assert two_layer_implicit == pytest.approx(ref, rel=1e-5)

    def test_two_layer_exact_option(self):
        a = random_peps(2, 3, bond_dim=2, seed=12)
        ref = np.linalg.norm(a.to_statevector()) ** 2
        value = contract_inner_two_layer(a.grid, a.grid, Exact(), a.backend)
        assert value == pytest.approx(ref, rel=1e-8)

    def test_norm_is_real_positive(self):
        a = random_peps(3, 3, bond_dim=2, seed=13)
        value = contract_inner_two_layer(
            a.grid, a.grid, TwoLayerBMPS(ExplicitSVD(rank=8)), a.backend
        )
        assert abs(np.imag(value)) < 1e-8 * abs(value)
        assert np.real(value) > 0

    def test_boundary_bond_truncation(self):
        a = random_peps(3, 4, bond_dim=2, seed=14)
        backend = a.backend
        boundary = trivial_boundary(backend, 4)
        svd_option = ExplicitSVD(rank=8).with_rank(3)
        for i in range(3):
            boundary = absorb_sandwich_row(
                boundary, a.grid[i], a.grid[i], option=svd_option, backend=backend
            )
            assert max(boundary_bond_dimensions(backend, boundary)) <= 3

    def test_absorb_exact_bond_growth(self):
        a = random_peps(2, 3, bond_dim=2, seed=15)
        backend = a.backend
        boundary = trivial_boundary(backend, 3)
        boundary = absorb_sandwich_row(boundary, a.grid[0], a.grid[0], option=None, backend=backend)
        assert max(boundary_bond_dimensions(backend, boundary)) == 4  # 2 (ket) x 2 (bra)

    def test_close_boundaries_width_mismatch(self, numpy_backend):
        with pytest.raises(ValueError):
            close_boundaries(numpy_backend, trivial_boundary(numpy_backend, 2),
                             trivial_boundary(numpy_backend, 3))

    def test_absorb_row_width_mismatch(self, numpy_backend):
        a = random_peps(2, 3, bond_dim=2, seed=16)
        with pytest.raises(ValueError):
            absorb_sandwich_row(trivial_boundary(numpy_backend, 2), a.grid[0], a.grid[0],
                                backend=numpy_backend)

    def test_grid_shape_mismatch_raises(self, numpy_backend):
        a = random_peps(2, 2, bond_dim=2, seed=17)
        b = random_peps(2, 3, bond_dim=2, seed=18)
        with pytest.raises(ValueError):
            contract_inner_two_layer(a.grid, b.grid, TwoLayerBMPS(ExplicitSVD(rank=4)),
                                     numpy_backend)
        with pytest.raises(ValueError):
            contract_inner_fused(a.grid, b.grid, Exact(), numpy_backend)

    def test_distributed_backend_two_layer(self, dist_backend):
        a = random_peps(2, 2, bond_dim=2, seed=19, backend=dist_backend)
        sv_norm = np.linalg.norm(a.to_statevector()) ** 2
        value = contract_inner_two_layer(
            a.grid, a.grid, TwoLayerBMPS(ExplicitSVD(rank=8)), dist_backend
        )
        assert np.real(value) == pytest.approx(sv_norm, rel=1e-8)


class TestAccuracyVsBondDimension:
    def test_truncation_error_decreases_with_m(self):
        """Smaller contraction bond -> larger error (the Fig. 10 qualitative shape)."""
        a = random_peps(3, 3, bond_dim=3, seed=20)
        ref = np.linalg.norm(a.to_statevector()) ** 2
        errors = []
        for m in (1, 2, 4, 16):
            value = contract_inner_two_layer(
                a.grid, a.grid, TwoLayerBMPS(ExplicitSVD(rank=m)), a.backend
            )
            errors.append(abs(value - ref) / ref)
        assert errors[-1] < 1e-8
        assert errors[0] >= errors[-1]

    def test_ibmps_adds_no_error_over_bmps_at_same_bond(self):
        """The paper's claim: implicit randomized SVD does not hurt accuracy."""
        a = random_peps(3, 3, bond_dim=2, seed=21)
        ref = np.linalg.norm(a.to_statevector()) ** 2
        m = 8
        bmps_err = abs(
            contract_inner_two_layer(a.grid, a.grid, TwoLayerBMPS(ExplicitSVD(rank=m)), a.backend)
            - ref
        ) / ref
        ibmps_err = abs(
            contract_inner_two_layer(
                a.grid, a.grid,
                TwoLayerBMPS(ImplicitRandomizedSVD(rank=m, niter=2, oversample=4, seed=1)),
                a.backend,
            )
            - ref
        ) / ref
        assert ibmps_err < 10 * max(bmps_err, 1e-12) + 1e-6

"""Tests for the PEPS contraction algorithms: Exact, BMPS, IBMPS, two-layer."""

import numpy as np
import pytest

from repro.peps import BMPS, PEPS, Exact
from repro.peps.contraction import (
    absorb_sandwich_row,
    close_boundaries,
    contract_single_layer,
    trivial_boundary,
)
from repro.peps.peps import random_peps, random_single_layer_grid
from repro.tensornetwork import ExplicitSVD, ImplicitRandomizedSVD
from tests.conftest import exact_single_layer_value, random_complex

#: Options that contract a small single-layer grid at full rank: the
#: zip-up then reproduces the exact value with either ``einsumsvd``.  At
#: ``rank=None`` every implicit sketch covers its operator's short side, so
#: the implicit zip-up is the explicit one and never runs Algorithm 4.
FULL_RANK = {
    "exact": Exact(),
    "explicit": BMPS(ExplicitSVD()),
    "implicit": BMPS(ImplicitRandomizedSVD(niter=2, oversample=4, seed=0)),
}

EDGES = ("top", "left", "bottom", "right")


def widen_edge(grid, edge, first_leg=0):
    """A copy of ``grid`` whose legs on lattice edge ``edge`` have dimension 2.

    ``first_leg`` is the axis of the up leg: 0 for single-layer sites, 1 for
    PEPS sites (after the physical leg).
    """
    nrow, ncol = len(grid), len(grid[0])
    axis = first_leg + EDGES.index(edge)
    outer = {
        "top": lambda i, j: i == 0,
        "left": lambda i, j: j == 0,
        "bottom": lambda i, j: i == nrow - 1,
        "right": lambda i, j: j == ncol - 1,
    }[edge]
    return [
        [np.concatenate([t, t], axis=axis) if outer(i, j) else t for j, t in enumerate(row)]
        for i, row in enumerate(grid)
    ]


def absorb_single_layer_rows(grid, option):
    """Boundary after absorbing every row of a single-layer grid from the top."""
    boundary = [t.reshape(t.shape[1:]) for t in grid[0]]
    for row in grid[1:]:
        boundary = absorb_sandwich_row(boundary, row, None, option=option)
    return boundary


#: ``einsumsvd`` options of one row absorption: exact, and the zip-up at
#: full rank with either flavour (both the explicit SVD, see ``FULL_RANK``).
ABSORB = {
    "exact": None,
    "explicit": ExplicitSVD(),
    "implicit": ImplicitRandomizedSVD(niter=2, oversample=4, seed=0),
}


def random_boundary(rng, ncol, bond=2, phys=2):
    """A random single-layer boundary of ``(left, phys, right)`` tensors."""
    return [
        random_complex(rng, (1 if j == 0 else bond, phys, 1 if j == ncol - 1 else bond))
        for j in range(ncol)
    ]


def boundary_vector(backend, boundary):
    """The dense vector a single-layer boundary represents (columns row-major)."""
    env = np.ones((1, 1), dtype=np.complex128)
    for t in boundary:
        t = np.asarray(backend.asarray(t))
        env = np.einsum("Pa,apc->Ppc", env, t).reshape(-1, t.shape[2])
    return env[:, 0]


def row_operator(row):
    """The dense map from a single-layer row's up legs to its down legs."""
    op = np.ones((1, 1, 1), dtype=np.complex128)
    for t in row:
        op = np.einsum("DUa,uadr->DdUur", op, t)
        down, d, up, u, right = op.shape
        op = op.reshape(down * d, up * u, right)
    return op[:, :, 0]


class TestOptionObjects:
    def test_bmps_option_resolution(self):
        opt = BMPS(ExplicitSVD(rank=8))
        assert opt.truncation_bond == 8
        assert not opt.is_implicit
        assert "BMPS" in opt.describe()

    def test_implicit_flag_and_describe(self):
        opt = BMPS(ImplicitRandomizedSVD(rank=6))
        assert opt.is_implicit
        assert "IBMPS" in opt.describe()
        assert Exact().describe() == "Exact"


class TestSingleLayerContraction:
    @pytest.mark.parametrize("option", FULL_RANK.values(), ids=FULL_RANK.keys())
    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)], ids=["3x3", "2x4", "4x2"])
    def test_exact_matches_reference(self, backend, option, shape, randomized_svd_calls):
        grid = random_single_layer_grid(*shape, bond_dim=2, seed=0, backend=backend)
        ref = exact_single_layer_value(backend, grid)
        value = contract_single_layer(grid, option, backend=backend)
        assert value == pytest.approx(ref, rel=1e-10)
        assert randomized_svd_calls == []

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)], ids=["3x3", "2x4", "4x2"])
    def test_full_rank_ibmps_is_bmps(self, backend, shape):
        grid = random_single_layer_grid(*shape, bond_dim=2, seed=0, backend=backend)
        ibmps = contract_single_layer(grid, FULL_RANK["implicit"], backend=backend)
        assert ibmps == contract_single_layer(grid, FULL_RANK["explicit"], backend=backend)

    def test_bmps_converges_with_bond(self, numpy_backend):
        grid = random_single_layer_grid(4, 4, bond_dim=3, seed=1)
        ref = exact_single_layer_value(numpy_backend, grid)
        errors = []
        for m in (1, 3, 9, 27):
            value = contract_single_layer(grid, BMPS(ExplicitSVD(rank=m)), backend=numpy_backend)
            errors.append(abs(value - ref) / abs(ref))
        assert errors[-1] < 1e-10
        assert errors[-1] <= errors[0]

    @pytest.mark.parametrize("m", [4, 27])
    def test_ibmps_matches_bmps_at_full_rank(self, numpy_backend, m, randomized_svd_calls):
        """At full rank (27) IBMPS is BMPS: every sketch covers its operator's
        short side.  Truncated (4) it runs Algorithm 4 and is no worse than
        BMPS at the same bond, up to its randomized sketch."""
        grid = random_single_layer_grid(4, 4, bond_dim=3, seed=2)
        ref = exact_single_layer_value(numpy_backend, grid)
        bmps = contract_single_layer(grid, BMPS(ExplicitSVD(rank=m)), backend=numpy_backend)
        ibmps = contract_single_layer(
            grid,
            BMPS(ImplicitRandomizedSVD(rank=m, niter=2, oversample=4, seed=0)),
            backend=numpy_backend,
        )
        assert abs(ibmps - ref) <= 10 * abs(bmps - ref) + 1e-8 * abs(ref)
        if m == 27:
            assert ibmps == bmps and randomized_svd_calls == []
        else:
            assert randomized_svd_calls

    @pytest.mark.parametrize("option", FULL_RANK.values(), ids=FULL_RANK.keys())
    def test_single_row_and_single_column(self, backend, option):
        row_grid = random_single_layer_grid(1, 4, bond_dim=3, seed=3, backend=backend)
        ref = exact_single_layer_value(backend, row_grid)
        assert contract_single_layer(row_grid, option, backend) == pytest.approx(ref)
        col_grid = random_single_layer_grid(4, 1, bond_dim=3, seed=4, backend=backend)
        ref = exact_single_layer_value(backend, col_grid)
        assert contract_single_layer(col_grid, option, backend) == pytest.approx(ref)

    @pytest.mark.parametrize("svd", [ExplicitSVD(rank=4), ImplicitRandomizedSVD(rank=4, seed=0)],
                             ids=["explicit", "implicit"])
    def test_boundary_bond_capped(self, numpy_backend, svd):
        grid = random_single_layer_grid(4, 4, bond_dim=3, seed=5)
        boundary = absorb_single_layer_rows(grid, svd)
        assert max(numpy_backend.shape(t)[-1] for t in boundary[:-1]) <= 4

    def test_exact_absorption_bond_grows_multiplicatively(self, numpy_backend):
        grid = random_single_layer_grid(3, 4, bond_dim=2, seed=6)
        boundary = absorb_single_layer_rows(grid, None)
        # Row 0 starts with bond 2; absorbing rows 1 and 2 multiplies by 2 each.
        assert max(numpy_backend.shape(t)[-1] for t in boundary[:-1]) == 8

    @pytest.mark.parametrize("option", ABSORB.values(), ids=ABSORB.keys())
    def test_identity_row_leaves_boundary_unchanged(
        self, backend, rng, option, randomized_svd_calls
    ):
        boundary = [backend.astensor(t) for t in random_boundary(rng, 4)]
        row = [backend.astensor(np.eye(2).reshape(2, 1, 2, 1))] * 4
        out = absorb_sandwich_row(boundary, row, None, option=option, backend=backend)
        assert np.allclose(boundary_vector(backend, out), boundary_vector(backend, boundary))
        assert randomized_svd_calls == []

    @pytest.mark.parametrize("option", ABSORB.values(), ids=ABSORB.keys())
    @pytest.mark.parametrize("ncol", [1, 3])
    def test_row_absorption_matches_dense_operator(
        self, numpy_backend, rng, option, ncol, randomized_svd_calls
    ):
        boundary = random_boundary(rng, ncol)
        row = random_single_layer_grid(3, ncol, bond_dim=2, seed=9)[1]
        out = absorb_sandwich_row(boundary, row, None, option=option)
        ref = row_operator(row) @ boundary_vector(numpy_backend, boundary)
        assert np.allclose(boundary_vector(numpy_backend, out), ref, atol=1e-9)
        assert randomized_svd_calls == []

    @pytest.mark.parametrize(
        "svd",
        [ExplicitSVD(rank=3), ImplicitRandomizedSVD(rank=3, niter=3, oversample=2, seed=3)],
        ids=["explicit", "implicit"],
    )
    def test_truncated_absorption_close_to_exact_for_weak_coupling(
        self, numpy_backend, rng, svd, randomized_svd_calls
    ):
        # A row close to the identity barely grows the entanglement, so a
        # truncated zip-up should stay accurate.  The implicit sketch (5) is
        # narrower than the inner columns' 6 x 6 operators: Algorithm 4 runs.
        ncol = 5
        boundary = random_boundary(rng, ncol, bond=3)
        row = []
        for j in range(ncol):
            t = np.zeros((2, 1 if j == 0 else 2, 2, 1 if j == ncol - 1 else 2), dtype=np.complex128)
            t[:, 0, :, 0] = np.eye(2)
            row.append(t + 0.01 * random_complex(rng, t.shape))
        ref = boundary_vector(numpy_backend, absorb_sandwich_row(boundary, row, None))
        out = boundary_vector(numpy_backend, absorb_sandwich_row(boundary, row, None, option=svd))
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 0.05
        assert bool(randomized_svd_calls) == isinstance(svd, ImplicitRandomizedSVD)

    def test_implicit_and_explicit_agree_after_truncation(
        self, numpy_backend, rng, randomized_svd_calls
    ):
        # Six columns: the zip-up's operators grow to 8 x 8 inside the row,
        # wider than the sketch of 5, and the implicit zip-up runs Algorithm 4.
        boundary = random_boundary(rng, 6)
        row = random_single_layer_grid(3, 6, bond_dim=2, seed=10)[1]
        explicit = boundary_vector(
            numpy_backend, absorb_sandwich_row(boundary, row, None, option=ExplicitSVD(rank=4))
        )
        implicit = boundary_vector(
            numpy_backend,
            absorb_sandwich_row(
                boundary, row, None,
                option=ImplicitRandomizedSVD(rank=4, niter=3, oversample=1, seed=3),
            ),
        )
        assert randomized_svd_calls
        # Up to the randomized sketch, the dominant subspaces agree.
        overlap = abs(np.vdot(explicit, implicit))
        assert overlap / (np.linalg.norm(explicit) * np.linalg.norm(implicit)) > 0.99

    @pytest.mark.parametrize("option", FULL_RANK.values(), ids=FULL_RANK.keys())
    def test_product_grid_is_product_of_sites(self, backend, option, randomized_svd_calls):
        grid = random_single_layer_grid(3, 3, bond_dim=1, seed=11, backend=backend)
        ref = np.prod([backend.item(t) for row in grid for t in row])
        assert contract_single_layer(grid, option, backend) == pytest.approx(ref, rel=1e-10)
        assert randomized_svd_calls == []

    @pytest.mark.parametrize("option", [None, ExplicitSVD(rank=4)], ids=["exact", "zipup"])
    def test_absorb_row_width_mismatch(self, rng, option):
        row = random_single_layer_grid(3, 3, bond_dim=2, seed=12)[1]
        with pytest.raises(ValueError, match="row width mismatch"):
            absorb_sandwich_row(random_boundary(rng, 2), row, None, option=option)

    def test_unsupported_option_raises(self, numpy_backend):
        grid = random_single_layer_grid(2, 2, bond_dim=2, seed=7)
        with pytest.raises(TypeError):
            contract_single_layer(grid, option="bad", backend=numpy_backend)

    def test_empty_grid_raises(self, numpy_backend):
        with pytest.raises(ValueError):
            contract_single_layer([], Exact(), backend=numpy_backend)

    @pytest.mark.parametrize("edge", EDGES)
    def test_malformed_edge_raises(self, numpy_backend, edge):
        grid = widen_edge(random_single_layer_grid(2, 2, bond_dim=2, seed=8), edge)
        with pytest.raises(ValueError, match=f"{edge} edge leg must have dimension 1"):
            contract_single_layer(grid, Exact(), backend=numpy_backend)


class TestTwoLayerContraction:
    def test_inner_product_agreement_between_all_algorithms(self, randomized_svd_calls):
        a = random_peps(3, 3, bond_dim=2, seed=10)
        b = random_peps(3, 3, bond_dim=2, seed=11)
        ref = np.vdot(a.to_statevector(), b.to_statevector())
        exact = a.inner(b, Exact())
        bmps = a.inner(b, BMPS(ExplicitSVD(rank=16)))
        ibmps = a.inner(
            b, BMPS(ImplicitRandomizedSVD(rank=16, niter=2, oversample=4, seed=0))
        )
        assert exact == pytest.approx(ref, rel=1e-8)
        assert bmps == pytest.approx(ref, rel=1e-6)
        # Bond 16 keeps a 3x3 D=2 sandwich whole: every sketch covers its
        # operator's short side, and IBMPS is BMPS.
        assert ibmps == bmps and randomized_svd_calls == []

    def test_two_layer_exact_option(self):
        a = random_peps(2, 3, bond_dim=2, seed=12)
        ref = np.linalg.norm(a.to_statevector()) ** 2
        value = a.inner(a, Exact())
        assert value == pytest.approx(ref, rel=1e-8)

    def test_norm_is_real_positive(self):
        a = random_peps(3, 3, bond_dim=2, seed=13)
        value = a.inner(a, BMPS(ExplicitSVD(rank=8)))
        assert abs(np.imag(value)) < 1e-8 * abs(value)
        assert np.real(value) > 0

    def test_boundary_bond_truncation(self):
        a = random_peps(3, 4, bond_dim=2, seed=14)
        backend = a.backend
        boundary = trivial_boundary(backend, 4)
        svd_option = ExplicitSVD(rank=3)
        for i in range(3):
            boundary = absorb_sandwich_row(
                boundary, a.grid[i], a.grid[i], option=svd_option, backend=backend
            )
            assert max(backend.shape(t)[-1] for t in boundary[:-1]) <= 3

    def test_absorb_exact_bond_growth(self):
        a = random_peps(2, 3, bond_dim=2, seed=15)
        backend = a.backend
        boundary = trivial_boundary(backend, 3)
        boundary = absorb_sandwich_row(boundary, a.grid[0], a.grid[0], option=None, backend=backend)
        assert max(backend.shape(t)[-1] for t in boundary[:-1]) == 4  # 2 (ket) x 2 (bra)

    def test_close_boundaries_width_mismatch(self, numpy_backend):
        with pytest.raises(ValueError):
            close_boundaries(numpy_backend, trivial_boundary(numpy_backend, 2),
                             trivial_boundary(numpy_backend, 3))

    def test_absorb_row_width_mismatch(self, numpy_backend):
        a = random_peps(2, 3, bond_dim=2, seed=16)
        with pytest.raises(ValueError):
            absorb_sandwich_row(trivial_boundary(numpy_backend, 2), a.grid[0], a.grid[0],
                                backend=numpy_backend)

    def test_grid_shape_mismatch_raises(self):
        a = random_peps(2, 2, bond_dim=2, seed=17)
        b = random_peps(2, 3, bond_dim=2, seed=18)
        for option in (Exact(), BMPS(ExplicitSVD(rank=4))):
            with pytest.raises(ValueError, match="shape mismatch"):
                a.inner(b, option)

    @pytest.mark.parametrize("option", [Exact(), BMPS(ExplicitSVD(rank=4))],
                             ids=["exact", "bmps"])
    @pytest.mark.parametrize("edge", EDGES)
    def test_malformed_edge_raises(self, edge, option):
        """The PEPS constructor enforces the edge rule, and so does every inner
        product of a state widened after construction; NumPy's einsum would
        otherwise broadcast the extent-1 boundary legs and return a value."""
        state = random_peps(2, 2, bond_dim=2, seed=22)
        grid = widen_edge(state.grid, edge, first_leg=1)
        message = f"{edge} edge leg must have dimension 1"
        with pytest.raises(ValueError, match=message):
            PEPS(grid)
        other = random_peps(2, 2, bond_dim=2, seed=23)
        by_setitem, by_grid = state.copy(), state.copy()
        for i, row in enumerate(grid):
            for j, tensor in enumerate(row):
                by_setitem[(i, j)] = tensor
                by_grid.grid[i][j] = tensor
        for widened in (by_setitem, by_grid):
            for bra, ket in ((widened, widened), (other, widened), (widened, other)):
                with pytest.raises(ValueError, match=message):
                    bra.inner(ket, option)
            with pytest.raises(ValueError, match=message):
                widened.norm(option)

    def test_distributed_backend_two_layer(self, dist_backend):
        a = random_peps(2, 2, bond_dim=2, seed=19, backend=dist_backend)
        sv_norm = np.linalg.norm(a.to_statevector()) ** 2
        value = a.inner(a, BMPS(ExplicitSVD(rank=8)))
        assert np.real(value) == pytest.approx(sv_norm, rel=1e-8)


class TestAccuracyVsBondDimension:
    def test_truncation_error_decreases_with_m(self):
        """Smaller contraction bond -> larger error (the Fig. 10 qualitative shape)."""
        a = random_peps(3, 3, bond_dim=3, seed=20)
        ref = np.linalg.norm(a.to_statevector()) ** 2
        errors = []
        for m in (1, 2, 4, 16):
            value = a.inner(a, BMPS(ExplicitSVD(rank=m)))
            errors.append(abs(value - ref) / ref)
        assert errors[-1] < 1e-8
        assert errors[0] >= errors[-1]

    def test_ibmps_adds_no_error_over_bmps_at_same_bond(self, randomized_svd_calls):
        """The paper's claim: implicit randomized SVD does not hurt accuracy.

        Four columns: on three, every zip-up operator is at most 4 wide on
        one side and the sketch of 12 covers it (the explicit SVD runs)."""
        a = random_peps(3, 4, bond_dim=2, seed=21)
        ref = np.linalg.norm(a.to_statevector()) ** 2
        m = 8
        bmps_err = abs(a.inner(a, BMPS(ExplicitSVD(rank=m))) - ref) / ref
        ibmps_err = abs(
            a.inner(a, BMPS(ImplicitRandomizedSVD(rank=m, niter=2, oversample=4, seed=1)))
            - ref
        ) / ref
        assert randomized_svd_calls
        assert ibmps_err < 10 * max(bmps_err, 1e-12) + 1e-6

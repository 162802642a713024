"""Tests for the lattice/geometry layer (repro.lattice).

Covers Site/Bond semantics, the canonical bond enumeration (which every
Hamiltonian builder, Trotter schedule and RNG stream follows, so its order is
load-bearing), bond partitions, per-bond coupling scales, config round trips,
the lattice registry, and the cross-checks that a uniform checkerboard
lattice builds the numerically identical model as the plain square lattice.
"""

import numpy as np
import pytest

from repro.lattice import (
    LATTICE_KINDS,
    Bond,
    CheckerboardLattice,
    Lattice,
    Site,
    SquareLattice,
    as_lattice,
    bond_between,
    lattice_from_config,
    register_lattice,
)
from repro.operators.hamiltonians import heisenberg_j1j2, hubbard, transverse_field_ising


class TestSite:
    def test_flat_index_is_row_major(self):
        assert Site(0, 0).index(4) == 0
        assert Site(1, 2).index(4) == 6
        assert Site(2, 3).index(4) == 11

    def test_position_and_ordering(self):
        assert Site(1, 2).position == (1, 2)
        assert Site(0, 1) < Site(1, 0)

    def test_default_sublattice_is_zero(self):
        assert Site(3, 3).sublattice == 0


class TestBond:
    def test_indices_flatten_both_endpoints(self):
        bond = Bond(Site(0, 1), Site(1, 1), "vertical")
        assert bond.indices(3) == (1, 4)

    def test_adjacency_follows_orientation(self):
        assert Bond(Site(0, 0), Site(0, 1), "horizontal").is_adjacent
        assert Bond(Site(0, 0), Site(1, 0), "vertical").is_adjacent
        assert not Bond(Site(0, 0), Site(1, 1), "diagonal").is_adjacent

    def test_unknown_orientation_rejected(self):
        with pytest.raises(ValueError, match="unknown bond orientation"):
            Bond(Site(0, 0), Site(0, 1), "sideways")

    def test_defaults(self):
        bond = Bond(Site(0, 0), Site(0, 1), "horizontal")
        assert bond.kind == "nn"
        assert bond.sublattice == 0
        assert bond.scale == 1.0


class TestBondBetween:
    def test_horizontal_in_canonical_order(self):
        bond, swapped = bond_between((2, 1), (2, 2))
        assert bond.orientation == "horizontal"
        assert bond.site_a.position == (2, 1)
        assert not swapped

    def test_horizontal_reversed_swaps(self):
        bond, swapped = bond_between((2, 2), (2, 1))
        assert bond.site_a.position == (2, 1)
        assert bond.site_b.position == (2, 2)
        assert swapped

    def test_vertical_reference_is_upper_site(self):
        bond, swapped = bond_between((3, 0), (2, 0))
        assert bond.orientation == "vertical"
        assert bond.site_a.position == (2, 0)
        assert swapped

    def test_non_adjacent_rejected(self):
        with pytest.raises(ValueError, match="not adjacent"):
            bond_between((0, 0), (1, 1))
        with pytest.raises(ValueError, match="not adjacent"):
            bond_between((0, 0), (0, 2))


class TestCanonicalBondOrder:
    """bonds() must reproduce the historical open-coded double loops exactly;
    Trotter schedules and RNG streams consume bonds in this order."""

    def test_nn_matches_open_coded_loops(self):
        nrow, ncol = 3, 4
        expected = []
        for r in range(nrow):
            for c in range(ncol):
                if c + 1 < ncol:
                    expected.append((r * ncol + c, r * ncol + c + 1))
                if r + 1 < nrow:
                    expected.append((r * ncol + c, (r + 1) * ncol + c))
        lat = SquareLattice(nrow, ncol)
        assert [b.indices(ncol) for b in lat.bonds("nn")] == expected

    def test_nnn_matches_open_coded_loops(self):
        nrow, ncol = 3, 4
        expected = []
        for r in range(nrow - 1):
            for c in range(ncol):
                if c + 1 < ncol:
                    expected.append((r * ncol + c, (r + 1) * ncol + c + 1))
                if c - 1 >= 0:
                    expected.append((r * ncol + c, (r + 1) * ncol + c - 1))
        lat = SquareLattice(nrow, ncol)
        assert [b.indices(ncol) for b in lat.bonds("nnn")] == expected
        assert all(b.kind == "nnn" and not b.is_adjacent for b in lat.bonds("nnn"))

    def test_unknown_bond_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown bond kind"):
            list(SquareLattice(2, 2).bonds("nnnn"))


class TestBondPartition:
    def test_square_partition_is_one_group_in_bond_order(self):
        lat = SquareLattice(3, 3)
        groups = lat.bond_partition("nn")
        assert len(groups) == 1
        assert [b.indices(3) for b in groups[0]] == [
            b.indices(3) for b in lat.bonds("nn")
        ]

    def test_checkerboard_partition_has_two_homogeneous_groups(self):
        lat = CheckerboardLattice(3, 3)
        groups = lat.bond_partition("nn")
        assert len(groups) == 2
        for color, group in enumerate(groups):
            assert group, "empty bond color group"
            for bond in group:
                assert bond.sublattice == color
                row, col = bond.site_a.position
                assert (row + col) % 2 == color

    def test_checkerboard_partition_covers_all_bonds(self):
        lat = CheckerboardLattice(3, 4)
        flat = [b.indices(4) for group in lat.bond_partition("nn") for b in group]
        assert sorted(flat) == sorted(b.indices(4) for b in lat.bonds("nn"))


class TestCouplings:
    def test_square_anisotropic_scales_by_orientation(self):
        lat = SquareLattice(2, 2, couplings={"horizontal": 2.0, "vertical": 0.5})
        scales = {b.orientation: b.scale for b in lat.bonds("nn")}
        assert scales == {"horizontal": 2.0, "vertical": 0.5}

    def test_square_diagonal_couplings_scale_nnn(self):
        lat = SquareLattice(3, 3, couplings={"diagonal": 0.25})
        for bond in lat.bonds("nnn"):
            assert bond.scale == (0.25 if bond.orientation == "diagonal" else 1.0)

    def test_square_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="unknown coupling directions"):
            SquareLattice(2, 2, couplings={"sideways": 1.0})

    def test_checkerboard_scales_by_reference_site_color(self):
        lat = CheckerboardLattice(3, 3, couplings={"a": 1.0, "b": 0.5})
        for bond in lat.bonds("nn"):
            row, col = bond.site_a.position
            assert bond.scale == (1.0 if (row + col) % 2 == 0 else 0.5)

    def test_checkerboard_unknown_coupling_rejected(self):
        with pytest.raises(ValueError, match="unknown checkerboard couplings"):
            CheckerboardLattice(2, 2, couplings={"c": 1.0})


class TestConfigRoundTrip:
    @pytest.mark.parametrize("lat", [
        SquareLattice(2, 3),
        SquareLattice(3, 3, couplings={"horizontal": 0.5}),
        CheckerboardLattice(3, 4, couplings={"a": 1.0, "b": 0.5}),
    ], ids=["square", "square-aniso", "checkerboard"])
    def test_to_config_from_config_round_trip(self, lat):
        rebuilt = lattice_from_config(lat.to_config())
        assert type(rebuilt) is type(lat)
        assert rebuilt == lat
        assert rebuilt.to_config() == lat.to_config()

    def test_bare_pair_parses_as_square(self):
        lat = lattice_from_config([3, 2])
        assert isinstance(lat, SquareLattice)
        assert lat.shape == (3, 2)

    def test_missing_shape_rejected(self):
        with pytest.raises(ValueError, match='needs a "shape"'):
            lattice_from_config({"kind": "square"})

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown lattice config keys"):
            lattice_from_config({"kind": "square", "shape": [2, 2], "bogus": 1})

    def test_unknown_kind_suggests_closest(self):
        with pytest.raises(ValueError, match="did you mean 'checkerboard'"):
            lattice_from_config({"kind": "checkerbord", "shape": [2, 2]})


class TestAsLattice:
    def test_lattice_passes_through_unchanged(self):
        lat = CheckerboardLattice(2, 2)
        assert as_lattice(lat) is lat

    def test_pair_and_legacy_two_int_forms(self):
        assert as_lattice((2, 3)).shape == (2, 3)
        assert as_lattice(2, 3).shape == (2, 3)
        assert isinstance(as_lattice(2, 3), SquareLattice)

    def test_config_dict_form(self):
        lat = as_lattice({"kind": "checkerboard", "shape": [2, 2]})
        assert isinstance(lat, CheckerboardLattice)

    def test_ncol_conflicts_rejected(self):
        with pytest.raises(TypeError, match="ncol must be omitted"):
            as_lattice(SquareLattice(2, 2), 2)
        with pytest.raises(TypeError, match="ncol must be omitted"):
            as_lattice({"kind": "square", "shape": [2, 2]}, 2)

    def test_non_positive_shape_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            as_lattice((0, 3))


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert LATTICE_KINDS["square"] is SquareLattice
        assert LATTICE_KINDS["checkerboard"] is CheckerboardLattice

    def test_register_lattice_round_trips_through_config(self):
        @register_lattice("test-stripe")
        class StripeLattice(Lattice):
            def sublattice_of(self, row, col):
                return row % 2

        try:
            lat = lattice_from_config({"kind": "test-stripe", "shape": [2, 2]})
            assert isinstance(lat, StripeLattice)
            assert lat.kind == "test-stripe"
            assert lat.site(1, 0).sublattice == 1
        finally:
            del LATTICE_KINDS["test-stripe"]


class TestModelsOnLattices:
    """A uniform checkerboard lattice must build the numerically identical
    model as the square lattice — only the term (gate) order may differ."""

    @staticmethod
    def _terms_by_sites(ham):
        merged = {}
        for term in ham.terms:
            if term.sites in merged:
                merged[term.sites] = merged[term.sites] + term.matrix
            else:
                merged[term.sites] = term.matrix
        return merged

    @pytest.mark.parametrize("builder", [
        heisenberg_j1j2, transverse_field_ising, hubbard,
    ], ids=lambda f: f.__name__)
    def test_uniform_checkerboard_terms_match_square(self, builder):
        square = builder(SquareLattice(3, 3))
        checker = builder(CheckerboardLattice(3, 3))
        a = self._terms_by_sites(square)
        b = self._terms_by_sites(checker)
        assert a.keys() == b.keys()
        for sites in a:
            np.testing.assert_array_equal(a[sites], b[sites])

    def test_uniform_checkerboard_energy_matches_square(self):
        # Same terms => identical expectation value on any state, even though
        # the checkerboard schedules its bonds in two colored groups.
        from repro import peps
        from repro.peps import BMPS
        from repro.tensornetwork import ExplicitSVD

        state = peps.random_peps(3, 3, bond_dim=2, seed=5)
        option = BMPS(ExplicitSVD(rank=8))
        e_square = state.expectation(
            heisenberg_j1j2(SquareLattice(3, 3)), contract_option=option)
        e_checker = state.expectation(
            heisenberg_j1j2(CheckerboardLattice(3, 3)), contract_option=option)
        assert e_checker == pytest.approx(e_square, abs=1e-10)

    def test_checkerboard_couplings_modulate_two_site_terms(self):
        uniform = hubbard(CheckerboardLattice(2, 2), t=1.0, v=0.5)
        scaled = hubbard(
            CheckerboardLattice(2, 2, couplings={"a": 1.0, "b": 0.5}),
            t=1.0, v=0.5,
        )
        by_sites = {t.sites: t.matrix for t in uniform.terms if len(t.sites) == 2}
        for term in scaled.terms:
            if len(term.sites) != 2:
                continue
            color = (term.sites[0] // 2 + term.sites[0] % 2) % 2
            factor = 1.0 if color == 0 else 0.5
            np.testing.assert_allclose(term.matrix, factor * by_sites[term.sites])

    def test_hubbard_is_hermitian_hardcore_boson_model(self):
        ham = hubbard(SquareLattice(2, 2), t=1.0, v=0.5, mu=0.3)
        two_site = [t for t in ham.terms if len(t.sites) == 2]
        one_site = [t for t in ham.terms if len(t.sites) == 1]
        assert len(two_site) == 4 and len(one_site) == 4
        for term in ham.terms:
            np.testing.assert_allclose(term.matrix, term.matrix.conj().T)
        # Hopping moves exactly one particle; interaction is diagonal.
        hop = two_site[0].matrix
        assert hop[1, 2] == pytest.approx(-1.0)  # -t <01|H|10>
        assert hop[3, 3] == pytest.approx(0.5)   # v n_a n_b on |11>
        assert one_site[0].matrix[1, 1] == pytest.approx(-0.3)

    def test_legacy_two_int_builder_form_still_works(self):
        via_ints = transverse_field_ising(2, 3)
        via_lattice = transverse_field_ising(SquareLattice(2, 3))
        assert len(via_ints.terms) == len(via_lattice.terms)
        for t_int, t_lat in zip(via_ints.terms, via_lattice.terms):
            assert t_int.sites == t_lat.sites
            np.testing.assert_array_equal(t_int.matrix, t_lat.matrix)

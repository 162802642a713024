"""Tests for einsum subscript parsing (single- and two-output forms)."""

import pickle

import pytest

from repro.tensornetwork.einsum_spec import (
    EinsumSVDSpec,
    parse_einsum,
    parse_einsumsvd,
    symbols,
)


class TestSymbols:
    def test_symbols_are_unique_letters(self):
        out = symbols(10)
        assert len(out) == 10
        assert len(set(out)) == 10
        assert all(c.isalpha() for c in out)

    def test_symbols_exclude(self):
        out = symbols(5, exclude="abc")
        assert not set(out) & set("abc")

    def test_symbols_exhaustion_raises(self):
        with pytest.raises(ValueError):
            symbols(60)


class TestParseEinsum:
    def test_basic_parse(self):
        spec = parse_einsum("ij,jk->ik")
        assert spec.inputs == (("i", "j"), ("j", "k"))
        assert spec.output == ("i", "k")
        assert spec.subscripts == "ij,jk->ik"

    def test_implicit_output_alphabetical_single_occurrence(self):
        spec = parse_einsum("ba,ac")
        assert spec.output == ("b", "c")

    def test_operand_count_validation(self):
        with pytest.raises(ValueError):
            parse_einsum("ij,jk->ik", n_operands=3)

    def test_unknown_output_index_raises(self):
        with pytest.raises(ValueError):
            parse_einsum("ij,jk->iz")

    def test_repeated_index_in_term_raises(self):
        with pytest.raises(ValueError):
            parse_einsum("ii->i")

    def test_invalid_character_raises(self):
        with pytest.raises(ValueError):
            parse_einsum("i1,1k->ik")

    def test_multiple_outputs_rejected(self):
        with pytest.raises(ValueError):
            parse_einsum("ij,jk->i,k")

    def test_index_dimensions(self):
        spec = parse_einsum("ij,jk->ik")
        dims = spec.index_dimensions([(3, 4), (4, 5)])
        assert dims == {"i": 3, "j": 4, "k": 5}

    def test_index_dimensions_mismatch_raises(self):
        spec = parse_einsum("ij,jk->ik")
        with pytest.raises(ValueError):
            spec.index_dimensions([(3, 4), (5, 6)])
        with pytest.raises(ValueError):
            spec.index_dimensions([(3, 4, 1), (4, 5)])
        with pytest.raises(ValueError):
            spec.index_dimensions([(3, 4)])


class TestParseEinsumSVD:
    def test_basic_two_output_parse(self):
        spec = parse_einsumsvd("abc,cde->abk,kde")
        assert spec.bond_label == "k"
        assert spec.free_a == ("a", "b")
        assert spec.free_b == ("d", "e")
        assert spec.output_a == ("a", "b", "k")
        assert spec.output_b == ("k", "d", "e")

    def test_bond_can_appear_anywhere_in_outputs(self):
        spec = parse_einsumsvd("abc,cde->kab,dke")
        assert spec.bond_label == "k"
        assert spec.free_a == ("a", "b")
        assert spec.free_b == ("d", "e")

    def test_contract_spec_matches_free_groups(self):
        spec = parse_einsumsvd("abc,cde->abk,kde")
        assert spec.contract_spec.output == ("a", "b", "d", "e")
        assert spec.subscripts == "abc,cde->abk,kde"

    def test_parsed_once_and_derived_once(self):
        spec = parse_einsumsvd("abc,cde->abk,kde", n_operands=2)
        assert parse_einsumsvd("abc,cde->abk,kde", n_operands=2) is spec
        assert spec.contract_spec is spec.contract_spec
        assert spec.free_a is spec.free_a and spec.free_b is spec.free_b
        # derived values are not fields: equality, hashing and pickling ignore them
        fresh = EinsumSVDSpec(spec.inputs, spec.output_a, spec.output_b, spec.bond_label)
        assert fresh == spec and hash(fresh) == hash(spec)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_missing_arrow_raises(self):
        with pytest.raises(ValueError):
            parse_einsumsvd("abc,cde")

    def test_single_output_raises(self):
        with pytest.raises(ValueError):
            parse_einsumsvd("abc,cde->abde")

    def test_no_new_bond_raises(self):
        with pytest.raises(ValueError):
            parse_einsumsvd("abc,cde->abc,cde")

    def test_two_new_bonds_raises(self):
        with pytest.raises(ValueError):
            parse_einsumsvd("abc,cde->abkx,kxde")

    def test_shared_non_bond_index_raises(self):
        with pytest.raises(ValueError):
            parse_einsumsvd("abc,cde->abk,kae")

    def test_operand_count_validation(self):
        with pytest.raises(ValueError):
            parse_einsumsvd("abc,cde->abk,kde", n_operands=3)

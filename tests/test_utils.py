"""Tests for repro.utils: RNG helpers and flop estimates."""

import numpy as np
import pytest

from repro.utils.flops import (
    FlopCounter,
    peps_bmps_cost,
    qr_flops,
    svd_flops,
)
from repro.utils.rng import derive_rng, ensure_rng


class TestRng:
    def test_ensure_rng_from_int_is_deterministic(self):
        a = ensure_rng(7).integers(0, 1000, 10)
        b = ensure_rng(7).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(3)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_derive_rng_is_deterministic_per_key(self):
        a = derive_rng(7, "circuit").integers(0, 1 << 30, 8)
        b = derive_rng(7, "circuit").integers(0, 1 << 30, 8)
        c = derive_rng(7, "sample", 3).integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_rng_distinct_beyond_32_bits(self):
        # Seeds differing only above bit 32 must still derive distinct streams.
        a = derive_rng(5, "x").integers(0, 1 << 30, 8)
        b = derive_rng(5 + (1 << 32), "x").integers(0, 1 << 30, 8)
        assert not np.array_equal(a, b)

    def test_derive_rng_negative_seed_supported(self):
        a = derive_rng(-1, "x").integers(0, 1 << 30, 8)
        b = derive_rng(-1, "x").integers(0, 1 << 30, 8)
        c = derive_rng(1, "x").integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_rng_substreams_match_goldens(self):
        """Regression pin on the derive_rng substream values.

        The sweep subsystem derives every grid point's seed from the
        ``(root_seed, "sweep", index)`` substream, so these integers are part
        of the on-disk contract: if they ever change, previously produced
        sweep results (and any checkpointed run keyed on a derived stream)
        silently stop being reproducible.  Update these goldens only with a
        deliberate format-version bump.
        """
        goldens = {
            (0, "sweep", 0): [5623138576895223887, 3778696305729580370,
                              2213592259195958083],
            (7, "sweep", 0): [8141949595410671981, 5243701133728714144,
                              7254367757798858794],
            (7, "sweep", 1): [4488123607163468292, 9019909313005675934,
                              9045646319709046124],
            (7, "sample", 3): [560411062668007530, 8514592760629442592,
                               6874111984321589456],
            (123, "circuit"): [1159658434066760241, 1874660481580397407,
                               5992865972583010478],
        }
        for key, expected in goldens.items():
            rng = derive_rng(*key)
            assert [int(rng.integers(1 << 63)) for _ in range(3)] == expected, key


class TestFlops:
    def test_real_dtype_costs_are_cheaper(self):
        # complex128 arithmetic costs 4x a real multiply-add; the estimators
        # expose that through complex_dtype.
        assert svd_flops(100, 20, complex_dtype=False) == svd_flops(100, 20) / 4
        assert qr_flops(100, 20, complex_dtype=False) == qr_flops(100, 20) / 4

    def test_factorization_flops_positive_and_monotone(self):
        assert svd_flops(100, 20) > svd_flops(50, 20) > 0
        assert qr_flops(100, 20) > qr_flops(50, 20) > 0

    def test_qr_flops_symmetric_in_orientation(self):
        assert qr_flops(100, 20) == qr_flops(20, 100)

    def test_flop_counter_accumulates_by_category(self):
        counter = FlopCounter()
        counter.add("svd", 100.0)
        counter.add("svd", 50.0)
        counter.add("gemm", 25.0)
        assert counter.total == 175.0
        assert counter.by_category() == {"svd": 150.0, "gemm": 25.0}
        assert repr(counter) == "FlopCounter(total=175, gemm=25, svd=150)"
        counter.reset()
        assert counter.total == 0.0

    def test_flop_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            FlopCounter().add("x", -1.0)

    def test_flop_counter_zero_flop_category_still_listed(self):
        # add(cat, 0.0) registers the category (one call, zero flops): the
        # call-count views must include it even though no work was charged.
        counter = FlopCounter()
        counter.add("probe", 0.0)
        assert counter.by_category() == {"probe": 0.0}
        assert counter.calls_by_category() == {"probe": 1}
        assert counter.total == 0.0

    def test_flop_counter_preserves_insertion_order(self):
        counter = FlopCounter()
        for category in ("svd", "einsum", "qr"):
            counter.add(category, 1.0)
        assert list(counter.by_category()) == ["svd", "einsum", "qr"]
        counter.reset()
        assert counter.by_category() == {}
        assert counter.calls_by_category() == {}

    def test_table2_costs_ibmps_beats_bmps_asymptotically(self):
        # With m ~ r the IBMPS cost formula grows strictly slower than BMPS.
        small = peps_bmps_cost(8, r=4, m=4)
        large = peps_bmps_cost(8, r=16, m=16)
        bmps_growth = large["bmps"] / small["bmps"]
        ibmps_growth = large["ibmps"] / small["ibmps"]
        two_layer_growth = large["two_layer_ibmps"] / small["two_layer_ibmps"]
        assert ibmps_growth < bmps_growth
        assert two_layer_growth < ibmps_growth

    def test_table2_space_ibmps_below_bmps(self):
        costs = peps_bmps_cost(8, r=16, m=32)
        assert costs["ibmps_space"] < costs["bmps_space"]
        assert costs["two_layer_ibmps_space"] <= costs["ibmps_space"]

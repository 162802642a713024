"""Tests for the payload-store layer (repro.sim.io PayloadStore/npz sidecars).

Covers the store primitives (threshold, dedup, compact inline encoding), the
inline<->npz roundtrip matrix over every serializable state type (PEPS, warm
BoundaryEnvironment/EnvCTM caches), the sharded reader over the same states,
the sidecar lifecycle of checkpoint files (atomic write, pruning, clearing,
missing-sidecar errors), v1 document compatibility — and the acceptance
criterion that the npz format shrinks the ctm smoke checkpoint to at most 60%
of the inline-JSON footprint.

Npz is the one format checkpoints are written in.  Inline and sharded are
*read-only*: the matrix still round-trips the in-memory inline encoding
(``store=None`` dicts), the sharded reader is fed rank files laid out the way
earlier builds wrote them, and checkpoints an earlier build wrote in either
format are resumed from the frozen fixtures in ``tests/test_compat.py``.
"""

import json
import os

import numpy as np
import pytest

from repro import peps
from repro.peps import BMPS, CTMOption
from repro.tensornetwork import ExplicitSVD
from repro.sim import RunSpec, Simulation
from repro.backends.distributed.distribution import Distribution
from repro.sim.io import (
    NPZ_INLINE_THRESHOLD,
    PAYLOAD_INLINE,
    PAYLOAD_NPZ,
    PAYLOAD_SHARDED,
    InlinePayloadStore,
    NpzPayloadStore,
    SerializationError,
    ShardedPayloadStore,
    clear_checkpoints,
    decode_array,
    latest_checkpoint,
    load_checkpoint,
    open_payload_store,
    peps_from_dict,
    peps_to_dict,
    sidecar_for,
    write_checkpoint,
)

SPEC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "examples", "specs")

BIG = NPZ_INLINE_THRESHOLD  # smallest byte count that lands in the sidecar


def roundtrip_store(tmp_path, store, label="state"):
    """Persist a file-backed store and reopen it read-only (no-op for inline)."""
    if not isinstance(store, NpzPayloadStore):
        return store
    path = tmp_path / f"{label}.npz"
    store.save(path)
    return NpzPayloadStore.open(path)


def make_store(payload_format):
    """A write-side store; ``"inline"`` is the in-memory encoding only."""
    if payload_format == PAYLOAD_INLINE:
        return InlinePayloadStore()
    return NpzPayloadStore()


# --------------------------------------------------------------------- #
# Store primitives
# --------------------------------------------------------------------- #
class TestPayloadStorePrimitives:
    def test_sharded_store_has_no_write_path(self):
        store = ShardedPayloadStore()
        assert not hasattr(store, "write_files")
        with pytest.raises(SerializationError, match="no checkpoint is written in the sharded"):
            store.put("x/0", np.arange(BIG, dtype=np.float64))

    def test_inline_store_is_v1_encoding(self):
        array = np.arange(8, dtype=np.float64)
        payload = InlinePayloadStore().put("a/0", array)
        assert set(payload) == {"dtype", "shape", "data"}
        np.testing.assert_array_equal(decode_array(payload), array)

    def test_npz_store_threshold_keeps_small_arrays_inline(self):
        store = NpzPayloadStore()
        small = np.arange(BIG // 8 - 1, dtype=np.float64)  # just under
        payload = store.put("small/0", small)
        assert "npz" not in payload
        assert store.paths == []
        np.testing.assert_array_equal(store.get(payload), small)

    def test_npz_store_big_arrays_go_to_sidecar(self, tmp_path):
        store = NpzPayloadStore()
        big = np.arange(BIG, dtype=np.float64)
        payload = store.put("big/0", big)
        assert payload == {"npz": "big/0"}
        assert store.paths == ["big/0"]
        np.testing.assert_array_equal(store.get(payload), big)  # pre-save reads work
        read = roundtrip_store(tmp_path, store)
        restored = read.get(payload)
        assert restored.dtype == big.dtype
        np.testing.assert_array_equal(restored, big)
        read.close()

    def test_npz_store_deduplicates_identical_content(self):
        store = NpzPayloadStore()
        array = np.linspace(0.0, 1.0, BIG)
        first = store.put("x/0", array)
        second = store.put("y/0", array.copy())
        assert first == second == {"npz": "x/0"}
        assert store.paths == ["x/0"]
        # Same path with different bytes is a serializer bug, not a dedup hit.
        with pytest.raises(SerializationError, match="duplicate payload path"):
            store.put("x/0", array + 1.0)

    def test_compact_inline_encoding_compresses_when_it_pays(self):
        store = NpzPayloadStore()
        compressible = np.zeros(60, dtype=np.float64)  # 480 B of zeros
        payload = store.put("z/0", compressible)
        assert "z" in payload and "data" not in payload
        np.testing.assert_array_equal(decode_array(payload), compressible)
        # High-entropy bytes stay raw: compression would only add overhead.
        noisy = np.frombuffer(os.urandom(480), dtype=np.uint8)
        raw = store.put("n/0", noisy)
        assert "data" in raw and "z" not in raw
        np.testing.assert_array_equal(decode_array(raw), noisy)

    def test_npz_ref_needs_a_store(self):
        with pytest.raises(SerializationError, match="sidecar"):
            decode_array({"npz": "peps/tensors/0/0"})
        with pytest.raises(SerializationError, match="sidecar"):
            InlinePayloadStore().get({"npz": "peps/tensors/0/0"})

    def test_npz_store_unknown_key_rejected(self, tmp_path):
        store = NpzPayloadStore()
        store.put("x/0", np.arange(BIG, dtype=np.float64))
        with pytest.raises(SerializationError, match="unknown npz payload key"):
            store.get({"npz": "y/0"})
        read = roundtrip_store(tmp_path, store)
        with pytest.raises(SerializationError, match="missing from the npz sidecar"):
            read.get({"npz": "y/0"})
        read.close()

    def test_read_only_store_rejects_put(self, tmp_path):
        store = NpzPayloadStore()
        store.put("x/0", np.arange(BIG, dtype=np.float64))
        read = roundtrip_store(tmp_path, store)
        with pytest.raises(SerializationError, match="read-only"):
            read.put("y/0", np.arange(4, dtype=np.float64))
        read.close()

    def test_sidecar_is_plain_npz(self, tmp_path):
        """The sidecar must stay a vanilla npz readable by numpy alone."""
        store = NpzPayloadStore()
        arrays = {
            "peps/tensors/0/0": np.arange(BIG, dtype=np.float64),
            "peps/env/upper/1/0": (np.arange(BIG, dtype=np.float64) * 1j + 0.5),
        }
        for key, array in arrays.items():
            assert store.put(key, array) == {"npz": key}
        path = tmp_path / "sidecar.npz"
        store.save(path)
        with np.load(path) as npz:
            assert sorted(npz.files) == sorted(arrays)
            for key, array in arrays.items():
                assert npz[key].dtype == array.dtype
                np.testing.assert_array_equal(npz[key], array)

    def test_sidecar_bytes_are_deterministic(self, tmp_path):
        def build(path):
            store = NpzPayloadStore()
            store.put("a/0", np.linspace(0.0, 1.0, BIG))
            store.put("b/0", np.linspace(1.0, 2.0, BIG))
            store.save(path)
            return path.read_bytes()

        assert build(tmp_path / "one.npz") == build(tmp_path / "two.npz")

    def test_no_tmp_files_left_after_save(self, tmp_path):
        store = NpzPayloadStore()
        store.put("a/0", np.arange(BIG, dtype=np.float64))
        store.save(tmp_path / "out.npz")
        assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp")] == []


# --------------------------------------------------------------------- #
# Roundtrip matrix: every state type x every payload format
# --------------------------------------------------------------------- #
def make_peps_plain():
    return peps.random_peps(3, 3, bond_dim=3, seed=2)


def make_peps_bmps():
    state = peps.random_peps(3, 3, bond_dim=3, seed=3)
    state.attach_environment(BMPS(ExplicitSVD(rank=4)))
    state.norm()  # warm the boundary caches
    return state


def make_peps_ctm():
    state = peps.random_peps(3, 3, bond_dim=2, seed=4)
    state.attach_environment(CTMOption(chi=5)).build()
    return state


STATE_BUILDERS = {
    "peps": make_peps_plain,
    "peps+bmps": make_peps_bmps,
    "peps+ctm": make_peps_ctm,
}


def state_arrays(obj):
    """Every tensor that must round-trip bitwise, in a stable order."""
    arrays = []
    for row in obj.grid:
        arrays.extend(np.asarray(t) for t in row)
    env = obj.environment
    if env is not None:
        for i in range(1, env._upper_valid + 1):
            arrays.extend(np.asarray(t) for t in env._upper[i])
        for i in range(env._lower_valid, env.nrow - 1):
            arrays.extend(np.asarray(t) for t in env._lower[i])
    return arrays


@pytest.mark.parametrize("state_kind", sorted(STATE_BUILDERS))
@pytest.mark.parametrize("payload_format", [PAYLOAD_INLINE, PAYLOAD_NPZ])
class TestRoundTripMatrix:
    def test_bitwise_round_trip(self, tmp_path, state_kind, payload_format):
        obj = STATE_BUILDERS[state_kind]()
        store = make_store(payload_format)
        payload = peps_to_dict(obj, store=store)
        json.dumps(payload)  # the document itself must stay pure JSON
        read = roundtrip_store(tmp_path, store, state_kind)
        again = peps_from_dict(payload, store=read)
        read.close()

        before = state_arrays(obj)
        after = state_arrays(again)
        assert len(before) == len(after) and len(before) > 0
        for a, b in zip(before, after):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        if state_kind == "peps+ctm":
            env = again.environment
            assert env.norm() == obj.environment.norm()
            assert env.stats.ctm_moves == 0  # caches restored warm
        elif state_kind == "peps+bmps":
            env = again.environment
            assert env.norm() == obj.environment.norm()
            assert env.stats.row_absorptions == 0

    def test_cross_format_documents_agree(self, tmp_path, state_kind, payload_format):
        """Restoring from one format and re-serializing inline must produce a
        document byte-identical to direct inline serialization."""
        obj = STATE_BUILDERS[state_kind]()
        reference = json.dumps(peps_to_dict(obj))
        store = make_store(payload_format)
        payload = peps_to_dict(obj, store=store)
        read = roundtrip_store(tmp_path, store, state_kind)
        again = peps_from_dict(payload, store=read)
        read.close()
        assert json.dumps(peps_to_dict(again)) == reference


# --------------------------------------------------------------------- #
# The sharded reader: rank files as earlier builds wrote them
# --------------------------------------------------------------------- #
def as_rank_files(directory, label, payload, store, nshards):
    """``payload``, serialized through the npz ``store``, as the retired
    sharded writer laid it out: every sidecar reference becomes a shard
    descriptor and each rank's contiguous blocks land in that rank's npz
    file.  Returns the document and the ``shards`` list naming the files."""
    arrays = {key: store.get({"npz": key}) for key in store.paths}
    dists = {key: Distribution.natural(a.shape, nshards) for key, a in arrays.items()}

    def convert(node):
        if isinstance(node, dict):
            if set(node) == {"npz"}:
                key = node["npz"]
                return {"shard": key, "dtype": arrays[key].dtype.str,
                        "shape": list(arrays[key].shape),
                        "grid": list(dists[key].grid.dims)}
            return {k: convert(v) for k, v in node.items()}
        if isinstance(node, list):
            return [convert(v) for v in node]
        return node

    shards = []
    for rank in range(nshards):
        filename = f"{label}-step000000.ckpt.rank{rank}.npz"
        np.savez(directory / filename,
                 **{key: a[dists[key].block_slices(rank)] for key, a in arrays.items()})
        shards.append({"file": filename})
    return convert(payload), shards


@pytest.mark.parametrize("state_kind", sorted(STATE_BUILDERS))
@pytest.mark.parametrize("nshards", [1, 3])
def test_sharded_reader_restores_bitwise(tmp_path, state_kind, nshards):
    obj = STATE_BUILDERS[state_kind]()
    store = NpzPayloadStore()
    payload, shards = as_rank_files(
        tmp_path, state_kind, peps_to_dict(obj, store=store), store, nshards
    )
    assert "shard" in json.dumps(payload)
    read = open_payload_store(
        {"payload_format": PAYLOAD_SHARDED, "shards": shards},
        tmp_path / f"{state_kind}-step000000.ckpt.json",
    )
    assert isinstance(read, ShardedPayloadStore)
    again = peps_from_dict(payload, store=read)
    read.close()
    for a, b in zip(state_arrays(obj), state_arrays(again)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert json.dumps(peps_to_dict(again)) == json.dumps(peps_to_dict(obj))


# --------------------------------------------------------------------- #
# Checkpoint files with sidecars
# --------------------------------------------------------------------- #
def npz_checkpoint(directory, name, step, keep=3):
    store = NpzPayloadStore()
    state = {"blob": store.put("blob", np.arange(BIG, dtype=np.float64) + step)}
    return write_checkpoint(directory, name, step, {}, state, [], keep=keep, store=store)


class TestCheckpointSidecars:
    def test_sidecar_written_and_resolved(self, tmp_path):
        path = npz_checkpoint(tmp_path, "run", 4)
        payload = load_checkpoint(path)
        assert payload["payload_format"] == PAYLOAD_NPZ
        assert payload["sidecar"] == "run-step000004.ckpt.npz"
        assert os.path.exists(tmp_path / payload["sidecar"])
        store = open_payload_store(payload, path)
        np.testing.assert_array_equal(
            store.get(payload["workload_state"]["blob"]),
            np.arange(BIG, dtype=np.float64) + 4,
        )
        store.close()

    def test_storeless_checkpoint_has_no_payload_files(self, tmp_path):
        """``store=None`` (a state that references no payload file) writes an
        npz-format document without a sidecar; inline is never stamped."""
        path = write_checkpoint(tmp_path, "run", 2, {}, {}, [])
        payload = load_checkpoint(path)
        assert payload["payload_format"] == PAYLOAD_NPZ
        assert payload["sidecar"] is None
        assert isinstance(open_payload_store(payload, path), NpzPayloadStore)
        assert [p for p in os.listdir(tmp_path) if p.endswith(".npz")] == []

    def test_all_inline_npz_store_skips_sidecar(self, tmp_path):
        """An npz-format checkpoint whose arrays all stayed under the
        threshold (e.g. VQE parameters) writes no sidecar file at all."""
        store = NpzPayloadStore()
        state = {"tiny": store.put("tiny", np.arange(4, dtype=np.float64))}
        path = write_checkpoint(tmp_path, "run", 1, {}, state, [], store=store)
        payload = load_checkpoint(path)
        assert payload["payload_format"] == PAYLOAD_NPZ
        assert payload["sidecar"] is None
        assert [p for p in os.listdir(tmp_path) if p.endswith(".npz")] == []
        store = open_payload_store(payload, path)
        np.testing.assert_array_equal(
            store.get(payload["workload_state"]["tiny"]), np.arange(4, dtype=np.float64)
        )

    def test_pruning_removes_sidecars(self, tmp_path):
        for step in (2, 4, 6, 8):
            npz_checkpoint(tmp_path, "run", step, keep=2)
        names = sorted(os.listdir(tmp_path))
        assert names == [
            "run-step000006.ckpt.json", "run-step000006.ckpt.npz",
            "run-step000008.ckpt.json", "run-step000008.ckpt.npz",
        ]

    def test_clear_checkpoints_removes_sidecars_and_orphans(self, tmp_path):
        npz_checkpoint(tmp_path, "run", 2)
        npz_checkpoint(tmp_path, "other", 2)
        os.unlink(tmp_path / "run-step000002.ckpt.json")  # orphan the sidecar
        npz_checkpoint(tmp_path, "run", 4)
        assert clear_checkpoints(tmp_path, "run") == 1
        assert sorted(os.listdir(tmp_path)) == [
            "other-step000002.ckpt.json", "other-step000002.ckpt.npz",
        ]

    def test_missing_sidecar_is_a_hard_error(self, tmp_path):
        path = npz_checkpoint(tmp_path, "run", 4)
        payload = load_checkpoint(path)
        os.unlink(tmp_path / payload["sidecar"])
        with pytest.raises(SerializationError, match="sidecar .* is missing"):
            open_payload_store(payload, path)
        with pytest.raises(SerializationError, match="pass the checkpoint path"):
            open_payload_store(payload, None)

    def test_recorded_digest_matches_the_file_on_disk(self, tmp_path):
        """The streamed-while-writing SHA-256 equals the final file's hash."""
        import hashlib

        path = npz_checkpoint(tmp_path, "run", 4)
        payload = load_checkpoint(path)
        actual = hashlib.sha256(open(sidecar_for(path), "rb").read()).hexdigest()
        assert payload["sidecar_sha256"] == actual

    def test_sidecar_digest_mismatch_is_a_hard_error(self, tmp_path):
        """A sidecar whose bytes don't match the document's recorded SHA-256
        (torn same-step rewrite, external edit) must refuse to restore."""
        path = npz_checkpoint(tmp_path, "run", 4)
        payload = load_checkpoint(path)
        assert payload["sidecar_sha256"]
        # Replace the sidecar with different-content tensors (same keys).
        store = NpzPayloadStore()
        store.put("blob", np.arange(BIG, dtype=np.float64) * -1.0)
        store.save(sidecar_for(path))
        with pytest.raises(SerializationError, match="does not match the digest"):
            open_payload_store(payload, path)
        # Documents without the digest (older v2 writers) still open.
        payload.pop("sidecar_sha256")
        open_payload_store(payload, path).close()

    def test_v1_documents_remain_readable(self, tmp_path):
        """Inline-era (format_version 1) checkpoints load and restore."""
        state = peps.random_peps(2, 2, bond_dim=2, seed=9)
        path = write_checkpoint(
            tmp_path, "old", 3, {}, {"peps": peps_to_dict(state)}, []
        )
        document = json.load(open(path))

        def downgrade(node):
            if isinstance(node, dict):
                if node.get("format_version") == 2:
                    node["format_version"] = 1
                for value in node.values():
                    downgrade(value)
            elif isinstance(node, list):
                for value in node:
                    downgrade(value)

        downgrade(document)
        document.pop("payload_format")
        document.pop("sidecar")
        json.dump(document, open(path, "w"))

        payload = load_checkpoint(path)
        store = open_payload_store(payload, path)
        assert isinstance(store, InlinePayloadStore)
        again = peps_from_dict(payload["workload_state"]["peps"], store=store)
        for i in range(2):
            for j in range(2):
                np.testing.assert_array_equal(
                    np.asarray(state.grid[i][j]), np.asarray(again.grid[i][j])
                )


# --------------------------------------------------------------------- #
# Runner integration: npz checkpoints, size criterion
# --------------------------------------------------------------------- #
def ite_payload(tmp_path):
    """A 3x3 IBMPS spec whose boundary tensors exceed the inline threshold."""
    return RunSpec.from_dict({
        "name": "payload-ite",
        "workload": "ite",
        "lattice": [3, 3],
        "n_steps": 4,
        "seed": 7,
        "model": {"kind": "transverse_field_ising"},
        "algorithm": {"tau": 0.05},
        "update": {"kind": "qr", "rank": 2},
        "contraction": {"kind": "ibmps", "bond": 4, "niter": 1, "seed": 0},
        "checkpoint_every": 2,
        "checkpoint_dir": str(tmp_path / "ckpt"),
    })


class TestRunnerPayloadFormats:
    def test_npz_sidecar_presence(self, tmp_path):
        spec = ite_payload(tmp_path)
        Simulation(spec).run()
        files = sorted(os.listdir(tmp_path / "ckpt"))
        assert any(f.endswith(".ckpt.npz") for f in files)
        assert not any(".rank" in f for f in files)
        payload = load_checkpoint(latest_checkpoint(tmp_path / "ckpt", spec.name))
        assert payload["payload_format"] == PAYLOAD_NPZ

    def test_ctm_smoke_checkpoint_size_regression(self, tmp_path):
        """Acceptance: on the ctm smoke spec the npz checkpoint (JSON +
        sidecar) is at most 60% of the inline-JSON checkpoint."""
        with open(os.path.join(SPEC_DIR, "ite_ctm_smoke.json")) as handle:
            base = json.load(handle)
        spec = RunSpec.from_dict(dict(
            base,
            checkpoint_dir=str(tmp_path / "ckpt"),
            results=str(tmp_path / "out.jsonl"),
        ))
        simulation = Simulation(spec)
        simulation.run()
        path = simulation.latest_checkpoint()
        # The same final state as the all-JSON document earlier builds wrote.
        inline_document = dict(
            load_checkpoint(path), payload_format=PAYLOAD_INLINE, sidecar=None,
            workload_state=simulation.workload.state_to_dict(store=None),
        )
        del inline_document["sidecar_sha256"]
        sizes = {
            PAYLOAD_NPZ: os.path.getsize(path) + os.path.getsize(sidecar_for(path)),
            PAYLOAD_INLINE: len(json.dumps(inline_document)),
        }
        ratio = sizes[PAYLOAD_NPZ] / sizes[PAYLOAD_INLINE]
        assert ratio <= 0.60, (
            f"npz checkpoint is {ratio:.1%} of inline "
            f"({sizes[PAYLOAD_NPZ]} vs {sizes[PAYLOAD_INLINE]} bytes)"
        )

    def test_vqe_npz_run_resumes_without_sidecar(self, tmp_path):
        payload = {
            "name": "vqe-npz", "workload": "vqe", "lattice": [2, 2],
            "n_steps": 4, "seed": 3,
            "model": {"kind": "transverse_field_ising", "jz": -1.0, "hx": -3.5},
            "algorithm": {"n_layers": 1, "iters_per_step": 2},
            "update": {"kind": "qr", "rank": 2},
            "contraction": {"kind": "bmps", "bond": 4},
            "checkpoint_every": 2,
        }
        ref = RunSpec.from_dict({**payload, "checkpoint_dir": str(tmp_path / "a")})
        reference = Simulation(ref).run()
        spec = RunSpec.from_dict({**payload, "checkpoint_dir": str(tmp_path / "b")})
        Simulation(spec).run(stop_after=2)
        # All-scalar workload state: npz format, but no sidecar files.
        assert [f for f in os.listdir(tmp_path / "b") if f.endswith(".npz")] == []
        resumed = Simulation(spec).run(resume=True)
        assert resumed.records == reference.records

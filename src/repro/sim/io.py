"""Versioned serialization for simulation state (checkpoint/resume).

Every persistent artifact of the simulation runner — checkpoints, result
documents, run specs — is a plain JSON document.  Tensor data is encoded
losslessly so that a state restored from a checkpoint is *bitwise identical*
to the one that was saved; combined with the library's per-call seeding of
randomized algorithms this makes a resumed run reproduce an uninterrupted
one float-for-float.

Tensor payloads go through a :class:`PayloadStore`, which decides where the
bytes live (the full on-disk contract is specified in
``docs/checkpoint-format.md``):

* :class:`InlinePayloadStore` — raw little-endian bytes, base64, embedded in
  the JSON document itself (the original v1 format; self-contained but
  ~1.33x the raw size),
* :class:`NpzPayloadStore` — arrays land in an ``.npz`` *sidecar* file next
  to the JSON document, keyed by stable payload paths
  (``peps/tensors/1/2``, ``peps/env/upper/3/0``, ...), deflate-compressed
  and content-deduplicated; tiny arrays (below
  :data:`NPZ_INLINE_THRESHOLD` bytes) stay inline in a compact
  zlib-compressed encoding because the per-member zip overhead would
  exceed their payload,
* :class:`ShardedPayloadStore` — one ``.ckpt.rank<r>.npz`` file per rank:
  each array is block-partitioned per a
  :class:`~repro.backends.distributed.distribution.Distribution` over the
  configured shard count and rank ``r``'s file holds its block of every
  array (the distributed backend's checkpoint layout; see
  ``docs/distributed.md``).  Reassembly is bitwise, so sharded checkpoints
  restore on any backend and rank count.

The (de)serializers for MPS/PEPS/environments are written once against the
store interface — ``to_dict(obj, store=...)`` / ``from_dict(payload,
store=...)`` — so new payload backends (e.g. per-rank shards for the
distributed backend) drop in without touching them.

The module provides ``to_dict``/``from_dict`` pairs for

* :class:`~repro.mps.mps.MPS` — ``mps_to_dict`` / ``mps_from_dict``,
* :class:`~repro.peps.peps.PEPS` (with its attached environment) —
  ``peps_to_dict`` / ``peps_from_dict``,
* contraction/update option objects — ``contract_option_to_dict`` etc.,
* whole checkpoint payloads — ``write_checkpoint`` (atomic: sidecar first,
  then temp file, fsync, ``os.replace`` for the JSON document) /
  ``load_checkpoint`` + ``open_payload_store`` / ``latest_checkpoint``.

Every dict carries a ``format_version`` so later formats can migrate old
checkpoints instead of silently misreading them.  Version history:

* **1** — inline base64 tensor payloads only (PR 2).
* **2** — adds ``payload_format``/``sidecar`` checkpoint fields, npz
  sidecar references (``{"npz": key}``) and the compact zlib inline
  encoding (``{"dtype", "shape", "z"}``).  Version-1 documents remain
  readable (:data:`SUPPORTED_FORMAT_VERSIONS`); writers always stamp the
  current :data:`FORMAT_VERSION`.
"""

from __future__ import annotations

import base64
import hashlib
import io as stdlib_io
import json
import os
import tempfile
import zipfile
import zlib
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.backends import get_backend
from repro.backends.interface import Backend

#: Version of the on-disk checkpoint / state-dict format (what writers stamp).
FORMAT_VERSION = 2

#: Format versions this build can read.
SUPPORTED_FORMAT_VERSIONS = (1, 2)

#: Payload format names (the ``RunSpec.checkpoint_payload`` knob).
PAYLOAD_INLINE = "inline"
PAYLOAD_NPZ = "npz"
PAYLOAD_SHARDED = "sharded"
PAYLOAD_FORMATS = (PAYLOAD_INLINE, PAYLOAD_NPZ, PAYLOAD_SHARDED)

#: Arrays smaller than this many bytes stay inline even under the npz store:
#: one zip member costs ~250 bytes of container overhead (local + central
#: headers, the ``.npy`` header, the member name twice), which exceeds the
#: base64 cost of a tiny array.
NPZ_INLINE_THRESHOLD = 512


class SerializationError(ValueError):
    """Raised when a state dict cannot be serialized or restored."""


def canonical_json(value) -> str:
    """JSON-normalized form for config comparisons.

    An in-memory spec may hold tuples (or numpy scalars) where its persisted
    counterpart went through ``json.dump`` and holds lists/floats; comparing
    the serialized forms avoids spurious mismatches.  Both resume paths (run
    checkpoints and sweep manifests) use this one canonicalizer so they agree
    on what counts as "the same spec".
    """
    return json.dumps(value, sort_keys=True, default=str)


# --------------------------------------------------------------------- #
# Tensor encodings
# --------------------------------------------------------------------- #
def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    """Lossless JSON encoding of a plain NumPy array (base64 of raw bytes)."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _encode_array_compact(array: np.ndarray) -> Dict[str, Any]:
    """Inline encoding that zlib-compresses the raw bytes when that is smaller.

    Used for sub-threshold arrays inside npz-format documents; the raw
    ``data`` form is kept whenever compression does not pay (e.g. very small
    or incompressible arrays).
    """
    array = np.ascontiguousarray(array)
    raw = array.tobytes()
    packed = zlib.compress(raw, 9)
    if len(packed) < len(raw):
        return {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "z": base64.b64encode(packed).decode("ascii"),
        }
    return _encode_array(array)


def _decode_array(payload: Dict[str, Any]) -> np.ndarray:
    if "z" in payload:
        raw = zlib.decompress(base64.b64decode(payload["z"]))
    elif "data" in payload:
        raw = base64.b64decode(payload["data"])
    else:
        raise SerializationError(
            f"not an inline tensor payload (keys {sorted(payload)})"
        )
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape([int(d) for d in payload["shape"]]).copy()


# --------------------------------------------------------------------- #
# Payload stores
# --------------------------------------------------------------------- #
class PayloadStore:
    """Where tensor bytes live: the (de)serializers' storage interface.

    ``put(path, array)`` returns the JSON payload standing in for ``array``
    in the document (an inline encoding, or a reference into external
    storage); ``get(payload)`` inverts it bitwise.  ``path`` is the stable
    payload path of the array inside the document (``peps/tensors/1/2``);
    stores that keep bytes externally use it as the storage key.
    """

    kind = PAYLOAD_INLINE

    def put(self, path: str, array: np.ndarray) -> Dict[str, Any]:
        raise NotImplementedError

    def get(self, payload: Dict[str, Any]) -> np.ndarray:
        if "npz" in payload:
            raise SerializationError(
                "tensor payload references an npz sidecar; open the "
                "checkpoint's store with io.open_payload_store and pass it "
                "as store="
            )
        return _decode_array(payload)

    def close(self) -> None:
        """Release any underlying file handle (no-op for inline stores)."""


class InlinePayloadStore(PayloadStore):
    """Embed every array in the JSON document (v1 base64 encoding)."""

    def put(self, path: str, array: np.ndarray) -> Dict[str, Any]:
        return _encode_array(array)


#: Stateless store used whenever no explicit store is passed.
_INLINE_STORE = InlinePayloadStore()


class _HashingWriter:
    """File-like tee that SHA-256-hashes everything written through it.

    Reports itself non-seekable so :mod:`zipfile` streams members with data
    descriptors instead of seeking back to patch local headers — every byte
    is written exactly once, so the running hash equals the file's hash.
    """

    def __init__(self, handle) -> None:
        self._handle = handle
        self._hash = hashlib.sha256()
        self._pos = 0

    def write(self, data) -> int:
        written = self._handle.write(data)
        self._hash.update(data)
        self._pos += len(data)
        return written

    def tell(self) -> int:
        return self._pos

    def flush(self) -> None:
        self._handle.flush()

    def seekable(self) -> bool:
        return False

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class NpzPayloadStore(PayloadStore):
    """Collect arrays for an ``.npz`` sidecar, keyed by payload path.

    Writing: ``put`` registers each super-threshold array under its payload
    path (bitwise-identical content is stored once and shared by reference)
    and returns ``{"npz": key}``; :meth:`save` then writes all registered
    arrays as one deterministic, deflate-compressed npz file (a plain zip of
    ``<key>.npy`` members readable by ``numpy.load``).  Sub-threshold arrays
    are returned as compact inline encodings instead — see
    :data:`NPZ_INLINE_THRESHOLD`.

    Reading: :meth:`open` wraps an existing sidecar; ``get`` resolves
    ``{"npz": key}`` references against it (members decompress lazily, one
    zip read per access) and decodes inline payloads directly.
    """

    kind = PAYLOAD_NPZ

    def __init__(self, inline_threshold: int = NPZ_INLINE_THRESHOLD) -> None:
        self.inline_threshold = int(inline_threshold)
        self._arrays: Dict[str, np.ndarray] = {}
        self._by_digest: Dict[Tuple[str, Tuple[int, ...], bytes], str] = {}
        self._npz = None
        #: SHA-256 hex digest of the last :meth:`save`'d sidecar.
        self.last_digest: Optional[str] = None

    @classmethod
    def open(cls, path: Union[str, os.PathLike]) -> "NpzPayloadStore":
        """Read-only store over an existing sidecar file."""
        store = cls()
        store._npz = np.load(os.fspath(path))
        return store

    @property
    def paths(self) -> List[str]:
        """The payload paths registered (write side) or present (read side)."""
        if self._npz is not None:
            return list(self._npz.files)
        return list(self._arrays)

    def put(self, path: str, array: np.ndarray) -> Dict[str, Any]:
        if self._npz is not None:
            raise SerializationError("this payload store was opened read-only")
        array = np.ascontiguousarray(array)
        if array.nbytes < self.inline_threshold:
            return _encode_array_compact(array)
        # array.data hashes the buffer in place; tobytes() would copy it.
        digest = (array.dtype.str, array.shape, hashlib.sha256(array.data).digest())
        key = self._by_digest.get(digest)
        if key is None:
            if path in self._arrays:
                raise SerializationError(f"duplicate payload path {path!r}")
            self._arrays[path] = array
            self._by_digest[digest] = path
            key = path
        return {"npz": key}

    def get(self, payload: Dict[str, Any]) -> np.ndarray:
        if "npz" not in payload:
            return _decode_array(payload)
        key = payload["npz"]
        if self._npz is not None:
            if key not in self._npz.files:
                raise SerializationError(
                    f"payload {key!r} is missing from the npz sidecar"
                )
            return np.asarray(self._npz[key])
        if key in self._arrays:
            return self._arrays[key].copy()
        raise SerializationError(f"unknown npz payload key {key!r}")

    def save(self, path: Union[str, os.PathLike]) -> str:
        """Atomically write the registered arrays as an npz file.

        The zip is deterministic (fixed member timestamps, insertion order,
        deflate level 9): identical state always produces identical sidecar
        bytes.  Written via temp file + fsync + ``os.replace`` like every
        other persistent artifact; the file's SHA-256 is accumulated while
        streaming (no re-read) and left in :attr:`last_digest`.
        """
        path = os.fspath(path)
        self.last_digest = _write_npz_atomic(path, self._arrays)
        return path

    def close(self) -> None:
        if self._npz is not None:
            self._npz.close()
            self._npz = None


def _write_npz_atomic(path: str, arrays: Dict[str, np.ndarray]) -> str:
    """Deterministic atomic npz write shared by the npz and sharded stores.

    Fixed member timestamps, insertion order and deflate level 9 make the
    zip bytes a pure function of the arrays; temp file + fsync +
    ``os.replace`` keeps the write atomic.  Returns the file's SHA-256,
    accumulated while streaming (no re-read).
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".npz")
    try:
        with os.fdopen(fd, "wb") as handle:
            writer = _HashingWriter(handle)
            with zipfile.ZipFile(writer, "w", zipfile.ZIP_DEFLATED) as archive:
                for key, array in arrays.items():
                    info = zipfile.ZipInfo(key + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
                    member = stdlib_io.BytesIO()
                    np.lib.format.write_array(member, array, allow_pickle=False)
                    archive.writestr(info, member.getvalue(), zipfile.ZIP_DEFLATED, 9)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return writer.hexdigest()


class ShardedPayloadStore(PayloadStore):
    """Per-rank checkpoint payloads for the distributed backend.

    Writing: ``put`` registers each super-threshold array (content
    deduplicated like the npz store) together with a
    :class:`~repro.backends.distributed.distribution.Distribution` of its
    shape over ``nshards`` ranks, and returns a self-describing reference
    ``{"shard": key, "dtype", "shape", "grid"}``; :meth:`save_shards` then
    writes one deterministic ``.ckpt.rank<r>.npz`` file per rank, rank
    ``r``'s file holding its contiguous block of every array.  Scalars and
    sub-threshold arrays stay inline — a tiny array split ``nshards`` ways
    would be pure container overhead.

    Reading: :meth:`open` wraps the rank files listed in the checkpoint
    document; ``get`` loads each rank's block and reassembles bitwise via
    the reference's recorded grid, so restore works on any backend and any
    rank count.
    """

    kind = PAYLOAD_SHARDED

    def __init__(
        self, nshards: int = 1, inline_threshold: int = NPZ_INLINE_THRESHOLD
    ) -> None:
        self.nshards = max(1, int(nshards))
        self.inline_threshold = int(inline_threshold)
        self._arrays: Dict[str, np.ndarray] = {}
        self._dists: Dict[str, Any] = {}
        self._by_digest: Dict[Tuple[str, Tuple[int, ...], bytes], str] = {}
        self._shards: Optional[List[Any]] = None
        #: ``[{"file", "sha256"}, ...]`` of the last :meth:`save_shards`.
        self.last_shards: Optional[List[Dict[str, str]]] = None

    @classmethod
    def open(cls, paths: List[str]) -> "ShardedPayloadStore":
        """Read-only store over an existing set of per-rank files."""
        store = cls(nshards=max(1, len(paths)))
        store._shards = [np.load(os.fspath(path)) for path in paths]
        return store

    @property
    def paths(self) -> List[str]:
        """The payload paths registered (write side) or present (read side)."""
        if self._shards is not None:
            seen: List[str] = []
            for handle in self._shards:
                seen.extend(k for k in handle.files if k not in seen)
            return seen
        return list(self._arrays)

    def put(self, path: str, array: np.ndarray) -> Dict[str, Any]:
        from repro.backends.distributed.distribution import Distribution

        if self._shards is not None:
            raise SerializationError("this payload store was opened read-only")
        array = np.ascontiguousarray(array)
        if array.ndim == 0 or array.nbytes < self.inline_threshold:
            return _encode_array_compact(array)
        digest = (array.dtype.str, array.shape, hashlib.sha256(array.data).digest())
        key = self._by_digest.get(digest)
        if key is None:
            if path in self._arrays:
                raise SerializationError(f"duplicate payload path {path!r}")
            self._arrays[path] = array
            self._dists[path] = Distribution.natural(array.shape, self.nshards)
            self._by_digest[digest] = path
            key = path
        dist = self._dists[key]
        return {
            "shard": key,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "grid": list(dist.grid.dims),
        }

    def get(self, payload: Dict[str, Any]) -> np.ndarray:
        from repro.backends.distributed.distribution import (
            Distribution,
            ProcessorGrid,
        )

        if "shard" not in payload:
            return _decode_array(payload)
        key = payload["shard"]
        if self._shards is None:
            if key in self._arrays:
                return self._arrays[key].copy()
            raise SerializationError(f"unknown shard payload key {key!r}")
        dist = Distribution(
            shape=tuple(int(d) for d in payload["shape"]),
            grid=ProcessorGrid(dims=tuple(int(g) for g in payload["grid"])),
        )
        if dist.nprocs > len(self._shards):
            raise SerializationError(
                f"payload {key!r} needs {dist.nprocs} rank files, the "
                f"checkpoint lists {len(self._shards)}"
            )
        blocks = []
        for rank in range(dist.nprocs):
            handle = self._shards[rank]
            if key not in handle.files:
                raise SerializationError(
                    f"payload {key!r} is missing from rank file {rank}"
                )
            blocks.append(np.asarray(handle[key]))
        array = dist.reassemble(blocks)
        return array.astype(np.dtype(payload["dtype"]), copy=False)

    def save_shards(
        self, directory: Union[str, os.PathLike], name: str, step: int
    ) -> List[Dict[str, str]]:
        """Atomically write every rank's file; returns ``[{"file", "sha256"}]``.

        All ``nshards`` files are written even when some rank's blocks are
        empty (over-decomposed modes), so the checkpoint document's shard
        list always has one entry per rank.
        """
        directory = os.fspath(directory)
        shards: List[Dict[str, str]] = []
        for rank in range(self.nshards):
            members = {
                key: self._dists[key].shard(array, rank)
                for key, array in self._arrays.items()
            }
            filename = shard_filename(name, step, rank)
            sha256 = _write_npz_atomic(os.path.join(directory, filename), members)
            shards.append({"file": filename, "sha256": sha256})
        self.last_shards = shards
        return shards

    def close(self) -> None:
        if self._shards is not None:
            for handle in self._shards:
                handle.close()
            self._shards = None


def make_payload_store(
    payload_format: Optional[str], nshards: int = 1
) -> PayloadStore:
    """Fresh write-side store for a ``RunSpec.checkpoint_payload`` value.

    ``nshards`` only matters for the ``"sharded"`` format, where it sets the
    rank count of the per-array distributions (the runner passes the
    backend's ``nprocs``).
    """
    if payload_format in (None, PAYLOAD_INLINE):
        return InlinePayloadStore()
    if payload_format == PAYLOAD_NPZ:
        return NpzPayloadStore()
    if payload_format == PAYLOAD_SHARDED:
        return ShardedPayloadStore(nshards=nshards)
    raise SerializationError(
        f"unknown payload format {payload_format!r}; expected one of {PAYLOAD_FORMATS}"
    )


def encode_tensor(
    backend: Backend, tensor, store: Optional[PayloadStore] = None, path: str = ""
) -> Dict[str, Any]:
    """Lossless JSON payload for one backend tensor, via ``store`` if given."""
    array = np.asarray(backend.asarray(tensor))
    if store is None:
        return _encode_array(array)
    return store.put(path, array)


def decode_array(payload: Dict[str, Any], store: Optional[PayloadStore] = None) -> np.ndarray:
    """Rebuild a NumPy array from any payload encoding (inline or npz ref)."""
    return (store if store is not None else _INLINE_STORE).get(payload)


def decode_tensor(backend: Backend, payload: Dict[str, Any], store: Optional[PayloadStore] = None):
    """Rebuild a backend tensor from :func:`encode_tensor` output."""
    return backend.astensor(decode_array(payload, store))


# --------------------------------------------------------------------- #
# Option objects
# --------------------------------------------------------------------- #
def svd_option_to_dict(option) -> Optional[Dict[str, Any]]:
    """Serialize an ``einsumsvd`` option (``ExplicitSVD``/``ImplicitRandomizedSVD``)."""
    from repro.tensornetwork.einsumsvd import ExplicitSVD, ImplicitRandomizedSVD

    if option is None:
        return None
    out: Dict[str, Any] = {
        "rank": option.rank,
        "cutoff": option.cutoff,
        "absorb": option.absorb,
    }
    if isinstance(option, ImplicitRandomizedSVD):
        seed = option.seed
        if seed is not None and not isinstance(seed, (int, np.integer)):
            raise SerializationError(
                "only integer (or None) seeds are serializable; pass an int seed "
                "to ImplicitRandomizedSVD for checkpointable runs"
            )
        out.update(
            kind="implicit",
            niter=option.niter,
            oversample=option.oversample,
            orth_method=option.orth_method,
            seed=None if seed is None else int(seed),
        )
    elif isinstance(option, ExplicitSVD):
        out["kind"] = "explicit"
    else:
        raise SerializationError(f"unsupported einsumsvd option {type(option).__name__}")
    return out


def svd_option_from_dict(payload: Optional[Dict[str, Any]]):
    from repro.tensornetwork.einsumsvd import ExplicitSVD, ImplicitRandomizedSVD

    if payload is None:
        return None
    kind = payload.get("kind", "explicit")
    common = dict(
        rank=payload.get("rank"),
        cutoff=payload.get("cutoff"),
        absorb=payload.get("absorb", "even"),
    )
    if kind == "explicit":
        return ExplicitSVD(**common)
    if kind == "implicit":
        return ImplicitRandomizedSVD(
            niter=payload.get("niter", 1),
            oversample=payload.get("oversample", 2),
            orth_method=payload.get("orth_method", "auto"),
            seed=payload.get("seed"),
            **common,
        )
    raise SerializationError(f"unknown einsumsvd option kind {kind!r}")


def contract_option_to_dict(option) -> Optional[Dict[str, Any]]:
    """Serialize a contraction option (``Exact``/``BMPS``/``TwoLayerBMPS``/``CTMOption``)."""
    from repro.peps.contraction.options import BMPS, CTMOption, Exact, TwoLayerBMPS

    if option is None:
        return None
    if isinstance(option, Exact):
        return {"kind": "exact"}
    if isinstance(option, CTMOption):
        return {
            "kind": "ctm",
            "chi": option.chi,
            "cutoff": option.cutoff,
            "tol": option.tol,
            "max_sweeps": option.max_sweeps,
        }
    if isinstance(option, TwoLayerBMPS):
        kind = "two_layer_bmps"
    elif isinstance(option, BMPS):
        kind = "bmps"
    else:
        raise SerializationError(f"unsupported contraction option {type(option).__name__}")
    return {
        "kind": kind,
        "svd": svd_option_to_dict(option.svd_option),
        "truncate_bond": option.truncate_bond,
    }


def contract_option_from_dict(payload: Optional[Dict[str, Any]]):
    from repro.peps.contraction.options import BMPS, CTMOption, Exact, TwoLayerBMPS

    if payload is None:
        return None
    kind = payload["kind"]
    if kind == "exact":
        return Exact()
    if kind == "ctm":
        return CTMOption(
            chi=payload.get("chi"),
            cutoff=payload.get("cutoff"),
            tol=payload.get("tol", 1e-10),
            max_sweeps=payload.get("max_sweeps", 4),
        )
    if kind in ("bmps", "two_layer_bmps"):
        cls = TwoLayerBMPS if kind == "two_layer_bmps" else BMPS
        return cls(
            svd_option=svd_option_from_dict(payload.get("svd")),
            truncate_bond=payload.get("truncate_bond"),
        )
    raise SerializationError(f"unknown contraction option kind {kind!r}")


def update_option_to_dict(option) -> Optional[Dict[str, Any]]:
    """Serialize a two-site update option (``QRUpdate`` family)."""
    from repro.peps.update import (
        DirectUpdate,
        LocalGramQRSVDUpdate,
        LocalGramQRUpdate,
        QRUpdate,
    )

    if option is None:
        return None
    # Subclasses first: LocalGram* extend QRUpdate.
    if isinstance(option, LocalGramQRSVDUpdate):
        kind = "local_gram_qr_svd"
    elif isinstance(option, LocalGramQRUpdate):
        kind = "local_gram_qr"
    elif isinstance(option, QRUpdate):
        kind = "qr"
    elif isinstance(option, DirectUpdate):
        kind = "direct"
    else:
        raise SerializationError(f"unsupported update option {type(option).__name__}")
    return {
        "kind": kind,
        "rank": option.rank,
        "cutoff": option.cutoff,
        "svd": svd_option_to_dict(option.svd_option),
    }


def update_option_from_dict(payload: Optional[Dict[str, Any]]):
    from repro.peps.update import (
        DirectUpdate,
        LocalGramQRSVDUpdate,
        LocalGramQRUpdate,
        QRUpdate,
    )

    if payload is None:
        return None
    classes = {
        "qr": QRUpdate,
        "direct": DirectUpdate,
        "local_gram_qr": LocalGramQRUpdate,
        "local_gram_qr_svd": LocalGramQRSVDUpdate,
    }
    kind = payload["kind"]
    if kind not in classes:
        raise SerializationError(f"unknown update option kind {kind!r}")
    return classes[kind](
        rank=payload.get("rank"),
        cutoff=payload.get("cutoff"),
        svd_option=svd_option_from_dict(payload.get("svd")),
    )


# --------------------------------------------------------------------- #
# MPS
# --------------------------------------------------------------------- #
def mps_to_dict(mps, store: Optional[PayloadStore] = None, prefix: str = "mps") -> Dict[str, Any]:
    """Versioned state dict of an :class:`~repro.mps.mps.MPS`."""
    backend = mps.backend
    return {
        "format_version": FORMAT_VERSION,
        "type": "MPS",
        "backend": backend.name,
        "tensors": [
            encode_tensor(backend, t, store, f"{prefix}/tensors/{i}")
            for i, t in enumerate(mps.tensors)
        ],
    }


def mps_from_dict(
    payload: Dict[str, Any],
    backend: Union[str, Backend, None] = None,
    store: Optional[PayloadStore] = None,
):
    """Rebuild an MPS from :func:`mps_to_dict` output (bitwise exact)."""
    from repro.mps.mps import MPS

    check_payload(payload, "MPS")
    backend = get_backend(backend if backend is not None else payload["backend"])
    tensors = [decode_tensor(backend, t, store) for t in payload["tensors"]]
    return MPS(tensors, backend)


# --------------------------------------------------------------------- #
# PEPS and attached environments
# --------------------------------------------------------------------- #
def _ctm_state_to_dict(env, store: Optional[PayloadStore], prefix: str) -> Dict[str, Any]:
    """The CTM-specific warm state: per-level corner spectra and convergence."""
    return {
        "upper_spectra": {
            str(level): [
                encode_tensor(env.backend, np.asarray(s), store,
                              f"{prefix}/upper_spectra/{level}/{i}")
                for i, s in enumerate(spectra)
            ]
            for level, spectra in env.upper_spectra.items()
        },
        "lower_spectra": {
            str(level): [
                encode_tensor(env.backend, np.asarray(s), store,
                              f"{prefix}/lower_spectra/{level}/{i}")
                for i, s in enumerate(spectra)
            ]
            for level, spectra in env.lower_spectra.items()
        },
        "converged": bool(env.converged),
        "n_sweeps": int(env.n_sweeps),
    }


def _restore_ctm_state(env, payload: Dict[str, Any], store: Optional[PayloadStore]) -> None:
    env.upper_spectra = {
        int(level): [decode_array(s, store) for s in spectra]
        for level, spectra in payload.get("upper_spectra", {}).items()
    }
    env.lower_spectra = {
        int(level): [decode_array(s, store) for s in spectra]
        for level, spectra in payload.get("lower_spectra", {}).items()
    }
    env.converged = bool(payload.get("converged", False))
    env.n_sweeps = int(payload.get("n_sweeps", 0))


def environment_to_dict(
    env, store: Optional[PayloadStore] = None, prefix: str = "env"
) -> Dict[str, Any]:
    """Serialize a boundary environment: its defining option plus warm caches.

    The cached upper/lower boundaries are stored so that a restored
    environment resumes with the same warm state (no recontraction on the
    first query); the validity counters make partially built caches
    round-trip too.  A CTM environment additionally stores its converged
    corner spectra per boundary level.
    """
    from repro.peps.envs.boundary import BoundaryEnvironment, EnvBoundaryMPS, EnvExact
    from repro.peps.envs.ctm import EnvCTM

    if not isinstance(env, BoundaryEnvironment):
        raise SerializationError(f"unsupported environment type {type(env).__name__}")
    backend = env.backend
    ctm_state = None
    if isinstance(env, EnvExact):
        option_payload: Dict[str, Any] = {"kind": "exact"}
    elif isinstance(env, EnvCTM):
        option_payload = contract_option_to_dict(env.contract_option)
        ctm_state = _ctm_state_to_dict(env, store, f"{prefix}/ctm")
    elif isinstance(env, EnvBoundaryMPS):
        option_payload = contract_option_to_dict(env.contract_option)
    else:
        option_payload = {
            "kind": "bmps",
            "svd": svd_option_to_dict(env.svd_option),
            "truncate_bond": env.max_bond,
        }
    payload = {
        "format_version": FORMAT_VERSION,
        "type": "Environment",
        "contract_option": option_payload,
        "upper_valid": env._upper_valid,
        "lower_valid": env._lower_valid,
        "upper": [
            [
                encode_tensor(backend, t, store, f"{prefix}/upper/{i}/{j}")
                for j, t in enumerate(env._upper[i])
            ]
            for i in range(1, env._upper_valid + 1)
        ],
        "lower": [
            [
                encode_tensor(backend, t, store, f"{prefix}/lower/{i}/{j}")
                for j, t in enumerate(env._lower[i])
            ]
            for i in range(env._lower_valid, env.nrow - 1)
        ],
    }
    if ctm_state is not None:
        payload["ctm_state"] = ctm_state
    return payload


def attach_environment_from_dict(
    peps, payload: Dict[str, Any], store: Optional[PayloadStore] = None
):
    """Attach the serialized environment to ``peps`` and restore its caches."""
    from repro.peps.envs.ctm import EnvCTM

    check_payload(payload, "Environment")
    option = contract_option_from_dict(payload["contract_option"])
    env = peps.attach_environment(option)
    backend = peps.backend
    upper_valid = int(payload.get("upper_valid", 0))
    lower_valid = int(payload.get("lower_valid", peps.nrow - 1))
    for offset, boundary in enumerate(payload.get("upper", ())):
        env._upper[offset + 1] = [decode_tensor(backend, t, store) for t in boundary]
    for offset, boundary in enumerate(payload.get("lower", ())):
        env._lower[lower_valid + offset] = [decode_tensor(backend, t, store) for t in boundary]
    env._upper_valid = upper_valid
    env._lower_valid = lower_valid
    if isinstance(env, EnvCTM) and payload.get("ctm_state") is not None:
        _restore_ctm_state(env, payload["ctm_state"], store)
    return env


def peps_to_dict(
    peps,
    include_environment: bool = True,
    store: Optional[PayloadStore] = None,
    prefix: str = "peps",
) -> Dict[str, Any]:
    """Versioned state dict of a :class:`~repro.peps.peps.PEPS`.

    ``include_environment=True`` also serializes an attached environment
    (its contraction option and warm boundary caches).  With a
    :class:`PayloadStore`, tensor payloads are keyed
    ``{prefix}/tensors/{row}/{col}`` and ``{prefix}/env/...``.
    """
    backend = peps.backend
    payload: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "type": "PEPS",
        "backend": backend.name,
        "nrow": peps.nrow,
        "ncol": peps.ncol,
        "tensors": [
            [
                encode_tensor(backend, peps.grid[i][j], store, f"{prefix}/tensors/{i}/{j}")
                for j in range(peps.ncol)
            ]
            for i in range(peps.nrow)
        ],
        "environment": None,
    }
    if include_environment and peps.environment is not None:
        payload["environment"] = environment_to_dict(
            peps.environment, store, f"{prefix}/env"
        )
    return payload


def peps_from_dict(
    payload: Dict[str, Any],
    backend: Union[str, Backend, None] = None,
    store: Optional[PayloadStore] = None,
):
    """Rebuild a PEPS (and its attached environment) bitwise-exactly."""
    from repro.peps.peps import PEPS

    check_payload(payload, "PEPS")
    backend = get_backend(backend if backend is not None else payload["backend"])
    grid = [[decode_tensor(backend, t, store) for t in row] for row in payload["tensors"]]
    peps = PEPS(grid, backend)
    if payload.get("environment") is not None:
        attach_environment_from_dict(peps, payload["environment"], store)
    return peps


# --------------------------------------------------------------------- #
# Checkpoint files
# --------------------------------------------------------------------- #
def atomic_write_json(path: Union[str, os.PathLike], payload: Dict[str, Any]) -> str:
    """Write JSON atomically: temp file in the same directory, fsync, replace.

    A crash mid-write leaves the previous checkpoint intact; readers never
    observe a torn file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return path


def checkpoint_filename(name: str, step: int) -> str:
    return f"{name}-step{int(step):06d}.ckpt.json"


def sidecar_filename(name: str, step: int) -> str:
    """The npz sidecar living next to :func:`checkpoint_filename`."""
    return f"{name}-step{int(step):06d}.ckpt.npz"


def sidecar_for(json_path: str) -> str:
    """The sidecar path belonging to a checkpoint JSON path."""
    return json_path[: -len(".json")] + ".npz"


def shard_filename(name: str, step: int, rank: int) -> str:
    """Rank ``rank``'s payload file of a sharded-format checkpoint."""
    return f"{name}-step{int(step):06d}.ckpt.rank{int(rank)}.npz"


def _shard_files_for(json_path: str) -> List[str]:
    """Every on-disk ``.ckpt.rank<r>.npz`` file belonging to a checkpoint.

    Scans the directory rather than trusting the document: pruning must also
    sweep rank files from a superseded session that ran with more ranks.
    """
    stem = json_path[: -len(".json")]  # ...-stepNNNNNN.ckpt
    directory = os.path.dirname(stem) or "."
    base = os.path.basename(stem)
    out: List[str] = []
    if not os.path.isdir(directory):
        return out
    for entry in os.listdir(directory):
        if not entry.startswith(base + ".rank") or not entry.endswith(".npz"):
            continue
        rank_part = entry[len(base) + len(".rank"): -len(".npz")]
        if rank_part.isdigit():
            out.append(os.path.join(directory, entry))
    return out


def _list_shard_files(
    directory: Union[str, os.PathLike], name: Optional[str]
) -> List[Tuple[int, str]]:
    """All ``<name>-step<N>.ckpt.rank<r>.npz`` files in ``directory``."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return []
    out: List[Tuple[int, str]] = []
    for entry in os.listdir(directory):
        if not entry.endswith(".npz"):
            continue
        stem, sep, rank_part = entry[: -len(".npz")].rpartition(".rank")
        if not sep or not rank_part.isdigit() or not stem.endswith(".ckpt"):
            continue
        base, sep, step_part = stem[: -len(".ckpt")].rpartition("-step")
        if not sep or not step_part.isdigit():
            continue
        if name is not None and base != name:
            continue
        out.append((int(step_part), os.path.join(directory, entry)))
    return out


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_checkpoint(
    directory: Union[str, os.PathLike],
    name: str,
    step: int,
    spec_dict: Dict[str, Any],
    workload_state: Dict[str, Any],
    records: List[Dict[str, Any]],
    keep: int = 3,
    store: Optional[PayloadStore] = None,
) -> str:
    """Atomically persist one checkpoint and prune old ones (keep the newest ``keep``).

    ``store`` must be the :class:`PayloadStore` that ``workload_state`` was
    serialized through (``None`` means inline).  An npz store's arrays are
    written to the ``.ckpt.npz`` sidecar *before* the JSON document replaces
    the previous checkpoint, so readers never observe a document whose
    sidecar is missing; the document additionally records the sidecar's
    SHA-256 (verified by :func:`open_payload_store`), so a crash between
    the two replaces — which can leave an older document next to a newer
    sidecar when the same step is rewritten — is a loud restore error
    instead of silently mixed tensors.  A store with no registered arrays
    (e.g. a VQE parameter vector, all inline) writes no sidecar at all.
    """
    directory = os.fspath(directory)
    payload = {
        "format_version": FORMAT_VERSION,
        "type": "Checkpoint",
        "name": name,
        "step": int(step),
        "payload_format": store.kind if store is not None else PAYLOAD_INLINE,
        "sidecar": None,
        "spec": spec_dict,
        "workload_state": workload_state,
        "records": records,
    }
    if isinstance(store, NpzPayloadStore) and store.paths:
        sidecar = sidecar_filename(name, step)
        payload["sidecar"] = sidecar
        store.save(os.path.join(directory, sidecar))
        payload["sidecar_sha256"] = store.last_digest
    elif isinstance(store, ShardedPayloadStore) and store.paths:
        # Rank files land before the JSON document replaces the previous
        # checkpoint, same ordering discipline as the npz sidecar.
        payload["shards"] = store.save_shards(directory, name, step)
    path = os.path.join(directory, checkpoint_filename(name, step))
    atomic_write_json(path, payload)
    if keep and keep > 0:
        existing = sorted(_list_checkpoints(directory, name))
        for _, stale in existing[:-keep]:
            _unlink_quiet(stale)
            _unlink_quiet(sidecar_for(stale))
            for shard in _shard_files_for(stale):
                _unlink_quiet(shard)
    return path


def clear_checkpoints(directory: Union[str, os.PathLike], name: str) -> int:
    """Delete every checkpoint of the named run; returns how many were removed.

    A fresh (non-resume) run calls this before its first checkpoint so stale
    files from a superseded session can neither shadow the new run's
    checkpoints in the step-sorted pruning nor be picked up by a later
    ``--resume``.  Sidecars are removed along with their JSON documents —
    including orphans whose document is already gone.
    """
    removed = 0
    for _, path in _list_checkpoints(directory, name):
        if _unlink_quiet(path):
            removed += 1
        _unlink_quiet(sidecar_for(path))
        for shard in _shard_files_for(path):
            _unlink_quiet(shard)
    for _, sidecar in _list_checkpoint_files(directory, name, ".ckpt.npz"):
        _unlink_quiet(sidecar)
    for _, shard in _list_shard_files(directory, name):
        _unlink_quiet(shard)
    return removed


def _unlink_quiet(path: str) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def load_checkpoint(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    with open(os.fspath(path)) as handle:
        payload = json.load(handle)
    check_payload(payload, "Checkpoint")
    return payload


def open_payload_store(
    payload: Dict[str, Any], path: Union[str, os.PathLike, None] = None
) -> PayloadStore:
    """The store that resolves a loaded checkpoint's tensor payloads.

    ``path`` is the checkpoint's JSON path, used to locate the sidecar next
    to it.  Inline-format checkpoints (including every pre-npz document)
    get an :class:`InlinePayloadStore`; npz-format checkpoints get a
    read-only :class:`NpzPayloadStore` over their sidecar (or an empty one
    when the checkpoint carried no sidecar).  Close the returned store when
    done restoring.
    """
    payload_format = payload.get("payload_format", PAYLOAD_INLINE)
    if payload_format not in PAYLOAD_FORMATS:
        raise SerializationError(
            f"unknown payload format {payload_format!r}; expected one of {PAYLOAD_FORMATS}"
        )
    if payload_format == PAYLOAD_INLINE:
        return InlinePayloadStore()
    if payload_format == PAYLOAD_SHARDED:
        shards = payload.get("shards") or []
        if not shards:
            return ShardedPayloadStore()
        if path is None:
            raise SerializationError(
                "checkpoint references rank files; pass the checkpoint path "
                "so they can be located"
            )
        base = os.path.dirname(os.fspath(path)) or "."
        shard_paths = []
        for entry in shards:
            shard_path = os.path.join(base, entry["file"])
            if not os.path.exists(shard_path):
                raise SerializationError(
                    f"checkpoint rank file {shard_path!r} is missing; the "
                    f"checkpoint cannot be restored without it"
                )
            expected = entry.get("sha256")
            if expected is not None and _file_sha256(shard_path) != expected:
                raise SerializationError(
                    f"checkpoint rank file {shard_path!r} does not match the "
                    f"digest recorded in the checkpoint document (torn rewrite "
                    f"or external modification); refusing to restore mixed "
                    f"tensors"
                )
            shard_paths.append(shard_path)
        return ShardedPayloadStore.open(shard_paths)
    sidecar = payload.get("sidecar")
    if sidecar is None:
        return NpzPayloadStore()
    if path is None:
        raise SerializationError(
            "checkpoint references a sidecar; pass the checkpoint path so it "
            "can be located"
        )
    sidecar_path = os.path.join(os.path.dirname(os.fspath(path)) or ".", sidecar)
    if not os.path.exists(sidecar_path):
        raise SerializationError(
            f"checkpoint sidecar {sidecar_path!r} is missing; the checkpoint "
            f"cannot be restored without it"
        )
    expected = payload.get("sidecar_sha256")
    if expected is not None and _file_sha256(sidecar_path) != expected:
        raise SerializationError(
            f"checkpoint sidecar {sidecar_path!r} does not match the digest "
            f"recorded in the checkpoint document (torn rewrite or external "
            f"modification); refusing to restore mixed tensors"
        )
    return NpzPayloadStore.open(sidecar_path)


def latest_checkpoint(
    directory: Union[str, os.PathLike], name: Optional[str] = None
) -> Optional[str]:
    """Path of the highest-step checkpoint in ``directory`` (``None`` if empty)."""
    found = _list_checkpoints(directory, name)
    if not found:
        return None
    return max(found)[1]


def _list_checkpoints(
    directory: Union[str, os.PathLike], name: Optional[str]
) -> List[Tuple[int, str]]:
    return _list_checkpoint_files(directory, name, ".ckpt.json")


def _list_checkpoint_files(
    directory: Union[str, os.PathLike], name: Optional[str], suffix: str
) -> List[Tuple[int, str]]:
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return []
    out: List[Tuple[int, str]] = []
    for entry in os.listdir(directory):
        if not entry.endswith(suffix):
            continue
        stem = entry[: -len(suffix)]
        base, sep, step_part = stem.rpartition("-step")
        if not sep or not step_part.isdigit():
            continue
        if name is not None and base != name:
            continue
        out.append((int(step_part), os.path.join(directory, entry)))
    return out


def check_payload(payload: Dict[str, Any], expected_type: str) -> None:
    """Validate a serialized document's ``type`` tag and ``format_version``.

    Every persistent artifact of the runner (checkpoints, state dicts, the
    sweep manifest) carries both fields; mismatches raise
    :class:`SerializationError` instead of silently misreading the file.
    """
    if not isinstance(payload, dict) or payload.get("type") != expected_type:
        raise SerializationError(
            f"expected a serialized {expected_type}, got "
            f"{payload.get('type') if isinstance(payload, dict) else type(payload).__name__!r}"
        )
    version = payload.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise SerializationError(
            f"unsupported {expected_type} format version {version!r} "
            f"(this build reads versions {SUPPORTED_FORMAT_VERSIONS})"
        )

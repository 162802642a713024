"""Versioned serialization for simulation state (checkpoint/resume).

Every persistent artifact of the simulation runner — checkpoints, result
documents, run specs — is a plain JSON document.  Tensor data is encoded
losslessly so that a state restored from a checkpoint is *bitwise identical*
to the one that was saved; combined with the library's per-call seeding of
randomized algorithms this makes a resumed run reproduce an uninterrupted
one float-for-float.

Tensor payloads go through a :class:`PayloadStore`, which decides where the
bytes live (the on-disk contract is specified in
``docs/checkpoint-format.md``).  One store *writes* checkpoints:
:class:`NpzPayloadStore` (one ``.npz`` sidecar next to the JSON document).
Two read what earlier builds wrote: :class:`ShardedPayloadStore` (one
``.ckpt.rank<r>.npz`` file per backend rank) and :class:`InlinePayloadStore`
(base64 inside the document), which also encodes in-memory state dicts
built with ``store=None``.

The module provides ``to_dict``/``from_dict`` pairs, written once against
the store interface (``to_dict(obj, store=...)``), for

* :class:`~repro.peps.peps.PEPS` (with its attached environment) —
  ``peps_to_dict`` / ``peps_from_dict``,
* einsumsvd / contraction / update option objects — :func:`option_to_dict`
  and the ``*_option_from_dict`` readers.  There is one codec and no
  per-class code: it walks ``dataclasses.fields`` of the option class, so a
  field added to an option dataclass is serialized, accepted in spec files
  and validated with no edit here,
* whole checkpoint payloads — ``write_checkpoint`` (atomic: payload files
  first, then temp file, fsync, ``os.replace`` for the JSON document) /
  ``load_checkpoint`` + ``open_payload_store`` / ``latest_checkpoint``.

Every dict carries a ``format_version``; writers stamp :data:`FORMAT_VERSION`
and readers accept only it.  The readers of whole documents run
:func:`repro.sim.upgrade.upgrade` first, so every codec here reads the
current schema alone.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import hashlib
import io as stdlib_io
import json
import os
import re
import tempfile
import zipfile
import zlib
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.backends import get_backend
from repro.backends.interface import Backend
from repro.peps.contraction.options import CONTRACT_OPTION_KINDS
from repro.peps.update import UPDATE_OPTION_KINDS
from repro.sim.upgrade import CHECKPOINT, CONTRACTION, EINSUMSVD, ENVIRONMENT, UPDATE, upgrade
from repro.tensornetwork.einsumsvd import SVD_OPTION_KINDS
from repro.utils.text import did_you_mean

#: Version of the on-disk checkpoint / state-dict format (what writers stamp
#: and readers accept).
FORMAT_VERSION = 2

#: Payload format names, as a checkpoint document's ``payload_format``
#: records them; readers dispatch on them.  Checkpoints are written as npz;
#: the inline and sharded formats of earlier builds are still read.
PAYLOAD_INLINE = "inline"
PAYLOAD_NPZ = "npz"
PAYLOAD_SHARDED = "sharded"

#: Arrays smaller than this many bytes stay inline even under the npz store:
#: one zip member costs ~250 bytes of container overhead (local + central
#: headers, the ``.npy`` header, the member name twice), which exceeds the
#: base64 cost of a tiny array.
NPZ_INLINE_THRESHOLD = 512


class SerializationError(ValueError):
    """Raised when a state dict cannot be serialized or restored."""


# --------------------------------------------------------------------- #
# Tensor encodings
# --------------------------------------------------------------------- #
def _encode_array(array: np.ndarray, compact: bool = False) -> Dict[str, Any]:
    """Lossless JSON encoding of a plain NumPy array: base64 of its raw bytes
    (``"data"``, the v1 encoding).

    ``compact`` — used for sub-threshold arrays inside npz-format documents —
    zlib-compresses the bytes first (``"z"``) whenever that is smaller; very
    small or incompressible arrays keep the raw form.
    """
    array = np.ascontiguousarray(array)
    key, raw = "data", array.tobytes()
    if compact:
        packed = zlib.compress(raw, 9)
        if len(packed) < len(raw):
            key, raw = "z", packed
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        key: base64.b64encode(raw).decode("ascii"),
    }


def _decode_array(payload: Dict[str, Any]) -> np.ndarray:
    if "z" in payload:
        raw = zlib.decompress(base64.b64decode(payload["z"]))
    elif "data" in payload:
        raw = base64.b64decode(payload["data"])
    else:
        raise SerializationError(
            f"not an inline tensor payload (keys {sorted(payload)}); a reference "
            "into a checkpoint's npz sidecar or rank files needs its store: open "
            "it with io.open_payload_store and pass it as store="
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

    A store also knows its half of the checkpoint contract: the npz store,
    the one that writes, has a ``write_files`` landing whatever ``put``
    collected next to a checkpoint document and returning the fields that
    document records about it, and every store's :meth:`for_document`
    reopens those files (digest-verified) from a loaded document.
    """

    kind = PAYLOAD_INLINE

    def put(self, path: str, array: np.ndarray) -> Dict[str, Any]:
        raise SerializationError(f"no checkpoint is written in the {self.kind} format")

    def get(self, payload: Dict[str, Any]) -> np.ndarray:
        return _decode_array(payload)

    @classmethod
    def for_document(cls, document: Dict[str, Any], directory: Optional[str]):
        """Read-side store over the files a checkpoint ``document`` lists,
        looked up in ``directory`` (``None``: unknown, an error if needed)."""
        return cls()

    def close(self) -> None:
        """Release any underlying file handle (no-op for inline stores)."""


class InlinePayloadStore(PayloadStore):
    """Embed every array in the JSON document (raw base64 encoding).

    The encoding of in-memory state dicts (``store=None``) and the reader of
    ``"inline"`` checkpoints; no checkpoint is written through it.
    """

    def put(self, path: str, array: np.ndarray) -> Dict[str, Any]:
        return _encode_array(array)


#: Stateless store used whenever no explicit store is passed.
_INLINE_STORE = InlinePayloadStore()


class _HashingWriter:
    """Write-only tee that SHA-256-hashes everything written through it.

    Having neither ``seek`` nor ``tell``, it makes :mod:`zipfile` stream
    members with data descriptors instead of seeking back to patch local
    headers — every byte is written exactly once, so the running hash equals
    the file's hash.
    """

    def __init__(self, handle) -> None:
        self._handle = handle
        self._hash = hashlib.sha256()
        self.flush = handle.flush
        self.hexdigest = self._hash.hexdigest

    def write(self, data) -> int:
        self._hash.update(data)
        return self._handle.write(data)


def _verified_file(
    directory: Optional[str], filename: str, sha256: Optional[str], what: str
) -> str:
    """Path of a payload file a checkpoint document lists — present and,
    when the document recorded a digest, byte-for-byte the file it wrote."""
    if directory is None:
        raise SerializationError(
            f"checkpoint references a {what}; pass the checkpoint path so it "
            f"can be located"
        )
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        raise SerializationError(
            f"checkpoint {what} {path!r} is missing; the checkpoint cannot be "
            f"restored without it"
        )
    if sha256 is not None and _file_sha256(path) != sha256:
        raise SerializationError(
            f"checkpoint {what} {path!r} does not match the digest recorded "
            f"in the checkpoint document (torn rewrite or external "
            f"modification); refusing to restore mixed tensors"
        )
    return path


class _FilePayloadStore(PayloadStore):
    """What the npz and sharded readers share: the store wraps open npz
    handles; ``get`` decodes inline payloads directly and hands
    ``{<ref>: key, ...}`` references to :meth:`_read`.
    """

    ref = ""        # the payload key marking a reference into this store

    def __init__(self) -> None:
        self._handles: Optional[List[Any]] = None

    @classmethod
    def open(cls, *paths: Union[str, os.PathLike]) -> "_FilePayloadStore":
        """Read-only store over existing payload files: the sidecar, or every
        rank file in rank order."""
        store = cls()
        store._handles = [np.load(os.fspath(path)) for path in paths]
        return store

    def get(self, payload: Dict[str, Any]) -> np.ndarray:
        key = payload.get(self.ref)
        if key is None:
            return _decode_array(payload)
        return self._read(key, payload)

    def _read(self, key: str, payload: Dict[str, Any]) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        for handle in self._handles or ():
            handle.close()
        self._handles = None


class NpzPayloadStore(_FilePayloadStore):
    """The checkpoint writer: collect arrays for an ``.npz`` sidecar, keyed
    by payload path.

    ``put`` keeps arrays below ``inline_threshold`` bytes in the document,
    in the compact inline encoding, and registers every other array under
    its payload path — bitwise-identical content once, later copies sharing
    the first key — returning ``{"npz": key}``.  :meth:`save` writes the
    registered arrays as one deterministic, deflate-compressed npz file (a
    plain zip of ``<key>.npy`` members readable by ``numpy.load``);
    :meth:`open` wraps an existing sidecar, whose members decompress lazily,
    one zip read per ``get``.
    """

    kind = PAYLOAD_NPZ
    ref = "npz"

    def __init__(self, inline_threshold: int = NPZ_INLINE_THRESHOLD) -> None:
        super().__init__()
        self.inline_threshold = int(inline_threshold)
        self._arrays: Dict[str, np.ndarray] = {}
        self._by_digest: Dict[Tuple[str, Tuple[int, ...], bytes], str] = {}

    @property
    def paths(self) -> List[str]:
        """The payload paths registered so far."""
        return list(self._arrays)

    def put(self, path: str, array: np.ndarray) -> Dict[str, Any]:
        if self._handles is not None:
            raise SerializationError("this payload store was opened read-only")
        array = np.ascontiguousarray(array)
        if array.nbytes < self.inline_threshold:
            return _encode_array(array, compact=True)
        # array.data hashes the buffer in place; tobytes() would copy it.
        digest = (array.dtype.str, array.shape, hashlib.sha256(array.data).digest())
        key = self._by_digest.get(digest)
        if key is None:
            if path in self._arrays:
                raise SerializationError(f"duplicate payload path {path!r}")
            self._arrays[path] = array
            self._by_digest[digest] = key = path
        return {"npz": key}

    def _read(self, key: str, payload: Dict[str, Any]) -> np.ndarray:
        if self._handles is None:
            if key in self._arrays:
                return self._arrays[key].copy()
            raise SerializationError(f"unknown npz payload key {key!r}")
        (sidecar,) = self._handles
        if key not in sidecar.files:
            raise SerializationError(f"payload {key!r} is missing from the npz sidecar")
        return np.asarray(sidecar[key])

    def save(self, path: Union[str, os.PathLike]) -> str:
        """Atomically write the registered arrays as an npz file; returns its
        SHA-256, accumulated while streaming (no re-read).

        Fixed member timestamps, insertion order and deflate level 9 make
        the zip bytes a pure function of the arrays: identical state always
        produces identical sidecar bytes.
        """
        with _atomic_file(os.fspath(path), "wb") as handle:
            writer = _HashingWriter(handle)
            with zipfile.ZipFile(writer, "w", zipfile.ZIP_DEFLATED) as archive:
                for key, array in self._arrays.items():
                    info = zipfile.ZipInfo(key + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
                    member = stdlib_io.BytesIO()
                    np.lib.format.write_array(member, array, allow_pickle=False)
                    archive.writestr(info, member.getvalue(), zipfile.ZIP_DEFLATED, 9)
        return writer.hexdigest()

    def write_files(self, directory: str, name: str, step: int) -> Dict[str, Any]:
        """Write the sidecar of checkpoint ``(name, step)``; returns the
        checkpoint-document fields describing it."""
        # A store with no registered arrays (e.g. a VQE parameter vector, all
        # inline) writes no sidecar at all.
        if not self._arrays:
            return {}
        sidecar = checkpoint_filename(name, step, "npz")
        return {"sidecar": sidecar, "sidecar_sha256": self.save(os.path.join(directory, sidecar))}

    @classmethod
    def for_document(cls, document: Dict[str, Any], directory: Optional[str]):
        sidecar = document.get("sidecar")
        if sidecar is None:
            return cls()
        return cls.open(
            _verified_file(directory, sidecar, document.get("sidecar_sha256"), "sidecar")
        )


class ShardedPayloadStore(_FilePayloadStore):
    """Reader of the per-rank checkpoints earlier builds wrote for the
    distributed backend; no checkpoint is written through it.

    Such a checkpoint lists one ``.ckpt.rank<r>.npz`` file per rank, holding
    rank ``r``'s contiguous block of every large array.  A reference
    ``{"shard": key, "dtype", "shape", "grid"}`` records the block
    :class:`~repro.backends.distributed.distribution.Distribution` its array
    was split by; ``get`` loads each rank's block and reassembles it
    bitwise, on any backend and any rank count.
    """

    kind = PAYLOAD_SHARDED
    ref = "shard"

    def _read(self, key: str, payload: Dict[str, Any]) -> np.ndarray:
        from repro.backends.distributed.distribution import (
            Distribution,
            ProcessorGrid,
        )

        dist = Distribution(
            shape=tuple(int(d) for d in payload["shape"]),
            grid=ProcessorGrid(dims=tuple(int(g) for g in payload["grid"])),
        )
        handles = self._handles or []
        if dist.nprocs > len(handles):
            raise SerializationError(
                f"payload {key!r} needs {dist.nprocs} rank files, the "
                f"checkpoint lists {len(handles)}"
            )
        blocks = []
        for rank, handle in enumerate(handles[: dist.nprocs]):
            if key not in handle.files:
                raise SerializationError(
                    f"payload {key!r} is missing from rank file {rank}"
                )
            blocks.append(np.asarray(handle[key]))
        array = dist.reassemble(blocks)
        return array.astype(np.dtype(payload["dtype"]), copy=False)

    @classmethod
    def for_document(cls, document: Dict[str, Any], directory: Optional[str]):
        shards = document.get("shards") or []
        if not shards:
            return cls()
        return cls.open(*(
            _verified_file(directory, entry["file"], entry.get("sha256"), "rank file")
            for entry in shards
        ))


#: Every payload format this build reads -> the store that resolves it.
_STORES = {
    store.kind: store for store in (InlinePayloadStore, NpzPayloadStore, ShardedPayloadStore)
}


def encode_tensor(
    backend: Backend, tensor, store: Optional[PayloadStore] = None, path: str = ""
) -> Dict[str, Any]:
    """Lossless JSON payload for one backend tensor, via ``store`` if given."""
    array = np.asarray(backend.asarray(tensor))
    return (store if store is not None else _INLINE_STORE).put(path, array)


def _encode_tensors(backend: Backend, tensors, store: Optional[PayloadStore], prefix: str) -> List:
    """Payloads of a tensor list, keyed ``<prefix>/<index>``."""
    return [encode_tensor(backend, t, store, f"{prefix}/{i}") for i, t in enumerate(tensors)]


def decode_array(payload: Dict[str, Any], store: Optional[PayloadStore] = None) -> np.ndarray:
    """Rebuild a NumPy array from any payload encoding (inline or npz ref)."""
    return (store if store is not None else _INLINE_STORE).get(payload)


def decode_tensor(backend: Backend, payload: Dict[str, Any], store: Optional[PayloadStore] = None):
    """Rebuild a backend tensor from :func:`encode_tensor` output."""
    return backend.astensor(decode_array(payload, store))


# --------------------------------------------------------------------- #
# Option objects
# --------------------------------------------------------------------- #
#: The one option field whose wire key is not its name: a nested einsumsvd
#: option travels under ``"svd"``.
_WIRE_KEYS = {"svd_option": "svd"}


def option_to_dict(option) -> Optional[Dict[str, Any]]:
    """Serialize any option object: its wire ``kind``, then every dataclass field.

    The dataclass is the schema, for every einsumsvd, contraction and update
    option alike.  A nested einsumsvd option recurses; a randomized-SVD
    ``seed`` must be an integer (or ``None``) to be reproducible from a file.
    """
    if option is None:
        return None
    if not (dataclasses.is_dataclass(option) and hasattr(option, "kind")):
        raise SerializationError(f"unsupported option {type(option).__name__}")
    out: Dict[str, Any] = {"kind": option.kind}
    for field in dataclasses.fields(option):
        value = getattr(option, field.name)
        if field.name == "svd_option":
            value = option_to_dict(value)
        elif field.name == "seed" and value is not None:
            if not isinstance(value, (int, np.integer)):
                raise SerializationError(
                    "only integer (or None) seeds are serializable; pass an int seed "
                    "to ImplicitRandomizedSVD for checkpointable runs"
                )
            value = int(value)
        out[_WIRE_KEYS.get(field.name, field.name)] = value
    return out


def _option_from_dict(payload, kinds: Dict[str, type], family: str, default_kind=None):
    """Build the ``family`` option a dict describes; absent fields take the
    dataclass defaults, keys that are no field of the class are errors."""
    if payload is None:
        return None
    payload = dict(payload)
    kind = payload.pop("kind", default_kind)
    if kind not in kinds:
        raise SerializationError(
            f"unknown {family} kind {kind!r}; known kinds: {sorted(kinds)}"
            f"{did_you_mean(kind, kinds)}"
        )
    names = {_WIRE_KEYS.get(f.name, f.name): f.name for f in dataclasses.fields(kinds[kind])}
    unknown = sorted(set(payload) - set(names))
    if unknown:
        raise SerializationError(
            f"unknown {family} config keys {unknown} for kind {kind!r}; accepted "
            f"fields: {sorted(names)}{did_you_mean(unknown[0], names)}"
        )
    values = {names[key]: value for key, value in payload.items()}
    if "svd_option" in values:
        values["svd_option"] = svd_option_from_dict(values["svd_option"])
    return kinds[kind](**values)


def svd_option_from_dict(payload: Optional[Dict[str, Any]]):
    return _option_from_dict(
        upgrade(payload, EINSUMSVD), SVD_OPTION_KINDS, "einsumsvd", "explicit"
    )


def contract_option_from_dict(payload: Optional[Dict[str, Any]]):
    return _option_from_dict(upgrade(payload, CONTRACTION), CONTRACT_OPTION_KINDS, "contraction")


def update_option_from_dict(payload: Optional[Dict[str, Any]]):
    return _option_from_dict(upgrade(payload, UPDATE), UPDATE_OPTION_KINDS, "update")


svd_option_to_dict = contract_option_to_dict = update_option_to_dict = option_to_dict


# --------------------------------------------------------------------- #
# PEPS and attached environments
# --------------------------------------------------------------------- #
def environment_to_dict(
    env, store: Optional[PayloadStore] = None, prefix: str = "env"
) -> Dict[str, Any]:
    """Serialize a boundary environment: its defining option plus warm caches.

    The cached upper/lower boundaries are stored so that a restored
    environment resumes with the same warm state (no recontraction on the
    first query); the validity counters make partially built caches
    round-trip too.
    """
    if not hasattr(env, "contract_option"):
        raise SerializationError(f"unsupported environment type {type(env).__name__}")
    backend = env.backend
    return {
        "format_version": FORMAT_VERSION,
        "type": "Environment",
        "contract_option": option_to_dict(env.contract_option),
        "upper_valid": env._upper_valid,
        "lower_valid": env._lower_valid,
        "upper": [
            _encode_tensors(backend, env._upper[i], store, f"{prefix}/upper/{i}")
            for i in range(1, env._upper_valid + 1)
        ],
        "lower": [
            _encode_tensors(backend, env._lower[i], store, f"{prefix}/lower/{i}")
            for i in range(env._lower_valid, env.nrow - 1)
        ],
    }


def attach_environment_from_dict(
    peps, payload: Dict[str, Any], store: Optional[PayloadStore] = None
):
    """Attach the serialized environment to ``peps`` and restore its caches."""
    payload = upgrade(payload, ENVIRONMENT)
    check_payload(payload, "Environment")
    option = contract_option_from_dict(payload["contract_option"])
    env = peps.attach_environment(option)
    backend = peps.backend
    env._upper_valid = int(payload.get("upper_valid", 0))
    env._lower_valid = lower_valid = int(payload.get("lower_valid", peps.nrow - 1))
    for offset, boundary in enumerate(payload.get("upper", ())):
        env._upper[offset + 1] = [decode_tensor(backend, t, store) for t in boundary]
    for offset, boundary in enumerate(payload.get("lower", ())):
        env._lower[lower_valid + offset] = [decode_tensor(backend, t, store) for t in boundary]
    return env


def peps_to_dict(
    peps,
    include_environment: bool = True,
    store: Optional[PayloadStore] = None,
) -> Dict[str, Any]:
    """Versioned state dict of a :class:`~repro.peps.peps.PEPS`.

    ``include_environment=True`` also serializes an attached environment
    (its contraction option and warm boundary caches).  With a
    :class:`PayloadStore`, tensor payloads are keyed
    ``peps/tensors/{row}/{col}`` and ``peps/env/...``.
    """
    backend = peps.backend
    payload: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "type": "PEPS",
        "backend": backend.name,
        "nrow": peps.nrow,
        "ncol": peps.ncol,
        "tensors": [
            _encode_tensors(backend, row, store, f"peps/tensors/{i}")
            for i, row in enumerate(peps.grid)
        ],
        "environment": None,
    }
    if include_environment and peps.environment is not None:
        payload["environment"] = environment_to_dict(
            peps.environment, store, "peps/env"
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
@contextlib.contextmanager
def _atomic_file(path: str, mode: str):
    """Open a temp file beside ``path`` for writing; on a clean exit it is
    fsynced and ``os.replace``d onto ``path``, on an error it is removed.

    A crash mid-write leaves the previous file intact; readers never observe
    a torn one.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=os.path.splitext(path)[1]
    )
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_json(path: Union[str, os.PathLike], payload: Dict[str, Any]) -> str:
    """Write JSON atomically (see :func:`_atomic_file`).

    ``json.dumps`` runs the C encoder; ``json.dump`` to a file always takes
    the pure-Python one.  Both write the same bytes.
    """
    path = os.fspath(path)
    with _atomic_file(path, "w") as handle:
        handle.write(json.dumps(payload))
    return path


def checkpoint_filename(name: str, step: int, part: str = "json") -> str:
    """``<name>-step<N>.ckpt.<part>``: a checkpoint's document (``json``), its
    sidecar (``npz``) or a rank file (``rank<r>.npz``)."""
    return f"{name}-step{int(step):06d}.ckpt.{part}"


def sidecar_for(json_path: str) -> str:
    """The sidecar path belonging to a checkpoint JSON path."""
    return json_path[: -len(".json")] + ".npz"


#: Parses what :func:`checkpoint_filename` builds: ``(name, step, part)``.
_CHECKPOINT_FILE = re.compile(r"(.+)-step(\d+)\.ckpt\.(json|npz|rank\d+\.npz)")


def _checkpoint_files(
    directory: Union[str, os.PathLike], name: Optional[str]
) -> List[Tuple[int, str, str]]:
    """``(step, part, path)`` of every checkpoint file of run ``name`` (of any
    run for ``None``) in ``directory``.

    Scans the directory rather than trusting any document: pruning and
    clearing must also sweep sidecars whose document is already gone and
    rank files from a superseded session that ran with more ranks.
    """
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return []
    out: List[Tuple[int, str, str]] = []
    for entry in os.listdir(directory):
        match = _CHECKPOINT_FILE.fullmatch(entry)
        if match and name in (None, match[1]):
            out.append((int(match[2]), match[3], os.path.join(directory, entry)))
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
    store: Optional[NpzPayloadStore] = None,
) -> str:
    """Atomically persist one checkpoint and prune old ones (keep the newest ``keep``).

    ``store`` must be the :class:`NpzPayloadStore` that ``workload_state``
    was serialized through (``None``: a state that references no payload
    file).  Its ``.ckpt.npz`` sidecar is written *before* the JSON document
    replaces the previous checkpoint,
    so readers never observe a document whose payload files are missing; the
    document additionally records each file's SHA-256 (verified by
    :func:`open_payload_store`), so a crash between the two replaces — which
    can leave an older document next to a newer sidecar when the same step
    is rewritten — is a loud restore error instead of silently mixed tensors.
    """
    directory = os.fspath(directory)
    store = store if store is not None else NpzPayloadStore()
    payload = {
        "format_version": FORMAT_VERSION,
        "type": "Checkpoint",
        "name": name,
        "step": int(step),
        "payload_format": store.kind,
        "sidecar": None,
        "spec": spec_dict,
        "workload_state": workload_state,
        "records": records,
    }
    payload.update(store.write_files(directory, name, step))
    path = os.path.join(directory, checkpoint_filename(name, step))
    atomic_write_json(path, payload)
    if keep and keep > 0:
        files = _checkpoint_files(directory, name)
        stale = set(sorted(s for s, part, _ in files if part == "json")[:-keep])
        for file_step, _, file_path in files:
            if file_step in stale:
                _unlink_quiet(file_path)
    return path


def clear_checkpoints(directory: Union[str, os.PathLike], name: str) -> int:
    """Delete every checkpoint of the named run; returns how many were removed.

    A fresh (non-resume) run calls this before its first checkpoint so stale
    files from a superseded session can neither shadow the new run's
    checkpoints in the step-sorted pruning nor be picked up by a later
    ``--resume``.  Sidecars and rank files are removed along with their JSON
    documents — including orphans whose document is already gone.
    """
    removed = 0
    for _, part, path in _checkpoint_files(directory, name):
        if _unlink_quiet(path) and part == "json":
            removed += 1
    return removed


def _unlink_quiet(path: str) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def load_checkpoint(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    with open(os.fspath(path)) as handle:
        payload = upgrade(json.load(handle), CHECKPOINT)
    check_payload(payload, "Checkpoint")
    return payload


def open_payload_store(
    payload: Dict[str, Any], path: Union[str, os.PathLike, None] = None
) -> PayloadStore:
    """The store that resolves a loaded checkpoint's tensor payloads.

    ``path`` is the checkpoint's JSON path, used to locate the payload files
    next to it.  Inline-format checkpoints get an :class:`InlinePayloadStore`;
    npz and sharded ones a read-only store over their digest-verified sidecar
    or rank files (an empty one when the checkpoint carried none).  Close the
    returned store when done restoring.
    """
    payload_format = payload.get("payload_format")
    if payload_format not in _STORES:
        raise SerializationError(
            f"unknown payload format {payload_format!r}; expected one of {tuple(_STORES)}"
        )
    directory = None if path is None else os.path.dirname(os.fspath(path)) or "."
    return _STORES[payload_format].for_document(payload, directory)


def latest_checkpoint(
    directory: Union[str, os.PathLike], name: Optional[str] = None
) -> Optional[str]:
    """Path of the highest-step checkpoint in ``directory`` (``None`` if empty)."""
    found = [
        (step, path) for step, part, path in _checkpoint_files(directory, name) if part == "json"
    ]
    return max(found)[1] if found else None


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
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported {expected_type} format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )

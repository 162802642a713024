"""Declarative run specifications for the simulation runner.

A :class:`RunSpec` captures everything that defines a simulation — model,
lattice, workload (algorithm), backend, update/contraction options,
measurement schedule, checkpoint policy and the RNG seed — as a plain
dataclass parseable from dicts or JSON files::

    spec = RunSpec.from_dict({
        "name": "fig13-ite",
        "workload": "ite",
        "lattice": [4, 4],
        "n_steps": 150,
        "seed": 7,
        "model": {"kind": "heisenberg_j1j2", "j1": [1, 1, 1],
                  "j2": [0.5, 0.5, 0.5], "field": [0.2, 0.2, 0.2]},
        "algorithm": {"tau": 0.05},
        "update": {"kind": "qr", "rank": 2},
        "contraction": {"kind": "ibmps", "bond": 4, "seed": 0},
        "measure_every": 1,
        "checkpoint_every": 25,
        "checkpoint_dir": "checkpoints",
        "results": "fig13-ite.jsonl",
    })

The spec is pure data: ``to_dict`` round-trips losslessly, and the builder
methods (:meth:`RunSpec.build_model`, :meth:`RunSpec.build_update_option`,
:meth:`RunSpec.build_contract_option`) construct the corresponding library
objects on demand.  All stochastic components of a run derive named
substreams from the single ``seed`` (see :func:`repro.utils.rng.derive_rng`),
so one integer pins the whole run.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.lattice import Lattice, lattice_from_config
from repro.sim.io import (
    SerializationError,
    contract_option_from_dict,
    update_option_from_dict,
)
from repro.sim.upgrade import RUN_SPEC, SPEC_CONTRACTION, upgrade
from repro.utils.checks import nonnegative_int, positive_finite, positive_int
from repro.utils.text import did_you_mean

#: Version of the spec schema (bumped on incompatible field changes).
SPEC_VERSION = 1

#: Keys a dict-valued ``RunSpec.backend`` config may carry.
_BACKEND_CONFIG_KEYS = {"kind", "nprocs", "executor", "fault", "max_restarts", "timeout"}

#: Registry aliases resolved by :func:`canonical_backend_kind`.
_BACKEND_ALIASES = {"np": "numpy", "ctf": "distributed", "cyclops": "distributed"}

#: Recognized model kinds and their Hamiltonian builders (name -> callable).
MODEL_BUILDERS: Dict[str, Any] = {}

#: Whether the builtin builders have been loaded into :data:`MODEL_BUILDERS`.
_BUILTINS_LOADED = False


def register_model(kind: str):
    """Register a model builder ``f(lattice, **params) -> Hamiltonian``.

    The builder receives the run's :class:`repro.lattice.Lattice` as its
    first argument (the builtin builders also still accept the legacy
    ``(nrow, ncol)`` integer pair for direct library use).
    """

    def _register(builder):
        MODEL_BUILDERS[kind] = builder
        return builder

    return _register


def _builtin_models() -> None:
    """Load the builtin builders, once.

    Lazy so importing :mod:`repro.sim.spec` stays light, idempotent so
    repeated ``build_model`` calls don't redo registration — and
    ``setdefault`` so an explicit ``register_model`` override of a builtin
    name wins even if it ran first.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    from repro.operators.hamiltonians import (
        heisenberg_j1j2,
        hubbard,
        transverse_field_ising,
    )

    MODEL_BUILDERS.setdefault("heisenberg_j1j2", heisenberg_j1j2)
    MODEL_BUILDERS.setdefault("transverse_field_ising", transverse_field_ising)
    MODEL_BUILDERS.setdefault("hubbard", hubbard)
    _BUILTINS_LOADED = True


@dataclass
class RunSpec:
    """Declarative description of one simulation run.

    Attributes
    ----------
    name:
        Run identifier; prefixes checkpoint filenames.
    workload:
        Registered workload kind: ``"ite"``, ``"vqe"`` or ``"rqc_amplitude"``.
    lattice:
        The geometry: a bare ``(nrow, ncol)`` pair (the historical form,
        meaning the uniform square lattice) or a lattice config dict
        ``{"kind": "square"|"checkerboard", "shape": [nrow, ncol], ...}``
        with optional per-direction / per-sublattice ``"couplings"`` (see
        :mod:`repro.lattice`).  Both forms round-trip through ``to_dict``
        unchanged, so pre-existing specs and checkpoints are untouched.
    n_steps:
        Number of driver steps; ``None`` lets the workload decide (e.g. the
        RQC workload runs one step per circuit gate).
    seed:
        Root seed; every stochastic component derives a named substream.
    backend:
        Tensor backend: a name (``"numpy"`` or ``"distributed"``), a live
        :class:`~repro.backends.interface.Backend` instance (in-process use
        only), or a config dict ``{"kind": "distributed", "nprocs": 2,
        "executor": "pool"}`` with optional ``fault``, ``max_restarts`` and
        ``timeout`` keys (see ``docs/distributed.md``).  Workloads obtain
        the resolved (and cached) instance via :meth:`resolve_backend`.
        Checkpoints persist only the *canonical kind*
        (:func:`canonical_backend_kind`), so results and checkpoint hashes
        are comparable across executors and rank counts.
    model:
        Model config: ``{"kind": <registered model>, **params}``.
    algorithm:
        Workload-specific parameters (``tau``, ``n_layers``, ``bits``, ...).
    update:
        Two-site update option config (``{"kind": "qr", "rank": r, ...}``)
        or ``None`` for the workload default.
    contraction:
        Contraction option config (``{"kind": "ibmps", "bond": m, ...}`` or
        ``{"kind": "ctm", "chi": c}`` for corner-transfer-matrix
        environments) or ``None`` for the workload default.
    measure_every:
        Fire the measurement hooks every this many steps (the final step is
        always measured).
    observables:
        Names of extra observables recorded at each measurement (workload
        dependent; ``"energy"`` is always recorded by energy workloads).
    checkpoint_every:
        Persist an atomic checkpoint every this many steps (0 disables).
    checkpoint_dir:
        Directory for checkpoint files.
    keep_checkpoints:
        Retain only this many most-recent checkpoints (0 keeps them all).
    results:
        Stream step records to this path (``.jsonl`` appends one JSON object
        per record, anything else gets one JSON document); ``None`` keeps
        records in memory only.
    telemetry:
        Observability config (or ``None``, the default, for none): a dict
        with optional keys ``"metrics"`` (bool; attach the deterministic
        per-step metric deltas of the global
        :data:`repro.telemetry.REGISTRY` to each measured record under a
        ``"metrics"`` key) and ``"trace"`` (path; record spans of the run
        into a Chrome trace-event JSON file viewable in Perfetto — the
        ``--trace PATH`` CLI flag sets this).  Telemetry is observational
        only: it never perturbs RNG streams or numerics, is excluded from
        the spec payload stored in checkpoints, and traced runs stay
        bitwise identical to untraced ones (see ``docs/observability.md``).
    """

    name: str = "run"
    workload: str = "ite"
    lattice: Union[Tuple[int, int], Dict[str, Any]] = (2, 2)
    n_steps: Optional[int] = None
    seed: int = 0
    backend: Union[str, Dict[str, Any], Any] = "numpy"
    model: Dict[str, Any] = field(default_factory=dict)
    algorithm: Dict[str, Any] = field(default_factory=dict)
    update: Optional[Dict[str, Any]] = None
    contraction: Optional[Dict[str, Any]] = None
    measure_every: int = 1
    observables: Tuple[str, ...] = ()
    checkpoint_every: int = 0
    checkpoint_dir: str = "checkpoints"
    keep_checkpoints: int = 3
    results: Optional[str] = None
    telemetry: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if isinstance(self.lattice, dict):
            self.lattice = dict(self.lattice)
            lattice_from_config(self.lattice)  # validate kind/shape/couplings
        else:
            self.lattice = (positive_int(self.lattice[0], "lattice rows"),
                            positive_int(self.lattice[1], "lattice columns"))
        if self.n_steps is not None:
            self.n_steps = positive_int(self.n_steps, "n_steps")
        self.measure_every = positive_int(self.measure_every, "measure_every")
        self.checkpoint_every = nonnegative_int(self.checkpoint_every, "checkpoint_every")
        self.keep_checkpoints = nonnegative_int(self.keep_checkpoints, "keep_checkpoints")
        if isinstance(self.observables, str):
            # tuple("sample") would silently become six one-letter names.
            self.observables = (self.observables,)
        self.observables = tuple(self.observables)
        if self.seed is not None:
            self.seed = int(self.seed)
        if isinstance(self.backend, dict):
            self.backend = dict(self.backend)
            kind = self.backend.get("kind")
            if not isinstance(kind, str):
                raise ValueError(
                    'a backend config dict needs a string "kind" entry, '
                    f"got {kind!r}"
                )
            unknown = set(self.backend) - _BACKEND_CONFIG_KEYS
            if unknown:
                raise ValueError(
                    f"unknown backend config keys {sorted(unknown)}; "
                    f"known keys: {sorted(_BACKEND_CONFIG_KEYS)}"
                )
            if "nprocs" in self.backend:
                self.backend["nprocs"] = positive_int(self.backend["nprocs"], "backend nprocs")
            if "max_restarts" in self.backend:
                self.backend["max_restarts"] = nonnegative_int(
                    self.backend["max_restarts"], "backend max_restarts"
                )
            if "timeout" in self.backend:
                positive_finite(self.backend["timeout"], "backend timeout")
            executor = self.backend.get("executor")
            if executor is not None and executor not in ("simulated", "pool"):
                raise ValueError(
                    f'backend executor must be "simulated" or "pool", '
                    f"got {executor!r}"
                )
        if self.telemetry is not None:
            self.telemetry = dict(self.telemetry)
            unknown = set(self.telemetry) - {"metrics", "trace"}
            if unknown:
                raise ValueError(
                    f"unknown telemetry config keys {sorted(unknown)}; "
                    "known keys: ['metrics', 'trace']"
                )
            self.telemetry["metrics"] = bool(self.telemetry.get("metrics", False))
            trace_path = self.telemetry.get("trace")
            if trace_path is not None and not isinstance(trace_path, (str, os.PathLike)):
                raise ValueError(
                    f"telemetry trace must be a path, got {type(trace_path).__name__}"
                )

    # ------------------------------------------------------------------ #
    # Dict / JSON round trip
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunSpec":
        """Parse a plain dict (e.g. loaded from JSON); unknown keys are errors.

        Fields that earlier builds wrote and this build retired are lifted
        away first (:mod:`repro.sim.upgrade`).
        """
        payload = dict(upgrade(payload, RUN_SPEC))
        version = payload.pop("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SerializationError(
                f"unsupported spec_version {version!r} (this build reads {SPEC_VERSION})"
            )
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown RunSpec fields {sorted(unknown)}; known fields: {sorted(known)}"
            )
        return cls(**payload)

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike]) -> "RunSpec":
        with open(os.fspath(path)) as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> Dict[str, Any]:
        # Not dataclasses.asdict: that deep-copies every field value, and an
        # in-process run may carry a live Backend instance (worker pipes,
        # attached counters) in the backend field.  Field order is preserved
        # — checkpoints serialize this dict, so key order is part of the
        # bitwise contract.
        payload = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if name == "backend":
                if isinstance(value, dict):
                    value = dict(value)
                else:
                    # A live Backend instance persists as its registry name.
                    value = getattr(value, "name", value)
            else:
                value = copy.deepcopy(value)
            payload[name] = value
        if not isinstance(self.lattice, dict):
            payload["lattice"] = list(self.lattice)
        payload["observables"] = list(self.observables)
        payload["spec_version"] = SPEC_VERSION
        return payload

    # ------------------------------------------------------------------ #
    # Derived properties and builders
    # ------------------------------------------------------------------ #
    @property
    def nrow(self) -> int:
        if isinstance(self.lattice, dict):
            return int(self.lattice["shape"][0])
        return self.lattice[0]

    @property
    def ncol(self) -> int:
        if isinstance(self.lattice, dict):
            return int(self.lattice["shape"][1])
        return self.lattice[1]

    @property
    def n_sites(self) -> int:
        return self.nrow * self.ncol

    def build_lattice(self) -> Lattice:
        """Construct the :class:`repro.lattice.Lattice` from the config."""
        return lattice_from_config(self.lattice)

    def build_model(self):
        """Construct the lattice Hamiltonian named by ``model["kind"]``."""
        _builtin_models()
        params = dict(self.model)
        kind = params.pop("kind", None)
        if kind is None:
            raise ValueError('model config needs a "kind" entry')
        builder = MODEL_BUILDERS.get(kind)
        if builder is None:
            raise ValueError(
                f"unknown model kind {kind!r}; registered: "
                f"{sorted(MODEL_BUILDERS)}{did_you_mean(kind, MODEL_BUILDERS)}"
            )
        return builder(self.build_lattice(), **params)

    def build_update_option(self):
        """Two-site update option from the ``update`` config (``None`` = default)."""
        if self.update is None:
            return None
        return update_option_from_dict({"kind": "qr", **self.update})

    def build_contract_option(self):
        """Contraction option from the ``contraction`` config (``None`` = default)."""
        return contract_option_from_dict(_normalize_contraction(self.contraction))

    # ------------------------------------------------------------------ #
    # Backend resolution
    # ------------------------------------------------------------------ #
    def resolve_backend(self):
        """The run's :class:`~repro.backends.interface.Backend` instance.

        A name or config-dict backend is constructed once and cached, so
        every workload component of the run shares the same instance (and,
        for ``executor: "pool"``, the same worker pool).  A live instance in
        the ``backend`` field is returned as-is.
        """
        from repro.backends import Backend, get_backend

        if isinstance(self.backend, Backend):
            return self.backend
        cached = getattr(self, "_backend_instance", None)
        if cached is not None:
            return cached
        if isinstance(self.backend, dict):
            config = dict(self.backend)
            instance = get_backend(config.pop("kind"), **config)
        else:
            instance = get_backend(self.backend)
        self._backend_instance = instance
        return instance

    def close_backend(self) -> None:
        """Release the cached backend (worker pools, etc.), if one was built.

        A live instance supplied directly in the ``backend`` field is left
        untouched — its owner closes it.
        """
        cached = getattr(self, "_backend_instance", None)
        if cached is not None:
            self._backend_instance = None
            cached.close()


def canonical_backend_kind(value: Any) -> str:
    """The canonical backend-kind string for any ``RunSpec.backend`` value.

    Names and aliases normalize to the registry kind (``"np"`` -> ``"numpy"``,
    ``"ctf"``/``"cyclops"`` -> ``"distributed"``), config dicts reduce to
    their ``"kind"``, and live instances report their ``name`` attribute.
    Checkpoints persist this string (not the executor or rank count), so a
    run's checkpoints hash identically whichever executor produced them and
    a pool run can resume a simulated one and vice versa.
    """
    if isinstance(value, dict):
        value = value.get("kind", "")
    value = getattr(value, "name", value)
    name = str(value).lower()
    return _BACKEND_ALIASES.get(name, name)


def canonical_json(value) -> str:
    """JSON-normalized form for config comparisons.

    An in-memory spec may hold tuples (or numpy scalars) where its persisted
    counterpart went through ``json.dump`` and holds lists/floats; comparing
    the serialized forms avoids spurious mismatches.  Both resume paths (run
    checkpoints and sweep manifests) use this one canonicalizer so they agree
    on what counts as "the same spec".
    """
    return json.dumps(value, sort_keys=True, default=str)


def apply_spec_override(payload: Dict[str, Any], path: str, value: Any) -> None:
    """Set one dotted-path override on a RunSpec payload dict, in place.

    ``path`` addresses a spec field (``"n_steps"``) or a key inside one of
    the dict-valued config blocks (``"update.rank"``, ``"contraction.bond"``,
    ``"algorithm.tau"``, ``"model.j2"``).  The first segment must name a
    :class:`RunSpec` field; deeper segments walk (and create) nested dicts.
    This is the override primitive of :mod:`repro.sim.sweep`: a sweep axis is
    a dotted path plus the list of values it takes.
    """
    parts = path.split(".")
    field_name = parts[0]
    known = set(RunSpec.__dataclass_fields__)
    if field_name not in known:
        raise ValueError(
            f"unknown override path {path!r}: {field_name!r} is not a RunSpec "
            f"field (known fields: {sorted(known)})"
        )
    if len(parts) == 1:
        payload[field_name] = value
        return
    node = payload.get(field_name)
    if node is None:
        node = payload[field_name] = {}
    if not isinstance(node, dict):
        raise ValueError(
            f"cannot apply override {path!r}: field {field_name!r} holds "
            f"{type(node).__name__}, not a config dict"
        )
    for depth, part in enumerate(parts[1:-1], start=2):
        child = node.get(part)
        if child is None:
            child = node[part] = {}
        if not isinstance(child, dict):
            raise ValueError(
                f"cannot apply override {path!r}: {'.'.join(parts[:depth])!r} "
                f"holds {type(child).__name__}, not a config dict"
            )
        node = child
    node[parts[-1]] = value


#: Spec shorthand for the boundary-MPS family: kind -> (io-layer contraction
#: kind, einsumsvd kind).  Everything else an option accepts, and every
#: default, is the option dataclasses' business (see :mod:`repro.sim.io`).
_CONTRACTION_ALIASES = {
    "bmps": ("bmps", "explicit"),
    "ibmps": ("bmps", "implicit"),
}


def _normalize_contraction(config: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Expand the compact contraction shorthand into the io-layer form.

    Spec files write ``{"kind": "ibmps", "bond": 4, "niter": 1, "seed": 0}``;
    the io layer stores an explicit nested ``svd`` dict.  ``"bmps"`` selects
    the explicit-SVD flavour, ``"ibmps"`` the implicit randomized SVD (seeded
    with 0 unless the spec says otherwise), ``"bond"`` is the einsumsvd
    ``rank``; any other kind (``"exact"``, ``{"kind": "ctm", "chi": 16}``) is
    io-layer form already.
    """
    config = upgrade(config, SPEC_CONTRACTION)
    if config is None:
        return None
    config = dict(config)
    kind = config.pop("kind", "ibmps")
    if kind not in _CONTRACTION_ALIASES:
        return {"kind": kind, **config}
    kind, svd_kind = _CONTRACTION_ALIASES[kind]
    if "svd" in config:  # already in io-layer form
        return {"kind": kind, **config}
    bond = config.pop("bond", None)
    if bond is not None:
        if config.get("rank") is not None:
            raise ValueError('give either "bond" or "rank" in a contraction config, not both')
        config["rank"] = bond
    if svd_kind == "implicit":
        config.setdefault("seed", 0)
    return {"kind": kind, "svd": {"kind": svd_kind, **config}}

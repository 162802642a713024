"""What documents written by earlier builds say, in the current schema.

Every reader of a persisted document runs :func:`upgrade` with the
document's kind before anything else looks at it:

* :func:`repro.sim.io.load_checkpoint` — ``CHECKPOINT``,
* :meth:`repro.sim.sweep.Sweep.load_manifest` — ``MANIFEST``,
* :func:`repro.sim.io.attach_environment_from_dict` — ``ENVIRONMENT``,
* :func:`repro.sim.io.contract_option_from_dict` — ``CONTRACTION``,
* :func:`repro.sim.io.svd_option_from_dict` — ``EINSUMSVD``,
* :func:`repro.sim.io.update_option_from_dict` — ``UPDATE``,
* :meth:`repro.sim.spec.RunSpec.from_dict` — ``RUN_SPEC``,
* :meth:`repro.sim.sweep.SweepSpec.from_dict` — ``SWEEP_SPEC``,
* the run spec's contraction normaliser (:mod:`repro.sim.spec`) —
  ``SPEC_CONTRACTION``.

:data:`STEPS` is one ordered table of pure ``dict -> dict`` lifts.  Each
rewrites one form that an earlier build wrote and no build writes any more,
and names the document kind it reads and the commit whose writers stopped
producing the form.  Everything downstream of :func:`upgrade` — the codecs
in :mod:`repro.sim.io`, the option kind tables, the spec shorthands — knows
only the current schema.

A lift that finds nothing to rewrite returns its argument itself, so a
current document comes back as the very object passed in, after a few key
lookups and no copy.  No lift mutates its input: a lifted document is a new
dict that shares every value it leaves alone.

Adding a step is a lift function and one row of :data:`STEPS`, plus a unit
test built from a minimal legacy document (``tests/test_upgrade.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple

#: Document kinds: the ``type`` tag of the three typed documents, a run
#: spec, a sweep spec, and the option forms read on their own.
CHECKPOINT = "Checkpoint"
MANIFEST = "SweepManifest"
ENVIRONMENT = "Environment"
RUN_SPEC = "RunSpec"                   # a RunSpec payload (spec file, stored spec)
SWEEP_SPEC = "SweepSpec"               # a SweepSpec payload (sweep file, manifest spec)
CONTRACTION = "contraction"            # a contraction option dict (io form)
EINSUMSVD = "einsumsvd"                # an einsumsvd option dict (also nested as "svd")
UPDATE = "update"                      # an update option dict
SPEC_CONTRACTION = "spec.contraction"  # a run spec's ``contraction`` block


class Step(NamedTuple):
    """One retired wire form: the kind of document that may carry it, the
    commit whose writers stopped producing it (``"after <commit>"``: the
    child of ``<commit>``, the last build that wrote the form), and the lift
    to the current form."""

    kind: str
    retired_in: str
    lift: Callable[[Dict[str, Any]], Dict[str, Any]]


def _restamp(node):
    """``node`` rebuilt with every ``format_version`` 1 inside it raised to 2."""
    if isinstance(node, dict):
        out = {key: _restamp(value) for key, value in node.items()}
        if out.get("format_version") == 1:
            out["format_version"] = 2
        return out
    if isinstance(node, list):
        return [_restamp(value) for value in node]
    return node


def _version_1(document):
    """Version 1 stamped the document and every document nested in it."""
    return _restamp(document) if document.get("format_version") == 1 else document


def _checkpoint_payload_fields(document):
    """Checkpoints written before ``payload_format`` existed held every
    tensor inline and had no sidecar."""
    if "payload_format" in document:
        return document
    return {**document, "payload_format": "inline", "sidecar": None}


def _checkpoint_payload_knob(document):
    """A run spec's ``checkpoint_payload`` chose between the npz and sharded
    checkpoint writers.  Every checkpoint is npz now, whatever it said, and
    resume reads every format."""
    if "checkpoint_payload" not in document:
        return document
    return {key: value for key, value in document.items() if key != "checkpoint_payload"}


#: The workload of a RunSpec that names none.
_DEFAULT_WORKLOAD = "ite"


def _normalize_every(document):
    """``algorithm.normalize_every`` made ITE renormalize every that many
    steps; every step renormalizes now, as the default did.  No other
    workload read the key, so there it stays an unknown key."""
    algorithm = document.get("algorithm")
    if not (document.get("workload", _DEFAULT_WORKLOAD) == "ite"
            and isinstance(algorithm, dict) and "normalize_every" in algorithm):
        return document
    kept = {key: value for key, value in algorithm.items() if key != "normalize_every"}
    return {**document, "algorithm": kept}


#: RunSpec fields and dotted paths no build reads any more, each with the
#: one workload that read it (``None``: every workload).  Each has a
#: ``RUN_SPEC`` lift.
_RETIRED_RUN_SPEC_PATHS = {"checkpoint_payload": None, "algorithm.normalize_every": "ite"}


def _retired(path: str, workloads) -> bool:
    """Whether an override path addresses a retired path, or something inside
    one, that every workload in ``workloads`` read."""
    return any((path == retired or path.startswith(retired + "."))
               and (reader is None or all(workload == reader for workload in workloads))
               for retired, reader in _RETIRED_RUN_SPEC_PATHS.items())


def _retired_overrides(document):
    """A sweep's ``axes`` and ``points`` override RunSpec fields by dotted
    path; one naming a retired path overrode what every build now ignores.
    Such an axis goes (its points would all be one run), and such a key
    leaves every point dict.  A path one workload read is retired only where
    every point runs that workload."""
    axes, points, base = document.get("axes"), document.get("points"), document.get("base")
    workload = base.get("workload", _DEFAULT_WORKLOAD) if isinstance(base, dict) else None
    axis_workloads = axes.get("workload", [workload]) if isinstance(axes, dict) else []
    if not isinstance(axis_workloads, list):
        axis_workloads = [None]

    def point_workloads(point):
        return [point.get("workload", workload)]

    stale_axes = isinstance(axes, dict) and any(_retired(path, axis_workloads) for path in axes)
    stale_points = isinstance(points, list) and any(
        isinstance(point, dict) and any(_retired(path, point_workloads(point)) for path in point)
        for point in points
    )
    if not (stale_axes or stale_points):
        return document
    document = dict(document)
    if stale_axes:
        document["axes"] = {path: values for path, values in axes.items()
                            if not _retired(path, axis_workloads)}
    if stale_points:
        document["points"] = [
            {path: value for path, value in point.items()
             if not _retired(path, point_workloads(point))}
            if isinstance(point, dict) else point
            for point in points
        ]
    return document


def _renamed_kinds(renames):
    """A lift replacing each retired ``kind`` in ``renames`` by its current name."""

    def lift(document):
        kind = renames.get(document.get("kind"))
        return document if kind is None else {**document, "kind": kind}

    return lift


def _fold_truncate_bond(document):
    """A boundary-MPS option's ``truncate_bond`` field: a non-null value
    overrode the einsumsvd ``rank``, so it becomes ``svd.rank`` and the
    option keeps its signature; a null one said nothing."""
    if document.get("kind") != "bmps" or "truncate_bond" not in document:
        return document
    document = dict(document)
    bond = document.pop("truncate_bond")
    if bond is not None:
        document["svd"] = {**(document.get("svd") or {}), "rank": bond}
    return document


def _ctm_convergence_knobs(document):
    """A CTM option's tolerance and sweep cap steered a convergence loop that
    never re-ran a move; they changed nothing computed."""
    if document.get("kind") != "ctm":
        return document
    kept = {k: v for k, v in document.items() if k not in ("tol", "max_sweeps")}
    return kept if len(kept) < len(document) else document


def _ctm_state(document):
    """A CTM environment's corner-spectrum block restored nothing the
    boundary caches do not already hold."""
    if "ctm_state" not in document:
        return document
    return {key: value for key, value in document.items() if key != "ctm_state"}


def _retired_field(field, default, reason):
    """A lift for an option or spec field that only ever took effect away
    from ``default``: the default goes, any other value is refused with
    ``reason``."""

    def lift(document):
        if field not in document:
            return document
        value = document[field]
        if not (value == default and type(value) is type(default)):
            raise ValueError(f"{field!r} is retired ({reason}); got {value!r}")
        return {key: item for key, item in document.items() if key != field}

    return lift


def _retired_queue_key(key):
    """A lift dropping a sweep's ``queue.<key>``, a knob of the file lease
    queue that ran ``jobs >= 2`` sweeps.  Its workers now answer to the
    parent that forks them, which sees one die the moment it does; what the
    knob said changed no result."""

    def lift(document):
        queue = document.get("queue")
        if not (isinstance(queue, dict) and key in queue):
            return document
        return {**document, "queue": {name: value for name, value in queue.items()
                                      if name != key}}

    return lift


#: The ``cutoff`` of every option family, contraction, einsumsvd and update.
_CUTOFF = _retired_field("cutoff", None, "truncation is by bond dimension alone")

#: Every retired form, in the order its lifts run within a kind.
STEPS = (
    Step(CHECKPOINT, "a59dfd5", _version_1),
    Step(CHECKPOINT, "a59dfd5", _checkpoint_payload_fields),
    Step(MANIFEST, "a59dfd5", _version_1),
    Step(RUN_SPEC, "after 22cd0f5", _checkpoint_payload_knob),
    Step(RUN_SPEC, "after e7e6f19", _normalize_every),
    Step(SWEEP_SPEC, "after 22cd0f5", _retired_overrides),
    # A class that ran the same computation as BMPS under its own kind.
    Step(CONTRACTION, "23ca172", _renamed_kinds({"two_layer_bmps": "bmps"})),
    Step(CONTRACTION, "23ca172", _fold_truncate_bond),
    Step(CONTRACTION, "2a0757f", _ctm_convergence_knobs),
    Step(ENVIRONMENT, "2a0757f", _ctm_state),
    Step(CONTRACTION, "after 8291454", _CUTOFF),
    Step(EINSUMSVD, "after 8291454", _CUTOFF),
    Step(EINSUMSVD, "after 8291454", _retired_field(
        "absorb", "even", "an einsumsvd splits its singular values evenly")),
    Step(UPDATE, "after 8291454", _CUTOFF),
    Step(UPDATE, "after 8291454", _retired_field(
        "svd", None, "an update refactorizes with an explicit SVD of its rank")),
    Step(SWEEP_SPEC, "after 8291454", _retired_field(
        "mode", "product", 'axes expand as a product; list paired values as "points"')),
    Step(SWEEP_SPEC, "after 8291454", _retired_field(
        "derive_seeds", True, 'every point derives its seed; a "seed" axis or point '
        "override fixes it")),
    # The lease-renewal interval, then the lease itself.
    Step(SWEEP_SPEC, "after 8291454", _retired_queue_key("heartbeat_seconds")),
    Step(SWEEP_SPEC, "after 15725d0", _retired_queue_key("lease_seconds")),
    # Spec shorthands that spelled out the two layers every sandwich has.
    Step(SPEC_CONTRACTION, "23ca172", _renamed_kinds(
        {"two_layer_bmps": "bmps", "two_layer_ibmps": "ibmps"}
    )),
)

#: Document kind -> its lifts, in table order.
_LIFTS: Dict[str, tuple] = {}
for _step in STEPS:
    _LIFTS[_step.kind] = _LIFTS.get(_step.kind, ()) + (_step.lift,)
del _step


def upgrade(document: Any, kind: str) -> Any:
    """``document`` in the current schema of ``kind``.

    Returns ``document`` itself when no step applies (a current document, or
    anything that is not a dict, which the caller's codec rejects).
    """
    lifts = _LIFTS[kind]
    if not isinstance(document, dict):
        return document
    for lift in lifts:
        document = lift(document)
    return document

"""Spans recorded from outside the library, for the ladder's traced pass.

The ladder measures the layers of ``repro`` without editing them: each layer
boundary named in :data:`TARGETS` is a callable of the library (a class
attribute or a module function) that :class:`Instrument` replaces with a
timing wrapper for the duration of a traced pass and puts back afterwards.
Spans are kept in memory with the index of the span that caused them, so a
layer's *self* time (its span minus the part its child spans cover) can be
told apart from its *inclusive* time.

A target that no longer exists is skipped and reported in
``Instrument.missing``: its metrics then read zero, which a reader of the
per-layer table must take as "not measured", not as "free".
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

SpanName = Union[str, Callable[[tuple, dict], str]]

#: One recorded span: ``[name, begin, end, parent index or -1, note]``.
Span = List[Any]


def _einsumsvd_name(args: tuple, kwargs: dict) -> str:
    from repro.tensornetwork import ImplicitRandomizedSVD

    implicit = isinstance(kwargs.get("option"), ImplicitRandomizedSVD)
    return "tensornetwork.einsumsvd_" + ("implicit" if implicit else "explicit")


def _checkpoint_bytes(path: str) -> int:
    """Bytes one checkpoint put on disk: the JSON document plus its sidecar."""
    from repro.sim import io as sim_io

    total = os.path.getsize(path)
    sidecar = sim_io.sidecar_for(path)
    if os.path.exists(sidecar):
        total += os.path.getsize(sidecar)
    return total


#: ``(span name, "module:attribute.path", note)``.  ``note`` maps the call's
#: result to a number kept on the span (checkpoint bytes).  Several callables
#: may share one span name: nested spans of one name are counted once.
TARGETS: List[Tuple[SpanName, str, Optional[Callable[[Any], float]]]] = [
    ("backends.einsum", "repro.backends.numpy_backend:NumPyBackend.einsum", None),
    ("backends.einsum", "repro.backends.distributed.backend:DistributedBackend.einsum", None),
    ("backends.einsum_batched", "repro.backends.numpy_backend:NumPyBackend.einsum_batched", None),
    ("backends.einsum_batched",
     "repro.backends.distributed.backend:DistributedBackend.einsum_batched", None),
    ("backends.svd", "repro.backends.numpy_backend:NumPyBackend.svd", None),
    ("backends.svd", "repro.backends.distributed.backend:DistributedBackend.svd", None),
    ("backends.qr", "repro.backends.numpy_backend:NumPyBackend.qr", None),
    ("backends.qr", "repro.backends.distributed.backend:DistributedBackend.qr", None),
    ("linalg.truncated_svd", "repro.linalg.truncated_svd:truncated_svd", None),
    ("linalg.randomized_svd", "repro.linalg.randomized_svd:randomized_svd", None),
    (_einsumsvd_name, "repro.tensornetwork.einsumsvd:einsumsvd", None),
    ("tensornetwork.contract_network", "repro.tensornetwork.network:contract_network", None),
    ("peps.update.two_site", "repro.peps.update:apply_two_site_operator", None),
    ("peps.update.one_site", "repro.peps.update:apply_single_site_operator", None),
    ("peps.contraction.absorb_row", "repro.peps.contraction.two_layer:absorb_sandwich_row", None),
    ("peps.contraction.absorb_row",
     "repro.peps.contraction.two_layer:absorb_sandwich_row_batched", None),
    ("peps.contraction.single_layer",
     "repro.peps.contraction.single_layer:contract_single_layer", None),
    ("peps.envs.build", "repro.peps.envs.boundary:BoundaryEnvironment.build", None),
    ("peps.envs.build", "repro.peps.envs.boundary:BoundaryEnvironment.ensure_upper", None),
    ("peps.envs.build", "repro.peps.envs.boundary:BoundaryEnvironment.ensure_lower", None),
    ("peps.envs.build", "repro.peps.envs.ctm:EnvCTM.build", None),
    ("peps.envs.expectation", "repro.peps.envs.boundary:BoundaryEnvironment.expectation", None),
    ("peps.envs.strip_term", "repro.peps.envs.strip:StripCache.term_value", None),
    ("peps.envs.measure_1site", "repro.peps.envs.boundary:BoundaryEnvironment.measure_1site", None),
    # A CTM move has no public entry point of its own: the build sweeps reach
    # it through the protected ``_absorb`` hook, the sampler through the two
    # public ``absorb_for_sampling*`` methods.
    ("peps.envs.ctm_move", "repro.peps.envs.ctm:EnvCTM._absorb", None),
    ("peps.envs.ctm_move", "repro.peps.envs.ctm:EnvCTM.absorb_for_sampling", None),
    ("peps.envs.ctm_move", "repro.peps.envs.ctm:EnvCTM.absorb_for_sampling_batched", None),
    ("peps.envs.sample", "repro.peps.envs.boundary:BoundaryEnvironment.sample", None),
    ("algorithms.step", "repro.algorithms.ite:ImaginaryTimeEvolution.advance", None),
    ("algorithms.measure", "repro.algorithms.ite:ImaginaryTimeEvolution.energy", None),
    ("backends.distributed.plan", "repro.backends.distributed.engine:plan_einsum", None),
    ("backends.distributed.contract",
     "repro.backends.distributed.comm:SimulatedCommunicator.contract", None),
    ("sim.run", "repro.sim.runner:Simulation.run", None),
    ("sim.step", "repro.sim.workloads:ITEWorkload.step", None),
    ("sim.step", "repro.sim.workloads:RQCAmplitudeWorkload.step", None),
    ("sim.measure", "repro.sim.workloads:ITEWorkload.measure", None),
    ("sim.measure", "repro.sim.workloads:RQCAmplitudeWorkload.measure", None),
    ("sim.checkpoint_write", "repro.sim.io:write_checkpoint", _checkpoint_bytes),
]


class Instrument:
    """Installs the timing wrappers, records spans, and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._recording = False
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _wrap(self, name: SpanName, func: Callable, note) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self._recording:
                return func(*args, **kwargs)
            span: Span = [
                name(args, kwargs) if callable(name) else name,
                0.0, 0.0, stack[-1] if stack else -1, None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target in :data:`TARGETS` with its timing wrapper."""
        for name, target, note in TARGETS:
            module_name, _, path = target.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(name, original, note)
            if parents:
                self._replace(owner, attr, original, wrapper)
                continue
            # ``from module import function`` copies the binding into the
            # importer's namespace, so every loaded ``repro`` module that
            # holds the original gets the wrapper too.
            for module in list(sys.modules.values()):
                if module is None or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)

    def _replace(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        """Put every replaced callable back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Instrument":
        """Start a recording; ``spans`` holds it until the next one starts."""
        self.spans.clear()
        self._stack.clear()
        self._recording = True
        return self

    def __exit__(self, *exc) -> None:
        self._recording = False


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``inclusive_s``, ``self_s`` and ``note``.

    Inclusive time counts a span only when no ancestor carries the same
    name (recursive and delegating callables are not counted twice); self
    time is the span's duration minus its direct children's.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    table: Dict[str, Dict[str, float]] = {}
    for index, (name, begin, end, parent, note) in enumerate(spans):
        row = table.setdefault(
            name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "note": 0.0}
        )
        duration = end - begin
        row["calls"] += 1
        row["self_s"] += duration - child_time[index]
        if note is not None:
            row["note"] += note
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["inclusive_s"] += duration
    return table


def format_table(table: Dict[str, Dict[str, float]], wall: float) -> str:
    """The inclusive/self table of one traced pass, widest layer first."""
    lines = [f"{'span':<36}{'calls':>9}{'inclusive_s':>13}{'self_s':>11}{'self %':>8}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["inclusive_s"]):
        share = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"{name:<36}{row['calls']:>9d}{row['inclusive_s']:>13.4f}"
            f"{row['self_s']:>11.4f}{share:>8.1f}"
        )
    return "\n".join(lines)


def write_chrome_trace(path: str, workload: str, spans: List[Span]) -> None:
    """Write one pass as Chrome trace events (Perfetto / chrome://tracing)."""
    origin = spans[0][1] if spans else 0.0
    events = [
        {
            "name": name, "ph": "X", "pid": 0, "tid": 0, "cat": workload,
            "ts": (begin - origin) * 1e6, "dur": (end - begin) * 1e6,
            "args": {"id": index, "parent": parent},
        }
        for index, (name, begin, end, parent, _note) in enumerate(spans)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle,
                  separators=(",", ":"))

"""Span tracing with Chrome trace-event output.

A :class:`Tracer` times named spans and, when active, records them in the
`Chrome trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
— load the emitted JSON file in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing`` to see where a run's time goes.

The API is a context manager (and a decorator built on it)::

    from repro.telemetry import trace

    with trace.span("absorb_row", row=r):
        ...

    @trace.traced("build_env")
    def build(self): ...

Cost discipline: the default tracer is *inactive*, and an inactive
``span()`` returns a shared no-op context manager — no event object, no
timestamps, no allocation beyond the call itself.  The distributed backend's
per-einsum call sites additionally guard with ``if TRACER.active:`` so even
the keyword-argument dict is never built when tracing is off; everything else
(the NumPy backend's one span per plan included) calls ``span()``
unconditionally.  Tracing never touches RNG state or
numerics — a traced run produces bitwise-identical results to an untraced
one.

Span events nest naturally: each span records wall-clock begin/duration as a
complete ("ph": "X") event on its thread's track, so Perfetto reconstructs
the flame graph from timestamps alone.
"""

from __future__ import annotations

import json
import os
import threading
import time
from functools import wraps
from typing import Any, Dict, List, Optional

__all__ = ["Tracer", "TRACER", "span", "traced"]


class _NullSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: records a complete event into the tracer on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_begin")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args
        self._begin = 0.0

    def __enter__(self) -> "_Span":
        self._begin = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        event: Dict[str, Any] = {
            "name": self._name,
            "ph": "X",
            "ts": (self._begin - tracer._epoch) * 1e6,
            "dur": (end - self._begin) * 1e6,
            "pid": tracer._pid,
            "tid": threading.get_ident(),
        }
        if self._args:
            event["args"] = self._args
        with tracer._lock:
            tracer._events.append(event)


class Tracer:
    """Collects span events and writes one Chrome trace file per session.

    ``start(path)`` activates the tracer; ``stop()`` writes the collected
    events to ``path`` and deactivates it.  ``active`` is a plain attribute
    so hot paths can check it without a function call.
    """

    def __init__(self) -> None:
        self.active = False
        self._path: Optional[str] = None
        self._events: List[Dict[str, Any]] = []
        self._epoch = 0.0
        self._pid = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, path: str) -> None:
        if self.active:
            raise RuntimeError(f"tracer already active (writing {self._path!r})")
        self._path = path
        self._events = []
        self._epoch = time.perf_counter()
        self._pid = os.getpid()
        self.active = True

    def stop(self) -> Optional[str]:
        """Deactivate and write the trace file; returns its path (or None)."""
        if not self.active:
            return None
        self.active = False
        path, self._path = self._path, None
        with self._lock:
            events, self._events = self._events, []
        document = {"traceEvents": events, "displayTimeUnit": "ms"}
        assert path is not None
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------ #
    # Span API
    # ------------------------------------------------------------------ #
    def span(self, name: str, /, **args: Any):
        """A context manager timing ``name`` (no-op when inactive)."""
        if not self.active:
            return _NULL_SPAN
        return _Span(self, name, args)


#: The process-global tracer.  ``Simulation.run`` starts/stops it when the
#: spec asks for a trace; everything else just emits spans through it.
TRACER = Tracer()


def span(name: str, /, **args: Any):
    """``with span("absorb_row", row=r): ...`` against the global tracer.

    ``name`` is positional-only so span attributes may use any keyword
    (including ``name=``) without colliding with the span's own name.
    """
    if not TRACER.active:
        return _NULL_SPAN
    return _Span(TRACER, name, args)


def traced(name: Optional[str] = None):
    """Decorator form: time every call of the wrapped function as a span."""

    def decorate(func):
        span_name = name or func.__qualname__

        @wraps(func)
        def wrapper(*args, **kwargs):
            if not TRACER.active:
                return func(*args, **kwargs)
            with _Span(TRACER, span_name, {}):
                return func(*args, **kwargs)

        return wrapper

    return decorate

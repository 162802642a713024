"""Unified telemetry: metrics registry, span tracing, and report rendering.

Three pieces, one import point:

* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry` (named
  counters/gauges/histograms with labels and snapshot/delta/merge), plus the
  process-global :data:`REGISTRY` holding the library's work counters.
* :mod:`repro.telemetry.trace` — span tracing (:func:`span` context manager,
  :func:`traced` decorator, the global :data:`TRACER`) emitting Chrome
  trace-event JSON viewable in Perfetto.
* :mod:`repro.telemetry.report` — pure renderers behind
  ``python -m repro.sim report`` (run/sweep/trace summaries and the
  cross-``BENCH_*.json`` perf-trajectory view).

See ``docs/observability.md`` for the metric catalog and span naming
conventions.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.telemetry.trace import TRACER, Tracer, span, traced
from repro.telemetry import trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "TRACER",
    "Tracer",
    "span",
    "traced",
    "trace",
    "global_snapshot",
]


def global_snapshot():
    """Snapshot the global registry *plus* the contraction-plan cache stats.

    The planner's plan cache is a ``functools.lru_cache``; its hit/miss
    counts are read here on demand (as gauges — ``lru_cache`` owns the
    counters, the registry only mirrors them), so one call captures every
    process-global counter in the library.
    """
    from repro.tensornetwork.contraction_path import path_cache_stats

    stats = path_cache_stats()["path"]
    for field in ("hits", "misses"):
        REGISTRY.gauge(f"einsum.path_cache_{field}").set(stats[field])
    return REGISTRY.snapshot()

"""One metrics registry for every counter in the library.

The process-wide PEPS work counters (``peps.*``), the sweep/serve/planner
counters, the :class:`~repro.utils.flops.FlopCounter` and the distributed
backend's :class:`~repro.backends.distributed.cost_model.ExecutionStats` all
write through a registry from this module, so they share one reset, one
export path and one snapshot/delta mechanism.

A :class:`MetricsRegistry` owns named metrics of three kinds:

* :class:`Counter` — a monotonically increasing number (``add``),
* :class:`Gauge` — a point-in-time value (``set`` / ``update_max``),
* :class:`Histogram` — cheap moment aggregates of observations
  (``count`` / ``sum`` / ``min`` / ``max``, no buckets).

Metrics are identified by a name plus optional string labels
(``registry.counter("flops", category="einsum")``); ``counter()`` /
``gauge()`` / ``histogram()`` are get-or-create and return the same object
for the same identity.  Every mutation happens under the registry's lock, so
a registry is safe to share between threads.

The snapshot/delta/merge trio is what the run/sweep lifecycle builds on::

    before = registry.snapshot()        # cheap: flat dict of plain numbers
    ... do work ...
    registry.delta(before)              # what changed, zeros dropped
    parent_registry.merge(snapshot)     # fold a worker's counters in

Snapshots are plain JSON-serializable dicts keyed by the metric's flat name
(``"flops{category=einsum}"``), so they cross process boundaries as-is —
sweep workers snapshot their registry and the parent merges.

:data:`REGISTRY` is the process-global default registry; scoped consumers
(``FlopCounter``, ``ExecutionStats``) hold private registries so per-object
statistics stay independent.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Optional, Tuple, Union

Number = Union[int, float]

#: Flat-name suffix separating histogram component fields, as in
#: ``"step_seconds:count"``.
_HIST_FIELDS = ("count", "sum", "min", "max")


def _flat_name(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def parse_flat_name(flat: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Invert :func:`_flat_name`: ``"a{k=v}" -> ("a", (("k", "v"),))``."""
    if not flat.endswith("}") or "{" not in flat:
        return flat, ()
    name, _, inner = flat.partition("{")
    labels = tuple(
        tuple(pair.split("=", 1)) for pair in inner[:-1].split(",") if pair
    )
    return name, labels  # type: ignore[return-value]


class Counter:
    """A monotonically increasing metric.  Mutate through :meth:`add`."""

    kind = "counter"

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value: Number = 0

    def add(self, n: Number = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increments must be >= 0, got {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> Number:
        return self._value

    def _set(self, value: Number) -> None:
        """Registry-internal: restore a value (reset / merge)."""
        with self._lock:
            self._value = value


class Gauge:
    """A point-in-time value.  ``update_max`` gives peak semantics."""

    kind = "gauge"

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value: Number = 0

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def update_max(self, value: Number) -> None:
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> Number:
        return self._value


class Histogram:
    """Moment aggregates (count/sum/min/max) of observed values.

    Deliberately bucket-free: the consumers here need totals and extremes,
    and four plain numbers snapshot/merge trivially.
    """

    kind = "histogram"

    __slots__ = ("_lock", "count", "sum", "min", "max")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.count: int = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Number]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": 0.0 if self.min is None else self.min,
            "max": 0.0 if self.max is None else self.max,
        }


Metric = Union[Counter, Gauge, Histogram]
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class MetricsRegistry:
    """Named counters/gauges/histograms with snapshot/delta/merge semantics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[MetricKey, Metric] = {}

    # ------------------------------------------------------------------ #
    # Get-or-create accessors
    # ------------------------------------------------------------------ #
    def _get(self, factory, name: str, labels: Dict[str, str]) -> Metric:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = factory(self._lock)
                    self._metrics[key] = metric
        if not isinstance(metric, factory):
            raise TypeError(
                f"metric {_flat_name(*key)!r} already registered as "
                f"{metric.kind}, not {factory.kind}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    def value(self, name: str, **labels: str) -> Number:
        """Current value of a counter/gauge (0 if never touched)."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; read its fields instead")
        return metric.value

    def __iter__(self) -> Iterator[Tuple[str, Metric]]:
        with self._lock:
            items = list(self._metrics.items())
        for key, metric in sorted(items, key=lambda kv: _flat_name(*kv[0])):
            yield _flat_name(*key), metric

    # ------------------------------------------------------------------ #
    # Snapshot / delta / merge / reset
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Number]:
        """A flat, JSON-serializable view of every metric.

        Counters and gauges map ``flat_name -> number``; a histogram expands
        to four ``flat_name:field -> number`` entries.  The dict is sorted by
        key so serialized snapshots are byte-stable.
        """
        out: Dict[str, Number] = {}
        for flat, metric in self:
            if isinstance(metric, Histogram):
                for field, value in metric.as_dict().items():
                    out[f"{flat}:{field}"] = value
            else:
                out[flat] = metric.value
        return dict(sorted(out.items()))

    def delta(self, since: Dict[str, Number]) -> Dict[str, Number]:
        """What changed between ``since`` (a prior :meth:`snapshot`) and now.

        Counters and histogram count/sum fields subtract; gauges and
        histogram min/max report their current value.  Zero-change entries
        are dropped, so an idle subsystem contributes nothing.
        """
        out: Dict[str, Number] = {}
        for flat, metric in self:
            if isinstance(metric, Histogram):
                current = metric.as_dict()
                for field in ("count", "sum"):
                    diff = current[field] - since.get(f"{flat}:{field}", 0)
                    if diff:
                        out[f"{flat}:{field}"] = diff
                if current["count"] - since.get(f"{flat}:count", 0):
                    out[f"{flat}:min"] = current["min"]
                    out[f"{flat}:max"] = current["max"]
            elif isinstance(metric, Counter):
                diff = metric.value - since.get(flat, 0)
                if diff:
                    out[flat] = diff
            else:  # Gauge: report the current value when it moved
                if metric.value != since.get(flat, 0):
                    out[flat] = metric.value
        return out

    def merge(self, snapshot: Dict[str, Number]) -> None:
        """Fold a snapshot (typically from another process) into this registry.

        Counter and histogram count/sum values add; gauges and histogram
        min/max take the extremum — so merging N worker snapshots yields the
        same totals as if one process had done all the work.
        """
        hist_parts: Dict[str, Dict[str, Number]] = {}
        for flat, value in snapshot.items():
            base, _, field = flat.rpartition(":")
            if field in _HIST_FIELDS and base:
                hist_parts.setdefault(base, {})[field] = value
                continue
            name, labels = parse_flat_name(flat)
            key = (name, labels)
            metric = self._metrics.get(key)
            if isinstance(metric, Gauge) or (
                metric is None and flat.endswith("_peak")
            ):
                self.gauge(name, **dict(labels)).update_max(value)
            else:
                self.counter(name, **dict(labels)).add(value)
        for base, fields in hist_parts.items():
            name, labels = parse_flat_name(base)
            hist = self.histogram(name, **dict(labels))
            with self._lock:
                hist.count += int(fields.get("count", 0))
                hist.sum += float(fields.get("sum", 0.0))
                for field, better in (("min", min), ("max", max)):
                    if field in fields:
                        current = getattr(hist, field)
                        setattr(
                            hist,
                            field,
                            fields[field]
                            if current is None
                            else better(current, fields[field]),
                        )

    def __deepcopy__(self, memo) -> "MetricsRegistry":
        """A faithful clone with fresh locks.

        Locks are not copyable, but registry holders (a live ``Backend``
        with a ``FlopCounter`` inside a ``RunSpec``, say) flow through
        ``copy.deepcopy`` / ``dataclasses.asdict`` — so clone by value:
        same metric identities and kinds, independent mutation.
        """
        clone = MetricsRegistry()
        with self._lock:
            items = list(self._metrics.items())
        for (name, labels), metric in items:
            kwargs = dict(labels)
            if isinstance(metric, Histogram):
                hist = clone.histogram(name, **kwargs)
                hist.count, hist.sum = metric.count, metric.sum
                hist.min, hist.max = metric.min, metric.max
            elif isinstance(metric, Gauge):
                clone.gauge(name, **kwargs).set(metric.value)
            else:
                clone.counter(name, **kwargs)._set(metric.value)
        memo[id(self)] = clone
        return clone

    def reset(self) -> None:
        """Zero every metric (identities survive, so held references stay live)."""
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, Histogram):
                    metric.count, metric.sum = 0, 0.0
                    metric.min = metric.max = None
                else:
                    metric._value = 0


#: The process-global registry: the ``peps.*`` work counters live here (each
#: counting module holds its handle), and the run/sweep lifecycle snapshots
#: it around steps and points.
REGISTRY = MetricsRegistry()

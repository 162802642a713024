"""Result sinks: where the simulation driver streams step records.

A *record* is one flat JSON-serializable dict per measured step (e.g.
``{"step": 10, "energy": -0.61, "max_bond": 4}``).  Sinks receive records as
they are produced so long runs leave a usable trace even if interrupted:

* :class:`JSONLSink` — appends one JSON object per line (the streaming
  format; safe to tail while the run is in flight),
* :class:`JSONSink` — rewrites one JSON document (atomic) on every flush,
* :class:`MemorySink` — keeps records in memory only (library/benchmark use).

On resume the driver re-opens the sink with the records recovered from the
checkpoint, so the results file of a resumed run is identical to the one an
uninterrupted run would have produced.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Union

from repro.sim.io import atomic_write_json


class ResultSink:
    """Base class: collects records and optionally persists them."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def open(self, prior_records: Optional[List[Dict[str, Any]]] = None) -> None:
        """Start (or restart) the stream, seeding it with checkpointed records."""
        self.records = list(prior_records) if prior_records else []

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        """Flush and finalize the stream."""


class MemorySink(ResultSink):
    """Keep records in memory only."""


class JSONLSink(ResultSink):
    """Stream records to a JSON-lines file, one object per line."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        super().__init__()
        self.path = os.fspath(path)
        self._handle = None

    def open(self, prior_records: Optional[List[Dict[str, Any]]] = None) -> None:
        super().open(prior_records)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Rewrite from scratch: on resume the prior records come from the
        # checkpoint, so the file never contains a partial tail twice.
        self._handle = open(self.path, "w")
        for record in self.records:
            self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def write(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self.open(self.records)
        super().write(record)
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class JSONSink(ResultSink):
    """Persist all records as one JSON document (atomically rewritten)."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        super().__init__()
        self.path = os.fspath(path)

    def write(self, record: Dict[str, Any]) -> None:
        super().write(record)
        self._flush()

    def close(self) -> None:
        self._flush()

    def _flush(self) -> None:
        atomic_write_json(self.path, {"records": self.records})


class SweepSink:
    """Merge per-point record streams into one combined sweep document.

    Wraps any :class:`ResultSink`: each merged record is the point's step
    record tagged with the point name (``{"point": "0002-rank2", ...}``).
    The sweep driver feeds points in expansion order, so the combined
    document is deterministic regardless of execution order or parallelism.
    """

    def __init__(self, sink: ResultSink) -> None:
        self.sink = sink

    @property
    def records(self) -> List[Dict[str, Any]]:
        return self.sink.records

    def open(self) -> None:
        self.sink.open()

    def write_point(self, point: str, records: List[Dict[str, Any]]) -> None:
        """Append one point's records, each tagged with the point name."""
        for record in records:
            self.sink.write({"point": point, **record})

    def write_reference(self, row: Dict[str, Any]) -> None:
        """Append the sweep-level shared-reference row.

        Written once, before any point's records, nested under a
        ``"reference"`` key and carrying no ``"point"`` tag — so per-point
        readers (:meth:`SweepResult.point_records`) never see it.
        """
        self.sink.write({"reference": dict(row)})

    def close(self) -> None:
        self.sink.close()


def make_sink(path: Optional[Union[str, os.PathLike]]) -> ResultSink:
    """Sink for a results path: ``.jsonl`` streams lines, other suffixes get
    one JSON document, ``None`` keeps records in memory."""
    if path is None:
        return MemorySink()
    path = os.fspath(path)
    if path.endswith(".jsonl"):
        return JSONLSink(path)
    return JSONSink(path)

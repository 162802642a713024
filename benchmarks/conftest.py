"""Shared configuration for the benchmark harnesses.

Every benchmark module regenerates one table or figure of the paper's
evaluation section.  The paper's runs use an 8x8 / 15x15 PEPS with bond
dimensions up to 64-280 on the Stampede2 supercomputer; on a single-core
CI-class machine those sizes are
infeasible, so by default every harness runs a *scaled-down* sweep that
preserves the sweep structure (same algorithms, same axes, smaller lattice
and bond dimensions).  Set the environment variable ``REPRO_SCALE=full`` to
run closer to paper scale (slow), or ``REPRO_SCALE=smoke`` for the quickest
possible pass.

Each benchmark prints the rows/series the corresponding figure plots (run
pytest with ``-s`` to see them) and stores the same numbers in
``benchmark.extra_info`` so they survive in the pytest-benchmark JSON.

Sweep-driven benchmarks (Fig. 13/14, via :mod:`repro.sim.sweep`) additionally
emit a machine-readable perf document ``BENCH_<figure>.json`` into the
working directory through :func:`write_bench_json`, so the performance
trajectory of the hot paths is tracked run over run.  The format::

    {
      "benchmark": "fig13",              # figure key
      "scale": "default",                # active REPRO_SCALE preset
      "points": [                        # one entry per sweep point,
        {                                # in expansion order
          "name": "0000-rank1-bond1",    # sweep point name
          "overrides": {"update.rank": 1, "contraction.bond": 1},
          "wall_time_s": 0.41,           # wall time of the point's run
          "flops": 1.1e7,                # FlopCounter total (numpy backend)
          "flops_by_category": {"einsum": ..., "svd": ..., "qr": ...},
          "row_absorptions": 36,         # boundary-contraction work units
          "ctm_moves": 0                 # CTM directional moves
        }, ...
      ]
    }

``wall_time_s`` is machine-dependent; ``flops``/``row_absorptions`` are
algorithmic counts and comparable across machines.
"""

import json
import os

import pytest

#: Scale presets: lattice sizes and bond-dimension sweeps per experiment.
SCALE = os.environ.get("REPRO_SCALE", "default").lower()


def scaled(default, full, smoke=None):
    """Pick a parameter by the active scale preset."""
    if SCALE == "full":
        return full
    if SCALE == "smoke":
        return smoke if smoke is not None else default
    return default


def print_series(title, header, rows):
    """Print a figure/table series in a compact aligned form."""
    print(f"\n=== {title} ===")
    print(" | ".join(str(h) for h in header))
    for row in rows:
        print(" | ".join(_format(v) for v in row))


def _format(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def write_bench_json(figure, sweep_spec, sweep_result, path=None):
    """Emit the ``BENCH_<figure>.json`` perf document (see module docstring).

    Takes the :class:`~repro.sim.sweep.SweepSpec` that defined the grid and
    the :class:`~repro.sim.sweep.SweepResult` of a ``count_flops=True`` run;
    per-point wall time and flop counts come from the sweep's manifest
    metrics.
    """
    points = []
    for point in sweep_spec.expand():
        metrics = sweep_result.metrics.get(point.name) or {}
        points.append({
            "name": point.name,
            "overrides": point.overrides,
            "wall_time_s": metrics.get("wall_time_s"),
            "flops": metrics.get("flops"),
            "flops_by_category": metrics.get("flops_by_category"),
            "row_absorptions": metrics.get("row_absorptions"),
            "ctm_moves": metrics.get("ctm_moves"),
        })
    payload = {"benchmark": figure, "scale": SCALE, "points": points}
    path = path or f"BENCH_{figure}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def write_distributed_bench(section, points, path=None):
    """Merge one section of the executor comparison into ``BENCH_distributed.json``.

    The strong- and weak-scaling harnesses each contribute a section
    (``"strong_scaling"`` / ``"weak_scaling"``) of points recording the cost
    model's *predicted* seconds next to the pool executor's *measured* wall
    seconds for the same operations::

        {
          "benchmark": "distributed",
          "scale": "default",
          "strong_scaling": [
            {"cores": 2, "bond": 32, "predicted_s": ..., "measured_s": ...,
             "ratio": ...}, ...
          ],
          "weak_scaling": [...]
        }

    Sections merge into one document so either harness can run alone; a
    ``ratio`` is ``predicted_s / measured_s``.
    """
    path = path or "BENCH_distributed.json"
    payload = {"benchmark": "distributed", "scale": SCALE}
    if os.path.exists(path):
        with open(path) as handle:
            existing = json.load(handle)
        if existing.get("benchmark") == "distributed":
            for key in ("strong_scaling", "weak_scaling"):
                if key in existing:
                    payload[key] = existing[key]
    payload[section] = points
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


@pytest.fixture
def record_rows(benchmark):
    """Attach a printable series to a pytest-benchmark entry."""

    def _record(title, header, rows):
        print_series(title, header, rows)
        benchmark.extra_info["series_title"] = title
        benchmark.extra_info["series_header"] = list(header)
        benchmark.extra_info["series_rows"] = [list(map(str, r)) for r in rows]

    return _record

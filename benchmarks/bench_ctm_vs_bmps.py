"""CTM vs boundary-MPS environments on the Heisenberg ITE workload.

Both environment families serve the same queries — norms, batched
measurements, multi-term expectation values — from cached directional
boundaries; they differ in how a row absorption is renormalized:

* a BMPS ``BoundaryEnvironment`` truncates inside the zip-up sweep (explicit SVD per
  column), bounded by the truncation bond ``m``;
* ``EnvCTM`` absorbs exactly and then truncates every internal bond with
  projectors built from the corner transfer matrices, bounded by the
  environment bond ``chi``.

This harness runs the Fig. 13-style J1-J2 Heisenberg ITE workload through
the simulation runner once per environment/bond pair and reports the final
energy per site, its deviation from the exact-contraction reference, the
number of boundary row absorptions (the dominant cost unit) and wall time.
The expected shape: both families converge to the exact reference as the
bond grows, with CTM spending the same number of row absorptions (it plugs
into the same incremental caches) but more work per absorption at equal
bond (exact growth before projection).
"""

import time

from repro.sim import RunSpec, Simulation
from repro.telemetry import REGISTRY

from benchmarks.conftest import scaled

LATTICE = scaled((3, 3), (4, 4), (2, 2))
N_STEPS = scaled(8, 30, 4)
BONDS = scaled([2, 4, 8], [2, 4, 8, 16], [2, 4])
TAU = 0.05

MODEL = {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 1.0],
         "j2": [0.5, 0.5, 0.5], "field": [0.2, 0.2, 0.2]}


def _run_ite(contraction, label):
    """One ITE trace through the runner; returns (final energy, absorptions, seconds)."""
    nrow, ncol = LATTICE
    spec = RunSpec.from_dict({
        "name": f"ctm-vs-bmps-{label}",
        "workload": "ite",
        "lattice": [nrow, ncol],
        "n_steps": N_STEPS,
        "model": MODEL,
        "algorithm": {"tau": TAU},
        "update": {"kind": "qr", "rank": 2},
        "contraction": contraction,
        "measure_every": N_STEPS,
    })
    REGISTRY.reset()
    start = time.perf_counter()
    result = Simulation(spec).run()
    elapsed = time.perf_counter() - start
    return result.final_energy, REGISTRY.value("peps.row_absorptions"), elapsed


def test_ctm_vs_bmps_accuracy_cost(benchmark, record_rows):
    nrow, ncol = LATTICE

    def sweep():
        reference, ref_absorptions, _ = _run_ite({"kind": "exact"}, "exact")
        rows = []
        for bond in BONDS:
            e_bmps, n_bmps, t_bmps = _run_ite(
                {"kind": "bmps", "bond": bond}, f"bmps-{bond}"
            )
            e_ctm, n_ctm, t_ctm = _run_ite(
                {"kind": "ctm", "chi": bond}, f"ctm-{bond}"
            )
            rows.append((
                bond,
                e_bmps, abs(e_bmps - reference), n_bmps, t_bmps,
                e_ctm, abs(e_ctm - reference), n_ctm, t_ctm,
            ))
        return reference, rows

    reference, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows(
        f"CTM vs BMPS environments: {nrow}x{ncol} J1-J2 Heisenberg ITE, "
        f"{N_STEPS} steps (exact reference {reference:.6f})",
        ["bond", "E bmps", "|dE| bmps", "absorptions bmps", "s bmps",
         "E ctm", "|dE| ctm", "absorptions ctm", "s ctm"],
        rows,
    )
    # Shape: both environment families converge toward the exact reference.
    bmps_errors = [row[2] for row in rows]
    ctm_errors = [row[6] for row in rows]
    assert bmps_errors[-1] <= bmps_errors[0] + 1e-9
    assert ctm_errors[-1] <= ctm_errors[0] + 1e-9
    assert ctm_errors[-1] < 1e-3
    # Both plug into the same incremental row caches: equal absorption counts.
    assert all(row[3] == row[7] for row in rows)

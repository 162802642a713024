"""What a run maps: heavy dependencies load where they are first used.

Each case runs in a fresh interpreter, since this test process has long
since imported everything.  An ITE run through the CLI module never loads
SciPy's optimizer (nor the ``sparse``, ``special`` ... packages it pulls in)
or the daemon's HTTP stack; a VQE loads ``scipy.optimize`` on its first
optimizer call, and the daemon's names still resolve from ``repro.sim``.
"""

import json

from test_backend_numpy import run_fresh

#: Modules only a VQE (SciPy's SLSQP) or the ``serve`` daemon needs.
HEAVY = (
    "scipy.optimize",
    "scipy.sparse",
    "scipy.special",
    "http.server",
    "urllib.request",
    "ssl",
)

SPEC = {
    "name": "imports", "lattice": [2, 2], "n_steps": 1, "seed": 7,
    "update": {"kind": "qr", "rank": 2},
    "contraction": {"kind": "bmps", "bond": 4},
}


def loaded_after(body: str) -> dict:
    """Run ``body`` after ``import repro.sim.__main__`` in a new interpreter;
    returns which of ``HEAVY`` were loaded before and after it."""
    out = run_fresh(f"""
import json, sys
import repro.sim.__main__
from repro.sim import RunSpec, Simulation
HEAVY = {HEAVY!r}
before = [m for m in HEAVY if m in sys.modules]
{body}
print(json.dumps({{"before": before,
                  "after": [m for m in HEAVY if m in sys.modules]}}))
""")
    return json.loads(out.splitlines()[-1])


def test_ite_run_loads_no_optimizer_and_no_http_stack():
    spec = dict(SPEC, workload="ite", model={"kind": "heisenberg_j1j2"})
    loaded = loaded_after(f"Simulation(RunSpec.from_dict({spec!r})).run()")
    assert loaded == {"before": [], "after": []}


def test_vqe_segment_loads_the_optimizer():
    spec = dict(SPEC, workload="vqe", model={"kind": "transverse_field_ising"},
                algorithm={"n_layers": 1, "iters_per_step": 1})
    loaded = loaded_after(f"Simulation(RunSpec.from_dict({spec!r})).run()")
    assert loaded["before"] == []
    assert "scipy.optimize" in loaded["after"]


def test_daemon_names_resolve_on_first_use():
    loaded = loaded_after(
        "from repro.sim import ServeClient\n"
        "import repro.sim\n"
        "assert ServeClient is repro.sim.serve.ServeClient\n"
        "assert repro.sim.ServeDaemon.__module__ == 'repro.sim.serve'\n"
        "assert repro.sim.wait_for_endpoint.__module__ == 'repro.sim.serve'\n"
    )
    assert loaded["before"] == []
    assert {"http.server", "urllib.request"} <= set(loaded["after"])

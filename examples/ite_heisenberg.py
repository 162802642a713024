"""Ground state of the J1-J2 Heisenberg model by imaginary time evolution.

This is a scaled-down version of the paper's Fig. 13 study, expressed as a
declarative :class:`repro.sim.RunSpec` and executed by the simulation runner:
a square-lattice spin-1/2 J1-J2 model is evolved in imaginary time from
|+...+> with TEBD on a PEPS, for several evolution bond dimensions r, and each
run's energy is compared against the exact statevector Trotter trajectory.

The couplings are anisotropic (J1 = (1, 1, 0.5), J2 = (0.5, 0.5, 0.25),
field h = 0.2 on every axis).  The paper's isotropic couplings keep |+...+>
in the maximal-spin multiplet: there the exact trajectory stays a product
state and is unstable, so a round-off-sized seed (1e-12 moves its step-20
energy from +1.77 to -1.75) decides where a PEPS run ends.  Broken symmetry
makes the reference a trajectory a PEPS run can be measured against.

Passing ``--checkpoint-every N`` makes the runs resumable: interrupt the
script and rerun with ``--resume`` to continue from the last checkpoint
(the resumed trace matches an uninterrupted run float-for-float).

Run with:  python examples/ite_heisenberg.py [--side 3] [--steps 20]
"""

import argparse

import numpy as np

from repro.sim import RunSpec, Simulation
from repro.statevector import StateVector


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--side", type=int, default=3, help="lattice side length (paper: 4)")
    parser.add_argument("--steps", type=int, default=20, help="ITE steps (paper: 150)")
    parser.add_argument("--tau", type=float, default=0.05, help="imaginary time step")
    parser.add_argument("--ranks", type=int, nargs="+", default=[1, 2],
                        help="evolution bond dimensions to sweep (paper: 1..10)")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        help="persist a resumable checkpoint every N steps (0 = off)")
    parser.add_argument("--checkpoint-dir", default="checkpoints")
    parser.add_argument("--resume", action="store_true",
                        help="continue each run from its latest checkpoint")
    args = parser.parse_args()

    nrow = ncol = args.side
    model = {"kind": "heisenberg_j1j2", "j1": [1.0, 1.0, 0.5],
             "j2": [0.5, 0.5, 0.25], "field": [0.2, 0.2, 0.2]}
    ham = RunSpec(lattice=(nrow, ncol), model=model).build_model()
    n_sites = ham.n_sites
    print(f"J1-J2 Heisenberg model on a {nrow}x{ncol} lattice "
          f"({len(ham)} local terms, {n_sites} sites)")

    # Exact statevector ITE reference (small lattices only).
    plus = np.ones(2**n_sites, dtype=complex) / np.sqrt(2**n_sites)
    _, sv_energies = StateVector(plus).imaginary_time_evolution(ham, args.tau, args.steps)
    print(f"statevector ITE energy per site after {args.steps} steps: {sv_energies[-1]:+.6f}")
    if n_sites <= 16:
        print(f"exact ground state energy per site: {ham.ground_state_energy() / n_sites:+.6f}")

    for r in args.ranks:
        m = max(r * r, 2)  # contraction bond m = r^2, as in the paper
        spec = RunSpec.from_dict({
            "name": f"ite-heisenberg-r{r}",
            "workload": "ite",
            "lattice": [nrow, ncol],
            "n_steps": args.steps,
            "model": model,
            "algorithm": {"tau": args.tau},
            "update": {"kind": "qr", "rank": r},
            "contraction": {"kind": "ibmps", "bond": m, "niter": 1, "seed": 0},
            "measure_every": max(1, args.steps // 5),
            "checkpoint_every": args.checkpoint_every,
            "checkpoint_dir": args.checkpoint_dir,
        })
        result = Simulation(spec).run(resume=args.resume)
        series = ", ".join(f"{rec['step']}:{rec['energy']:+.4f}" for rec in result.records)
        print(f"PEPS ITE  r={r} m={m}:  {series}")
        gap = result.final_energy - sv_energies[-1]
        print(f"          final energy per site = {result.final_energy:+.6f} "
              f"(statevector {sv_energies[-1]:+.6f}, gap {gap:+.6f})")


if __name__ == "__main__":
    main()

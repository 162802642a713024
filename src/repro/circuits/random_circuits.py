"""Random quantum circuits (RQC) on a 2D lattice.

The paper benchmarks contraction accuracy (Fig. 10) on PEPS generated by
random quantum circuits in the style of the quantum-supremacy experiments
[Boixo et al. 2018, Arute et al. 2019]: layers of random single-qubit gates
with entangling two-qubit gates applied periodically.  Following the paper's
construction, iSWAP gates are applied to **all pairs of neighbouring sites
every four layers**, which multiplies the PEPS bond dimension by 4 at each
entangling round (8 layers → initial bond dimension 16).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.circuits.circuit import Circuit, Gate
from repro.utils.rng import SeedLike, ensure_rng

#: The single-qubit gates a layer draws from: sqrt(X), sqrt(Y), sqrt(W).
SINGLE_QUBIT_GATESET = ("SX", "SY", "SW")


def _lattice_neighbor_pairs(nrow: int, ncol: int) -> List[Tuple[int, int]]:
    """All nearest-neighbour pairs of an ``nrow x ncol`` lattice (row-major)."""
    pairs = []
    for r in range(nrow):
        for c in range(ncol):
            site = r * ncol + c
            if c + 1 < ncol:
                pairs.append((site, site + 1))
            if r + 1 < nrow:
                pairs.append((site, site + ncol))
    return pairs


def rqc_layer_structure(n_layers: int, entangle_every: int = 4) -> List[bool]:
    """Which layers carry the entangling iSWAP round.

    The entangling round fires on layers ``entangle_every, 2*entangle_every, ...``
    (1-based), matching "every four layers" in the paper.
    """
    return [((layer + 1) % entangle_every == 0) for layer in range(n_layers)]


def random_quantum_circuit(
    nrow: int,
    ncol: int,
    n_layers: int = 8,
    entangle_every: int = 4,
    seed: SeedLike = None,
) -> Circuit:
    """Generate a random quantum circuit on an ``nrow x ncol`` qubit lattice.

    Each layer applies an independently chosen random single-qubit gate from
    the supremacy gate set ``{sqrt(X), sqrt(Y), sqrt(W)}`` to every qubit;
    every ``entangle_every`` layers an iSWAP is applied to **every**
    neighbouring pair, as in the paper's Fig. 10 setup.

    Every gate choice comes from the *single* generator resolved from
    ``seed``, so a run driver can thread one seeded stream through the whole
    circuit — the simulation runner passes
    ``seed=derive_rng(spec.seed, "circuit")`` (see :mod:`repro.utils.rng`),
    making the circuit a pure function of the run seed.

    Parameters
    ----------
    nrow, ncol:
        Lattice dimensions.
    n_layers:
        Number of single-qubit layers (the paper uses 8, giving two
        entangling rounds and an initial PEPS bond dimension of 16).
    entangle_every:
        Period of the entangling rounds.
    seed:
        Seed for reproducibility; an existing generator is consumed in
        place, advancing the caller's stream.
    """
    if n_layers < 1:
        raise ValueError(f"n_layers must be positive, got {n_layers}")
    rng = ensure_rng(seed)
    n_qubits = nrow * ncol
    circuit = Circuit(n_qubits)
    pairs = _lattice_neighbor_pairs(nrow, ncol)
    entangling = rqc_layer_structure(n_layers, entangle_every)

    # Avoid repeating the same single-qubit gate on the same qubit in
    # consecutive layers (a standard supremacy-circuit rule that keeps the
    # state spreading).
    last_choice = [-1] * n_qubits

    for layer, do_entangle in enumerate(entangling):
        for q in range(n_qubits):
            choices = [i for i in range(len(SINGLE_QUBIT_GATESET)) if i != last_choice[q]]
            # The draw of ``rng.choice(choices)``, without its array conversion.
            idx = choices[int(rng.integers(0, len(choices)))]
            last_choice[q] = idx
            circuit.append(Gate.named(SINGLE_QUBIT_GATESET[idx], (q,)))
        if do_entangle:
            for a, b in pairs:
                circuit.iswap(a, b)
    return circuit


def expected_peps_bond_dimension(n_layers: int) -> int:
    """Bond dimension of a PEPS evolved exactly through the RQC (entangling
    every fourth layer).

    Each entangling round applies an iSWAP (operator Schmidt rank 4) to every
    bond, multiplying the bond dimension by 4.
    """
    rounds = sum(rqc_layer_structure(n_layers))
    return 4**rounds

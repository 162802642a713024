"""Trotter-Suzuki decomposition and TEBD layers for PEPS evolution.

A first-order Trotter step of ``exp(tau * H)`` for ``H = sum_j H_j`` applies
the local operators ``exp(tau * H_j)`` one after the other; on a PEPS each
application is a one- or two-site update (Section II-D1 of the paper).  The
"one layer of TEBD operators" benchmarked in Figs. 7, 11 and 12 corresponds
to one such sweep over every nearest-neighbour bond of the lattice.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.lattice import LatticeLike, as_lattice
from repro.peps.peps import PEPS
from repro.peps.update import UpdateOption
from repro.utils.rng import SeedLike, ensure_rng


def tebd_gate_layer(
    lattice: LatticeLike,
    ncol: Optional[int] = None,
    rng: SeedLike = None,
) -> List[Tuple[Tuple[int, int], np.ndarray]]:
    """A synthetic TEBD layer: one random two-site gate per nearest-neighbour bond.

    Used by the evolution benchmarks, which measure the cost of applying one
    layer of TEBD operators without caring about a specific Hamiltonian.
    Each gate is ``exp(-tau * K)`` for a random Hermitian ``K`` (so it is a
    generic non-unitary ITE-style operator of full operator Schmidt rank).

    The sweep order comes from the lattice's bond partition, color group after
    color group.  One random gate is drawn per bond *in that order*, so the
    RNG stream follows the schedule; on a single-color square lattice the
    partition is the canonical row-major order and the layer is bitwise
    identical to the historical open-coded enumeration.  Accepts a
    :class:`repro.lattice.Lattice` (with ``ncol=None``) or the legacy
    ``(nrow, ncol)`` integer pair.
    """
    lat = as_lattice(lattice, ncol)
    rng = ensure_rng(rng)
    pairs: List[Tuple[int, int]] = []
    for group in lat.bond_partition("nn"):
        for bond in group:
            pairs.append(bond.indices(lat.ncol))
    gates = []
    for pair in pairs:
        k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        k = 0.5 * (k + k.conj().T)
        evals, evecs = np.linalg.eigh(k)
        gate = (evecs * np.exp(-0.1 * evals)) @ evecs.conj().T
        gates.append((pair, gate.astype(np.complex128)))
    return gates


def apply_tebd_layer(
    state: PEPS,
    gates: Sequence[Tuple[Sequence[int], np.ndarray]],
    update_option: Optional[UpdateOption] = None,
) -> PEPS:
    """Apply one layer of (one- or two-site) TEBD operators to a PEPS in place."""
    for sites, matrix in gates:
        state.apply_operator(matrix, list(sites), update_option)
    return state

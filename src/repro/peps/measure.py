"""The Trotter/Taylor alternative to term-by-term expectation values (Eq. 6).

Term-by-term expectation values — the caching strategy of Section IV-B — are
an environment query (:meth:`repro.peps.peps.PEPS.expectation`, served by
:mod:`repro.peps.envs`).  This module holds the alternative the paper
sketches next to it: :func:`expectation_via_evolution`, one forward
imaginary-time step and two overlaps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.peps.contraction.options import ContractOption
from repro.peps.envs.boundary import local_terms as _local_terms


def expectation_via_evolution(
    peps,
    hamiltonian,
    tau: float = 1e-3,
    contract_option: Optional[ContractOption] = None,
    normalized: bool = True,
) -> float:
    """Alternative expectation value via Trotter + Taylor expansion (Eq. 6).

    The paper's Section IV-B notes that ``<psi|H|psi>`` can also be estimated
    from a single additional two-layer contraction:

        <psi|H|psi> = ( <psi| prod_j exp(tau H_j) |psi> - <psi|psi> ) / tau + O(tau)

    i.e. apply one *forward* imaginary-time step of size ``tau`` to a copy of
    the state and measure the overlap with the original.  Compared with the
    term-by-term evaluation this needs one contraction instead of two full
    sweeps plus one strip per term, but the extra evolution step grows the
    bond dimension (the factors are applied exactly, without truncation),
    and the answer carries an ``O(tau)`` Trotter bias.

    Parameters
    ----------
    peps:
        The PEPS state.
    hamiltonian:
        A :class:`~repro.operators.hamiltonians.Hamiltonian` (sums of local
        terms; Observables can be converted via their local terms as well).
    tau:
        Expansion step; smaller values reduce the Trotter bias but amplify
        cancellation error.
    contract_option:
        Contraction option used for both overlaps (default: exact).
    normalized:
        Divide by ``<psi|psi>``.
    """
    from repro.peps.update import QRUpdate

    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    update_option = QRUpdate(rank=None)

    evolved = peps.copy()
    for sites, matrix in _local_terms(hamiltonian):
        if len(sites) == 0:
            continue
        gate = _matrix_exponential(np.asarray(matrix, dtype=np.complex128), tau)
        evolved.apply_operator(gate, list(sites), update_option)

    overlap = peps.inner(evolved, contract_option)
    norm_sq = peps.inner(peps, contract_option)
    constant = sum(
        complex(matrix[0, 0]) for sites, matrix in _local_terms(hamiltonian) if len(sites) == 0
    )
    value = (overlap - norm_sq) / tau + constant * norm_sq
    if normalized:
        value = value / norm_sq
    return float(np.real(value))


def _matrix_exponential(matrix: np.ndarray, tau: float) -> np.ndarray:
    """``exp(tau * matrix)`` for a Hermitian local-term matrix."""
    evals, evecs = np.linalg.eigh(matrix)
    return (evecs * np.exp(tau * evals)) @ evecs.conj().T


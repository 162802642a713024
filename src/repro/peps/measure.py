"""Expectation values of local observables on PEPS.

The caching strategy of Section IV-B lives in the pluggable environment
subsystem (:mod:`repro.peps.envs`): boundary environments of the
``<psi|psi>`` sandwich are computed once — one sweep from the top and one
from the bottom — and every local term is evaluated with a short strip
contraction, with incremental dirty-row invalidation on top.  This module
holds the entry points on top of it:

* :func:`expectation_value` — term-by-term evaluation with
  (``use_cache=True``) or without (``use_cache=False``) shared boundary
  environments; the implementation behind
  :meth:`repro.peps.peps.PEPS.expectation`,
* :func:`expectation_via_evolution` — the Trotter/Taylor alternative (Eq. 6).
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.operators.hamiltonians import Hamiltonian
from repro.operators.observable import Observable
from repro.peps.contraction.options import BMPS, ContractOption, Exact
from repro.peps.contraction.two_layer import (
    absorb_sandwich_row,
    absorption_option,
    close_boundaries,
    trivial_boundary,
)
from repro.peps.envs.base import local_terms as _local_terms
from repro.peps.envs.boundary import make_environment
from repro.peps.envs.strip import strip_value


def expectation_value(
    peps,
    observable: Union[Observable, Hamiltonian],
    use_cache: bool = True,
    contract_option: Optional[ContractOption] = None,
    normalized: bool = True,
) -> float:
    """``<psi|O|psi>`` (optionally divided by ``<psi|psi>``) for a local observable.

    The implementation behind :meth:`repro.peps.peps.PEPS.expectation`:
    ``use_cache=True`` builds (ephemeral) boundary environments shared by all
    local terms, ``use_cache=False`` recomputes fresh boundaries per term.
    """
    terms = _local_terms(observable)

    if use_cache:
        env = make_environment(peps, contract_option)
        return env.expectation(terms, normalized=normalized)

    backend = peps.backend
    svd_option = absorption_option(contract_option)
    norm_sq = close_boundaries(
        backend,
        _fresh_boundary(peps, range(peps.nrow), svd_option),
        trivial_boundary(backend, peps.ncol),
    )
    total = 0.0 + 0.0j
    for sites, matrix in terms:
        if len(sites) == 0:
            total += complex(matrix[0, 0]) * norm_sq
            continue
        rows = [peps.site_position(s)[0] for s in sites]
        r0, r1 = min(rows), max(rows)
        if r1 - r0 > 1:
            raise ValueError(
                f"term on sites {sites} spans rows {r0}..{r1}; only terms within "
                f"two adjacent rows are supported"
            )
        upper = _fresh_boundary(peps, range(r0), svd_option)
        lower = _fresh_boundary(peps, range(peps.nrow - 1, r1, -1), svd_option, from_below=True)
        total += strip_value(peps, upper, lower, r0, r1, sites, matrix)

    value = total / norm_sq if normalized else total
    return float(np.real(value))


def expectation_via_evolution(
    peps,
    hamiltonian,
    tau: float = 1e-3,
    contract_option: Optional[ContractOption] = None,
    update_option=None,
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
    bond dimension (or requires truncation via ``update_option``), and the
    answer carries an ``O(tau)`` Trotter bias.

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
    update_option:
        PEPS update option used to apply the ``exp(tau H_j)`` factors
        (default: exact application, no truncation).
    normalized:
        Divide by ``<psi|psi>``.
    """
    from repro.peps.update import QRUpdate

    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    update_option = update_option if update_option is not None else QRUpdate(rank=None)

    evolved = peps.copy()
    for sites, matrix in _local_terms(hamiltonian):
        if len(sites) == 0:
            continue
        gate = _matrix_exponential(np.asarray(matrix, dtype=np.complex128), tau)
        evolved.apply_operator(gate, list(sites), update_option)

    inner_option = contract_option
    if inner_option is not None and not isinstance(inner_option, (Exact, BMPS)):
        raise TypeError(
            f"unsupported contraction option {type(inner_option).__name__}"
        )
    overlap = peps.inner(evolved, inner_option)
    norm_sq = peps.inner(peps, inner_option)
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


def _fresh_boundary(peps, rows, svd_option, from_below: bool = False) -> List:
    """Environment absorbing ``rows`` in order, without caching: rows
    ``0..r0-1`` from the top (upper) or ``nrow-1..r1+1`` from below (lower)."""
    backend = peps.backend
    boundary = trivial_boundary(backend, peps.ncol)
    for i in rows:
        boundary = absorb_sandwich_row(
            boundary, peps.grid[i], peps.grid[i],
            option=svd_option, backend=backend, from_below=from_below,
        )
    return boundary

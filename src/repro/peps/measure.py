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

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.operators.hamiltonians import Hamiltonian
from repro.operators.observable import Observable
from repro.peps.contraction.options import BMPS, ContractOption, Exact
from repro.peps.contraction.two_layer import (
    absorb_sandwich_row,
    close_boundaries,
    trivial_boundary,
)
from repro.peps.envs.base import local_terms as _local_terms
from repro.peps.envs.boundary import make_environment
from repro.peps.envs.strip import strip_value
from repro.tensornetwork.einsumsvd import EinsumSVDOption

#: Site tensor index order.
PHYS, UP, LEFT, DOWN, RIGHT = 0, 1, 2, 3, 4


def _resolve_option(contract_option: Optional[ContractOption]) -> Tuple[Optional[EinsumSVDOption], Optional[int]]:
    """Extract the einsumsvd option and truncation bond from a contraction option."""
    if contract_option is None or isinstance(contract_option, Exact):
        return None, None
    if isinstance(contract_option, BMPS):
        svd_option = contract_option.resolved_svd_option()
        return svd_option, svd_option.rank
    raise TypeError(
        f"unsupported contraction option {type(contract_option).__name__} for expectation values"
    )


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
    svd_option, max_bond = _resolve_option(contract_option)
    norm_sq = close_boundaries(
        backend,
        _fresh_upper(peps, peps.nrow, svd_option, max_bond),
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
        upper = _fresh_upper(peps, r0, svd_option, max_bond)
        lower = _fresh_lower(peps, r1, svd_option, max_bond)
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


def _fresh_upper(peps, stop_row: int, svd_option, max_bond) -> List:
    """Upper environment absorbing rows ``0..stop_row-1`` (no caching)."""
    backend = peps.backend
    boundary = trivial_boundary(backend, peps.ncol)
    for i in range(stop_row):
        boundary = absorb_sandwich_row(
            boundary, peps.grid[i], peps.grid[i],
            option=svd_option, max_bond=max_bond, backend=backend,
        )
    return boundary


def _fresh_lower(peps, stop_row: int, svd_option, max_bond) -> List:
    """Lower environment absorbing rows ``nrow-1..stop_row+1`` (no caching)."""
    backend = peps.backend
    boundary = trivial_boundary(backend, peps.ncol)
    for i in range(peps.nrow - 1, stop_row, -1):
        boundary = absorb_sandwich_row(
            boundary, peps.grid[i], peps.grid[i],
            option=svd_option, max_bond=max_bond, backend=backend,
            from_below=True,
        )
    return boundary

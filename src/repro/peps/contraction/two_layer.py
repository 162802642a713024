"""Row absorption into boundary MPSes.

Every boundary-MPS contraction in the paper — Algorithm 2 (boundary MPS),
Algorithm 3 (zip-up) and their two-layer variant — is one loop: contract
column 0 of the row with the boundary, then run one ``einsumsvd`` per column
over ``{working tensor, boundary site, ket site[, bra site]}``.
:func:`absorb_sandwich_row` is that loop.  A row is either a two-layer
``ket ⊗ bra*`` sandwich or a single layer with no bra (a basis-projected
amplitude, or a PEPS without physical legs, Figs. 8, 11 and 12).

Sandwich rows keep the two layers separate inside every absorption step —
never fusing bra and ket sites into one tensor of squared bond dimension —
which reduces the memory footprint and, with the implicit randomized SVD,
the asymptotic cost (two-layer IBMPS, Table II).  The environments of
:mod:`repro.peps.envs` grow every boundary of an inner product, a norm or
the expectation-value cache (Section IV-B) through it, and the perfect
sampler grows every shot's projected boundary through it too.

Boundary representation
-----------------------
A boundary is a list of tensors, one per lattice column, with index order
``(left bond, ket physical, bra physical, right bond)`` for a sandwich and
``(left bond, physical, right bond)`` for a single layer.  The "physical"
legs are the vertical PEPS legs of the row the boundary is about to touch
(dimension 1 at the lattice edge).

A batch of boundaries carries one more leading axis on every tensor,
boundary and row sites alike (its size ``S``, or ``1`` to broadcast one
tensor to every item).  :func:`absorb_sandwich_row` reads the axis off the
row: a sandwich site has 6 modes in a batch and 5 alone.
"""

from __future__ import annotations

from math import prod
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import get_backend
from repro.backends.interface import Backend
from repro.peps.contraction.options import BMPS, ContractOption, Exact
from repro.peps.update import DOWN, LEFT, PHYS, RIGHT, UP
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.trace import traced
from repro.tensornetwork.einsumsvd import EinsumSVDOption, einsumsvd

#: One unit per lattice row absorbed into a boundary MPS: the dominant cost
#: unit of every PEPS contraction, so variants compare by it, not wall time.
_ROW_ABSORPTIONS = REGISTRY.counter("peps.row_absorptions")

#: Transposition that exchanges the up and down legs of a site tensor, used
#: to absorb rows from below with the same code that absorbs from above.
_FLIP_UD = (PHYS, DOWN, LEFT, UP, RIGHT)

# Per-column subscripts, keyed by the number of layers (1: a single-layer
# site ``(up, left, down, right)``; 2: ket and bra sites ``(phys, up, left,
# down, right)``).  Operands are (boundary, ket[, bra]) — preceded by the
# working tensor in a zip-up step — and every output lists its left legs,
# then its physical legs, then its right legs, in operand order.
_EXACT = {1: "apc,pbqd->abqcd", 2: "aghi,pgemo,phfqs->aefmqios"}
_ZIPUP_FIRST = {1: "apc,pbqd->qcd", 2: "aghi,pgemo,phfqs->mqios"}
_ZIPUP_STEP = {1: "cqab,ape,pbfg->cqk,kfeg", 2: "cxyaef,aghi,pgemo,phfqs->cxyk,kmqios"}
#: Modes of one site tensor outside a batch, by the number of layers.
_SITE_MODES = {1: 4, 2: 5}


def trivial_boundary(backend: Union[str, Backend, None], ncol: int) -> List:
    """The boundary outside the lattice: all legs have dimension 1."""
    backend = get_backend(backend)
    one = backend.ones((1, 1, 1, 1))
    return [one for _ in range(ncol)]


def check_edge_legs(
    backend: Backend,
    grid: Sequence[Sequence],
    legs: Tuple[int, int, int, int] = (UP, LEFT, DOWN, RIGHT),
) -> None:
    """Raise ``ValueError`` unless every leg leaving the lattice has dimension 1.

    ``legs`` are the axes of the up, left, down and right legs of the site
    tensors: the default fits PEPS sites, ``(0, 1, 2, 3)`` single-layer ones.
    """
    up, left, down, right = legs
    nrow, ncol = len(grid), len(grid[0])
    for edge, axis, sites in (
        ("top", up, [(0, j) for j in range(ncol)]),
        ("bottom", down, [(nrow - 1, j) for j in range(ncol)]),
        ("left", left, [(i, 0) for i in range(nrow)]),
        ("right", right, [(i, ncol - 1) for i in range(nrow)]),
    ):
        for i, j in sites:
            if backend.shape(grid[i][j])[axis] != 1:
                raise ValueError(f"site ({i}, {j}) {edge} edge leg must have dimension 1")


def absorption_option(option: Optional[ContractOption]) -> Optional[EinsumSVDOption]:
    """The ``einsumsvd`` option a contraction option absorbs rows with.

    ``None`` (for ``None`` and :class:`Exact`) means exact absorption; a
    :class:`BMPS`-style option gives its resolved option, whose ``rank`` is
    the truncation bond.
    """
    if option is None or isinstance(option, Exact):
        return None
    if isinstance(option, BMPS):
        return option.resolved_svd_option()
    raise TypeError(f"unsupported contraction option {type(option).__name__}")


def _check_width(boundary: Sequence, rows: Sequence[Sequence]) -> None:
    if any(len(row) != len(boundary) for row in rows):
        raise ValueError(
            f"row width mismatch: boundary has {len(boundary)} columns, "
            f"rows have {[len(row) for row in rows]}"
        )


@traced("absorb_row")
def absorb_sandwich_row(
    boundary: Sequence,
    ket_row: Sequence,
    bra_row: Optional[Sequence] = None,
    option: Optional[EinsumSVDOption] = None,
    backend: Union[str, Backend, None] = "numpy",
    from_below: bool = False,
) -> List:
    """Absorb one row — a (ket ⊗ bra*) sandwich or a single layer — into a boundary MPS.

    Parameters
    ----------
    boundary:
        Current boundary whose physical legs face the row being absorbed.
    ket_row / bra_row:
        Site tensors ``(phys, up, left, down, right)`` of the row; the bra
        tensors are conjugated internally (pass the ket row twice for
        ``<psi|psi>`` sandwiches).  With ``bra_row=None`` the row is a
        single layer of ``(up, left, down, right)`` tensors and the boundary
        holds ``(left, phys, right)`` tensors.
    option:
        ``einsumsvd`` option controlling the zip-up truncation, its ``rank``
        being the truncation bond ``m``; ``None`` performs the absorption
        exactly (bond dimensions multiply).
    from_below:
        Absorb a sandwich row from below (used to build lower environments);
        the up/down legs of the row tensors are exchanged internally.

    Returns
    -------
    The new boundary, whose physical legs are the row's far-side vertical
    legs.

    Notes
    -----
    Given a batch (see the module docstring), the items are absorbed
    independently and the new boundary keeps the batch axis.  An exact
    absorption contracts each column of the whole batch with one
    ``einsum_batched`` call; a truncated zip-up runs item by item, since
    its SVDs have data-dependent factors.  Each item counts as one row
    absorption.  Mismatched batch sizes raise ``ValueError``.
    """
    backend = get_backend(backend)
    rows = [ket_row] if bra_row is None else [ket_row, bra_row]
    _check_width(boundary, rows)
    batch = _batch_size(backend, boundary, rows)
    _ROW_ABSORPTIONS.add(batch or 1)
    if batch is None:
        return _absorb_row(backend, backend.einsum, boundary, rows, option, from_below)
    if option is None:
        return _absorb_row(backend, backend.einsum_batched, boundary, rows, None, from_below)
    items = [
        _absorb_row(backend, backend.einsum, *_item(backend, boundary, rows, s), option, from_below)
        for s in range(batch)
    ]
    return [
        backend.astensor(np.stack([np.asarray(backend.asarray(t)) for t in column]))
        for column in zip(*items)
    ]


def _batch_size(backend: Backend, boundary, rows) -> Optional[int]:
    """The batch size of an absorption's operands (each its size or 1), or ``None``."""
    if backend.ndim(rows[0][0]) == _SITE_MODES[len(rows)]:
        return None
    sizes = {backend.shape(t)[0] for tensors in (boundary, *rows) for t in tensors}
    batch = max(sizes)
    if not sizes <= {1, batch}:
        raise ValueError(f"batch sizes {sorted(sizes)} do not broadcast")
    return batch


def _item(backend: Backend, boundary, rows, index: int) -> Tuple[List, List[List]]:
    """Item ``index`` of a batch's boundary and rows; batch-1 tensors broadcast
    and a row that is its own bra is sliced once."""

    def take(tensor):
        k = 0 if backend.shape(tensor)[0] == 1 else index
        return backend.astensor(np.asarray(backend.asarray(tensor)[k]))

    item_boundary, kets = [take(t) for t in boundary], [take(t) for t in rows[0]]
    bras = [kets if row is rows[0] else [take(t) for t in row] for row in rows[1:]]
    return item_boundary, [kets, *bras]


def _absorb_row(backend: Backend, contract, boundary, rows, option, from_below: bool) -> List:
    """One absorption: the bra conjugated, exact or zip-up.

    ``contract`` is ``backend.einsum``, or ``backend.einsum_batched`` for an
    exact absorption of a whole batch.
    """
    if from_below:  # exchange the up and down legs, past a batch axis if any
        lead = backend.ndim(rows[0][0]) - len(_FLIP_UD)
        flip = (*range(lead), *(axis + lead for axis in _FLIP_UD))
        rows = [[backend.transpose(t, flip) for t in row] for row in rows]
    if len(rows) == 2:
        rows = [rows[0], [backend.conj(t) for t in rows[1]]]
    if option is None:
        return _absorb_row_exact(backend, contract, boundary, rows)
    return _absorb_row_zipup(backend, boundary, rows, option)


def _absorb_row_exact(backend: Backend, contract, boundary, rows) -> List:
    """Exact absorption: horizontal bonds multiply (boundary x ket [x bra]).

    A batch's leading axis, which ``einsum_batched`` keeps, stays in front
    of every new site.
    """
    layers = len(rows)
    bonds = layers + 1  # horizontal legs that merge into one new bond
    new_boundary = []
    for column in zip(boundary, *rows):
        merged = contract(_EXACT[layers], *column)
        shape = backend.shape(merged)
        head, right = shape[:-bonds], shape[-bonds:]
        head, phys = head[:-layers], head[-layers:]
        batch, left = head[:-bonds], head[-bonds:]
        new_boundary.append(
            backend.reshape(merged, (*batch, prod(left), *phys, prod(right)))
        )
    return new_boundary


def _absorb_row_zipup(backend: Backend, boundary, rows, option: EinsumSVDOption) -> List:
    """Zip-up absorption (Algorithm 3, one layer or the two-layer sandwich).

    The per-site ``einsumsvd`` involves the network
    ``{working tensor, old boundary site, ket site[, bra site]}``; with an
    implicit option this is exactly the (two-layer) IBMPS step — the fused
    tensor (ket ⊗ bra, size ``r^4`` per vertical leg pair) is never
    materialized.
    """
    layers = len(rows)
    # Column 0: contract the boundary and row sites; the left legs (all of
    # dimension 1) are summed away and a dummy new-bond leg is added.
    first = backend.einsum(_ZIPUP_FIRST[layers], boundary[0], *(row[0] for row in rows))
    working = backend.reshape(first, (1, *backend.shape(first)))

    new_boundary: List = []
    for j in range(1, len(boundary)):
        left, working = einsumsvd(
            _ZIPUP_STEP[layers],
            working,
            boundary[j],
            *(row[j] for row in rows),
            option=option,
            backend=backend,
        )
        new_boundary.append(left)

    k, *legs = backend.shape(working)
    phys, right = legs[:layers], legs[layers:]
    if any(d != 1 for d in right):
        raise RuntimeError(
            f"zip-up ended with non-trivial right bonds {tuple(right)}; "
            f"the lattice edge legs must have dimension 1"
        )
    new_boundary.append(backend.reshape(working, (k, *phys, 1)))
    return new_boundary


def close_boundaries(backend: Union[str, Backend, None], upper: Sequence, lower: Sequence) -> complex:
    """Contract an upper and a lower boundary over their physical legs.

    Both boundaries must expose the same (ket, bra) physical legs — i.e. they
    were built by absorbing rows from above down to row ``i`` and from below
    up to row ``i+1`` of the same sandwich.
    """
    backend = get_backend(backend)
    if len(upper) != len(lower):
        raise ValueError(
            f"boundary widths differ: {len(upper)} vs {len(lower)} columns"
        )
    env = backend.ones((1, 1))
    for u, l in zip(upper, lower):
        env = backend.einsum("ab,apqc,bpqd->cd", env, u, l)
    return backend.item(env)


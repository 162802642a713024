"""Two-layer PEPS contraction: inner products without fusing the layers.

The inner product ``<A|B>`` of two PEPS is a two-layer network (Figure 3 of
the paper).  The naive approach fuses corresponding bra and ket sites into a
single-layer PEPS whose bond dimension is the *product* of the layer bonds
(``contract_inner_fused``); the two-layer approach keeps the layers separate
inside every boundary-MPS absorption step (``contract_inner_two_layer``),
which reduces the memory footprint and — when combined with the implicit
randomized SVD — also the asymptotic cost (two-layer IBMPS, Table II).

The row-absorption primitive :func:`absorb_sandwich_row` is also the engine
behind the expectation-value cache (Section IV-B): the cache stores boundary
MPSes of partially absorbed ``<psi|psi>`` sandwiches.

Boundary representation
-----------------------
A two-layer boundary is a list of 4-mode tensors, one per lattice column,
with index order ``(left bond, ket physical, bra physical, right bond)``.
The "physical" legs are the vertical PEPS legs of the row the boundary is
about to touch (dimension 1 at the lattice edge).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.backends import get_backend
from repro.backends.interface import Backend
from repro.peps.contraction.options import BMPS, ContractOption, Exact, TwoLayerBMPS
from repro.peps.contraction.single_layer import contract_single_layer
from repro.peps.update import DOWN, LEFT, PHYS, RIGHT, UP
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.trace import traced
from repro.tensornetwork.einsumsvd import EinsumSVDOption, einsumsvd

#: Shared with ``single_layer``: one unit per row absorbed into a boundary.
_ROW_ABSORPTIONS = REGISTRY.counter("peps.row_absorptions")

#: Transposition that exchanges the up and down legs of a site tensor, used
#: to absorb rows from below with the same code that absorbs from above.
_FLIP_UD = (PHYS, DOWN, LEFT, UP, RIGHT)


def trivial_boundary(backend: Union[str, Backend, None], ncol: int) -> List:
    """The boundary outside the lattice: all legs have dimension 1."""
    backend = get_backend(backend)
    one = backend.ones((1, 1, 1, 1))
    return [one for _ in range(ncol)]


def boundary_bond_dimensions(backend: Backend, boundary: Sequence) -> List[int]:
    """Horizontal bond dimensions of a boundary (diagnostics/tests)."""
    return [backend.shape(t)[3] for t in boundary[:-1]]


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


@traced("absorb_row")
def absorb_sandwich_row(
    boundary: Sequence,
    ket_row: Sequence,
    bra_row: Sequence,
    option: Optional[EinsumSVDOption] = None,
    backend: Union[str, Backend, None] = "numpy",
    from_below: bool = False,
) -> List:
    """Absorb one two-layer (ket ⊗ bra*) row into a boundary MPS.

    Parameters
    ----------
    boundary:
        Current boundary (list of ``(left, ket phys, bra phys, right)``
        tensors) whose physical legs face the row being absorbed.
    ket_row / bra_row:
        Site tensors ``(phys, up, left, down, right)`` of the row; the bra
        tensors are conjugated internally (pass the ket row twice for
        ``<psi|psi>`` sandwiches).
    option:
        ``einsumsvd`` option controlling the zip-up truncation, its ``rank``
        being the truncation bond ``m``; ``None`` performs the absorption
        exactly (bond dimensions multiply).
    from_below:
        Absorb the row from below (used to build lower environments); the
        up/down legs of the row tensors are exchanged internally.

    Returns
    -------
    The new boundary, whose physical legs are the row's far-side vertical
    legs.
    """
    _ROW_ABSORPTIONS.add()
    backend = get_backend(backend)
    ncol = len(boundary)
    if len(ket_row) != ncol or len(bra_row) != ncol:
        raise ValueError(
            f"row width mismatch: boundary has {ncol} columns, "
            f"ket {len(ket_row)}, bra {len(bra_row)}"
        )
    if from_below:
        ket_row = [backend.transpose(t, _FLIP_UD) for t in ket_row]
        bra_row = [backend.transpose(t, _FLIP_UD) for t in bra_row]
    bra_row = [backend.conj(t) for t in bra_row]

    if option is None:
        return _absorb_row_exact(backend, boundary, ket_row, bra_row)
    return _absorb_row_zipup(backend, boundary, ket_row, bra_row, option)


def _absorb_row_exact(backend: Backend, boundary, ket_row, bra_row) -> List:
    """Exact absorption: horizontal bonds multiply (boundary x ket x bra)."""
    new_boundary = []
    for b, k, w in zip(boundary, ket_row, bra_row):
        # b: (a, g, h, i); k: (p, g, e, m, o); w: (p, h, f, q, s)
        merged = backend.einsum("aghi,pgemo,phfqs->aefmqios", b, k, w)
        a, e, f, m, q, i, o, s = backend.shape(merged)
        new_boundary.append(backend.reshape(merged, (a * e * f, m, q, i * o * s)))
    return new_boundary


def _absorb_row_zipup(
    backend: Backend,
    boundary,
    ket_row,
    bra_row,
    option: EinsumSVDOption,
) -> List:
    """Zip-up absorption (Algorithm 3 generalized to the two-layer sandwich).

    The per-site ``einsumsvd`` involves the network
    ``{working tensor, old boundary site, ket site, bra site}``; with an
    implicit option this is exactly the two-layer IBMPS step — the fused
    MPO tensor (ket ⊗ bra, size ``r^4`` per vertical leg pair) is never
    materialized.
    """
    ncol = len(boundary)
    # Column 0: contract boundary site, ket site and bra site; the left legs
    # (all of dimension 1) are summed away and a dummy new-bond leg is added.
    w = backend.einsum("aghi,pgemo,phfqs->mqios", boundary[0], ket_row[0], bra_row[0])
    m0, q0, i0, o0, s0 = backend.shape(w)
    working = backend.reshape(w, (1, m0, q0, i0, o0, s0))

    new_boundary: List = []
    for j in range(1, ncol):
        left, right = einsumsvd(
            "cxyaef,aghi,pgemo,phfqs->cxyk,kmqios",
            working,
            boundary[j],
            ket_row[j],
            bra_row[j],
            option=option,
            backend=backend,
        )
        new_boundary.append(left)
        working = right

    k, m, q, i, o, s = backend.shape(working)
    if i != 1 or o != 1 or s != 1:
        raise RuntimeError(
            f"two-layer zip-up ended with non-trivial right bonds ({i}, {o}, {s}); "
            f"the lattice edge legs must have dimension 1"
        )
    new_boundary.append(backend.reshape(working, (k, m, q, 1)))
    return new_boundary


@traced("absorb_row_batched")
def absorb_sandwich_row_batched(
    backend: Union[str, Backend, None],
    boundary: Sequence,
    ket_row: Sequence,
    bra_row: Sequence,
) -> List:
    """Exactly absorb one (ket ⊗ bra*) row into a *batch* of boundary MPSes.

    The batched counterpart of :func:`absorb_sandwich_row` for the exact
    (untruncated) case: every tensor carries a leading batch axis (size ``S``
    or broadcastable ``1``), and each column is absorbed with one
    ``einsum_batched`` call instead of ``S`` separate einsums.  The lockstep
    sampler uses this to grow all per-shot upper boundaries at once; each
    batch item still counts as one row absorption so the global work counter
    stays comparable with per-item absorption.

    Truncated (zip-up) absorptions are inherently per-item — their SVDs have
    data-dependent factors — and stay with :func:`absorb_sandwich_row`.
    """
    backend = get_backend(backend)
    ncol = len(boundary)
    if len(ket_row) != ncol or len(bra_row) != ncol:
        raise ValueError(
            f"row width mismatch: boundary has {ncol} columns, "
            f"ket {len(ket_row)}, bra {len(bra_row)}"
        )
    batch = max(
        max(backend.shape(t)[0] for t in boundary),
        max(backend.shape(t)[0] for t in ket_row),
    )
    _ROW_ABSORPTIONS.add(batch)
    bra_row = [backend.conj(t) for t in bra_row]
    new_boundary = []
    for b, k, w in zip(boundary, ket_row, bra_row):
        merged = backend.einsum_batched("aghi,pgemo,phfqs->aefmqios", b, k, w)
        s, a, e, f, m, q, i, o, srt = backend.shape(merged)
        new_boundary.append(backend.reshape(merged, (s, a * e * f, m, q, i * o * srt)))
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


def contract_inner_two_layer(
    bra_grid: Sequence[Sequence],
    ket_grid: Sequence[Sequence],
    option: Optional[ContractOption] = None,
    backend: Union[str, Backend, None] = "numpy",
) -> complex:
    """``<bra|ket>`` keeping the two layers separate (two-layer BMPS/IBMPS).

    ``bra_grid`` holds the *unconjugated* site tensors of the bra state; the
    conjugation happens inside the absorption.
    """
    backend = get_backend(backend)
    option = option if option is not None else TwoLayerBMPS()
    nrow = len(ket_grid)
    ncol = len(ket_grid[0])
    if len(bra_grid) != nrow or len(bra_grid[0]) != ncol:
        raise ValueError("bra and ket grids must have the same dimensions")

    svd_option = absorption_option(option)
    boundary = trivial_boundary(backend, ncol)
    for i in range(nrow):
        boundary = absorb_sandwich_row(
            boundary, ket_grid[i], bra_grid[i], option=svd_option, backend=backend
        )
    return close_boundaries(backend, boundary, trivial_boundary(backend, ncol))


def contract_inner_fused(
    bra_grid: Sequence[Sequence],
    ket_grid: Sequence[Sequence],
    option: Optional[ContractOption] = None,
    backend: Union[str, Backend, None] = "numpy",
) -> complex:
    """``<bra|ket>`` by fusing the layers into one PEPS of squared bond dimension.

    This is the memory-hungry baseline the paper contrasts the two-layer
    approach with: forming the fused sites costs ``O(r1^4 r2^4)`` memory per
    site.  The fused single-layer PEPS is then contracted with the requested
    option (Exact, BMPS or IBMPS).
    """
    backend = get_backend(backend)
    option = option if option is not None else Exact()
    nrow = len(ket_grid)
    ncol = len(ket_grid[0])
    if len(bra_grid) != nrow or len(bra_grid[0]) != ncol:
        raise ValueError("bra and ket grids must have the same dimensions")

    fused = []
    for i in range(nrow):
        row = []
        for j in range(ncol):
            ket = ket_grid[i][j]
            bra = backend.conj(bra_grid[i][j])
            merged = backend.einsum("pabcd,pefgh->aebfcgdh", ket, bra)
            a, e, bdim, f, c, g, d, h = backend.shape(merged)
            row.append(backend.reshape(merged, (a * e, bdim * f, c * g, d * h)))
        fused.append(row)
    return contract_single_layer(fused, option=option, backend=backend)

"""Contraction of a single-layer PEPS (no physical legs) to a scalar.

This implements Algorithm 2 of the paper: treat the first row as the
boundary MPS and absorb the remaining rows one by one.  A single-layer row
is a sandwich without a bra, so the absorption is
:func:`~repro.peps.contraction.two_layer.absorb_sandwich_row` with
``bra_row=None``: exact (bond dimensions multiply — the exact-contraction
baseline) or the zip-up of Algorithm 3 with a truncation bond ``m``, whose
``einsumsvd`` flavour distinguishes BMPS (explicit SVD) from IBMPS (implicit
randomized SVD, Algorithm 4).

Single-layer grids appear in two situations: amplitude evaluation
(physical legs projected onto a basis state) and the synthetic "PEPS without
physical indices" benchmarks of Figs. 8, 11 and 12.  Inner products and
norms are two-layer environment queries (:mod:`repro.peps.envs`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.backends import get_backend
from repro.backends.interface import Backend
from repro.peps.contraction.options import ContractOption
from repro.peps.contraction.two_layer import (
    absorb_sandwich_row,
    absorption_option,
    check_edge_legs,
)
from repro.telemetry.trace import traced

#: Axes of the up, left, down and right legs of a single-layer site.
_SINGLE_LAYER_LEGS = (0, 1, 2, 3)


@traced("single_layer_sweep")
def contract_single_layer(
    grid: Sequence[Sequence],
    option: Optional[ContractOption] = None,
    backend: Union[str, Backend, None] = "numpy",
) -> complex:
    """Contract an ``nrow x ncol`` single-layer PEPS to a scalar (Algorithm 2).

    Parameters
    ----------
    grid:
        Nested sequence ``grid[row][col]`` of 4-mode backend tensors with
        index order ``(up, left, down, right)``; all outer legs must have
        dimension 1.
    option:
        :class:`Exact` or :class:`BMPS` (the latter covering both BMPS and
        IBMPS depending on its ``einsumsvd`` option).  Defaults to exact.
    backend:
        Tensor backend name or instance.
    """
    backend = get_backend(backend)
    if not grid:
        raise ValueError("cannot contract an empty PEPS")
    svd_option = absorption_option(option)
    check_edge_legs(backend, grid, _SINGLE_LAYER_LEGS)
    # Row 0 is the first boundary: its unit up legs are dropped.
    boundary = [backend.reshape(t, backend.shape(t)[1:]) for t in grid[0]]
    for row in grid[1:]:
        boundary = absorb_sandwich_row(boundary, row, None, option=svd_option, backend=backend)
    # The last row's down legs are the boundary's unit physical legs.
    env = backend.ones((1,))
    for t in boundary:
        left, _, right = backend.shape(t)
        env = backend.einsum("a,ab->b", env, backend.reshape(t, (left, right)))
    return backend.item(env)


"""Contraction of a single-layer PEPS (no physical legs) to a scalar.

This implements Algorithm 2 of the paper: treat the first row as an MPS, the
remaining rows as MPOs, and absorb them one by one.  The absorption step is
either exact (bond dimensions multiply — the exact-contraction baseline) or
the zip-up of Algorithm 3 with a truncation bond ``m``; the ``einsumsvd``
flavour inside the zip-up distinguishes BMPS (explicit SVD) from IBMPS
(implicit randomized SVD, Algorithm 4).

Single-layer grids appear in two situations: amplitude evaluation (physical
legs projected onto a basis state) and the synthetic "PEPS without physical
indices" benchmarks of Figs. 8, 11 and 12.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.backends import get_backend
from repro.backends.interface import Backend
from repro.mps.apply import apply_mpo_exact, apply_mpo_zipup
from repro.mps.mpo import MPO
from repro.mps.mps import MPS
from repro.peps.contraction.options import BMPS, ContractOption, Exact
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.trace import traced

#: One unit per lattice row absorbed into a boundary MPS (single-layer MPO
#: application here, sandwich rows in ``two_layer``): the dominant cost unit
#: of every PEPS contraction, so variants compare by it instead of wall time.
_ROW_ABSORPTIONS = REGISTRY.counter("peps.row_absorptions")


def _row_to_mps(backend: Backend, row: Sequence) -> MPS:
    """Interpret a PEPS row of ``(u, l, d, r)`` tensors (with u = 1) as an MPS."""
    tensors = []
    for t in row:
        u, l, d, r = backend.shape(t)
        if u != 1:
            raise ValueError(
                f"the first row of a single-layer PEPS must have unit up legs, got {u}"
            )
        tensors.append(backend.reshape(t, (l, d, r)))
    return MPS(tensors, backend)


def _row_to_mpo(backend: Backend, row: Sequence) -> MPO:
    """Interpret a PEPS row of ``(u, l, d, r)`` tensors as an MPO.

    The MPO convention is ``(left, out, in, right)``: the up leg is the input
    (contracted with the boundary MPS above), the down leg the output.
    """
    tensors = []
    for t in row:
        tensors.append(backend.transpose(t, (1, 2, 0, 3)))  # (l, d, u, r)
    return MPO(tensors, backend)


@traced("single_layer_sweep")
def single_layer_boundary_sweep(
    grid: Sequence[Sequence],
    option: ContractOption,
    backend: Union[str, Backend, None] = "numpy",
) -> MPS:
    """Absorb all rows of a single-layer PEPS from the top, returning the final
    boundary MPS (whose physical legs are the last row's down legs, i.e. 1)."""
    backend = get_backend(backend)
    nrow = len(grid)
    if nrow == 0:
        raise ValueError("cannot contract an empty PEPS")
    boundary = _row_to_mps(backend, grid[0])
    for i in range(1, nrow):
        _ROW_ABSORPTIONS.add()
        mpo = _row_to_mpo(backend, grid[i])
        if isinstance(option, Exact):
            boundary = apply_mpo_exact(boundary, mpo)
        elif isinstance(option, BMPS):
            svd_option = option.resolved_svd_option()
            boundary = apply_mpo_zipup(
                boundary, mpo, max_bond=svd_option.rank, option=svd_option
            )
        else:
            raise TypeError(
                f"unsupported contraction option {type(option).__name__} for a "
                f"single-layer PEPS"
            )
    return boundary


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
    option = option if option is not None else Exact()
    boundary = single_layer_boundary_sweep(grid, option, backend)
    return boundary.contract_to_scalar()

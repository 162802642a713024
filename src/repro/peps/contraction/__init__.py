"""PEPS contraction algorithms.

The contraction of a PEPS network to a scalar (for amplitudes, norms, inner
products and expectation values) is the computational bottleneck the paper
targets.  This subpackage provides:

* :mod:`~repro.peps.contraction.options` — option objects selecting the
  algorithm (``Exact``, ``BMPS``, ``CTMOption``), each
  carrying the wire ``kind`` spec files and checkpoints know it by,
* :mod:`~repro.peps.contraction.two_layer` — the one row absorber
  (exact or zip-up, a ``ket ⊗ bra*`` sandwich kept in two layers, or a
  single layer without a bra), the engine of every environment in
  :mod:`repro.peps.envs`, which answers norms, inner products and
  expectation values,
* :mod:`~repro.peps.contraction.single_layer` — contraction of a PEPS
  *without physical legs* by exact row absorption or boundary-MPS
  (Algorithm 2) with explicit or implicit ``einsumsvd`` (BMPS / IBMPS).
"""

from repro.peps.contraction.options import (
    ContractOption,
    CTMOption,
    Exact,
    BMPS,
)
from repro.peps.contraction.single_layer import contract_single_layer
from repro.peps.contraction.two_layer import (
    absorb_sandwich_row,
    trivial_boundary,
    close_boundaries,
)

__all__ = [
    "ContractOption",
    "CTMOption",
    "Exact",
    "BMPS",
    "contract_single_layer",
    "absorb_sandwich_row",
    "trivial_boundary",
    "close_boundaries",
]

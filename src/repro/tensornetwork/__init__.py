"""Tensor-network utilities: einsum parsing, contraction paths and ``einsumsvd``.

The central abstraction of the paper is ``einsumsvd``: contract a small
tensor network into a single tensor and immediately re-factor it into two
tensors connected by a new, truncated bond.  This package provides

* :mod:`repro.tensornetwork.einsum_spec` — parsing/validation of einsum
  subscripts (including the two-output ``einsumsvd`` form),
* :mod:`repro.tensornetwork.contraction_path` — the one contraction planner
  (cheapest order up to 12 operands, greedy above; cached plans with flop/memory
  estimates — our stand-in for ``opt_einsum``),
* :mod:`repro.tensornetwork.einsumsvd` — the ``einsumsvd`` primitive with an
  explicit (contract-then-SVD) implementation and the paper's implicit
  randomized-SVD implementation that never materializes the contracted
  operator.
"""

from repro.tensornetwork.einsum_spec import (
    EinsumSpec,
    EinsumSVDSpec,
    parse_einsum,
    parse_einsumsvd,
    symbols,
)
from repro.tensornetwork.contraction_path import ContractionPlan, find_path
from repro.tensornetwork.einsumsvd import (
    EinsumSVDOption,
    ExplicitSVD,
    ImplicitRandomizedSVD,
    einsumsvd,
)
from repro.tensornetwork.network import contract_network

__all__ = [
    "EinsumSpec",
    "EinsumSVDSpec",
    "parse_einsum",
    "parse_einsumsvd",
    "symbols",
    "ContractionPlan",
    "find_path",
    "EinsumSVDOption",
    "ExplicitSVD",
    "ImplicitRandomizedSVD",
    "einsumsvd",
    "contract_network",
]

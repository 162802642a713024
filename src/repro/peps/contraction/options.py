"""Option objects selecting a PEPS contraction algorithm.

The Koala-style API lets callers write, for example::

    qstate.expectation(H, contract_option=BMPS(ImplicitRandomizedSVD(rank=4)))

* :class:`Exact` — no truncation; rows are absorbed exactly so the boundary
  bond dimension multiplies at every step (exponential cost, small lattices
  only).  This reproduces the exact baseline of Fig. 8a / Fig. 10.
* :class:`BMPS` — boundary MPS (Algorithm 2) with truncation bond ``m``.
  The flavour is decided by the embedded ``einsumsvd`` option: an
  :class:`~repro.tensornetwork.einsumsvd.ExplicitSVD` gives the classic BMPS,
  an :class:`~repro.tensornetwork.einsumsvd.ImplicitRandomizedSVD` gives the
  paper's IBMPS.  Applied to an inner product, norm or expectation value it
  keeps the two layers separate (two-layer BMPS / two-layer IBMPS): no
  contraction in the library fuses them into a PEPS of squared bond
  dimension, the baseline of Section III-B2.
* :class:`CTMOption` — corner-transfer-matrix environments: directional
  row absorptions truncated with projectors built from the corner Gram
  matrices of the half-system, to an environment bond ``chi``.  Selects
  :class:`~repro.peps.envs.ctm.EnvCTM` wherever environments are dispatched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.tensornetwork.einsumsvd import (
    EinsumSVDOption, ExplicitSVD, ImplicitRandomizedSVD, check_truncation,
)


@dataclass
class ContractOption:
    """Base class for contraction options; concrete classes carry their wire ``kind``."""

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class Exact(ContractOption):
    """Exact contraction (no truncation)."""

    kind = "exact"


@dataclass
class BMPS(ContractOption):
    """Boundary-MPS contraction (Algorithm 2).

    Parameters
    ----------
    svd_option:
        The ``einsumsvd`` option used inside the zip-up; its ``rank`` is the
        truncation bond dimension ``m``.  Defaults to an explicit SVD.
    """

    kind = "bmps"
    svd_option: Optional[EinsumSVDOption] = None

    def resolved_svd_option(self) -> EinsumSVDOption:
        return self.svd_option if self.svd_option is not None else ExplicitSVD()

    @property
    def truncation_bond(self) -> Optional[int]:
        return self.resolved_svd_option().rank

    @property
    def is_implicit(self) -> bool:
        return isinstance(self.resolved_svd_option(), ImplicitRandomizedSVD)

    def describe(self) -> str:
        name = "IBMPS" if self.is_implicit else "BMPS"
        return f"{name}(m={self.truncation_bond})"


#: Exists only for the ladder's ``norm_ibmps`` workload until ROADMAP 10(e)
#: retargets it at :class:`BMPS`.
TwoLayerBMPS = BMPS


@dataclass
class CTMOption(ContractOption):
    """Corner-transfer-matrix (CTM) environment contraction.

    Each directional move absorbs one lattice row into an edge-tensor
    boundary and renormalizes every internal bond with projectors built
    from the corner Gram matrices (the corner transfer matrices of the
    doubled half-system), truncated by :func:`repro.linalg.truncated_svd`.

    Parameters
    ----------
    chi:
        Environment bond dimension the corner projectors truncate to;
        ``None`` never truncates (exact CTM, small lattices only).
    """

    kind = "ctm"
    chi: Optional[int] = None

    def __post_init__(self) -> None:
        check_truncation("chi", self.chi)

    def describe(self) -> str:
        return f"CTM(chi={self.chi})"


#: Wire ``kind`` -> contraction option class.
CONTRACT_OPTION_KINDS = {cls.kind: cls for cls in (Exact, BMPS, CTMOption)}

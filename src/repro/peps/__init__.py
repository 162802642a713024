"""PEPS states, evolution algorithms and contraction algorithms.

The module-level constructors mirror the Koala API of the paper::

    from repro import peps
    from repro.peps import QRUpdate, BMPS
    from repro.tensornetwork import ImplicitRandomizedSVD

    qstate = peps.computational_zeros(nrow=2, ncol=3, backend="numpy")
    qstate.apply_operator(Y, [1])
    qstate.apply_operator(CX, [1, 4], QRUpdate(rank=2))
    result = qstate.expectation(H, contract_option=BMPS(ImplicitRandomizedSVD(rank=4)))

Every contraction question — ``norm``, ``inner``, ``expectation``,
``measure_*``, ``sample`` — is one query to the pluggable environment
subsystem (:mod:`repro.peps.envs`).  An environment
(a ``BoundaryEnvironment``, or the corner-transfer-matrix ``EnvCTM``)
owns the directional boundary caches of the ``<psi|psi>`` sandwich,
invalidates them *incrementally* when operator applications touch lattice
rows, and serves norms, multi-term expectation values, batched
``measure_1site``/``measure_2site`` passes, and basis-state ``sample`` draws
from the same caches::

    env = qstate.attach_environment(BMPS(ImplicitRandomizedSVD(rank=4)))
    qstate.expectation(H)                 # incremental boundary reuse
    env.measure_1site(Z)                  # all sites in one cached pass
    env.sample(rng=0, nshots=100)         # computational-basis samples
"""

from repro.peps.peps import (
    PEPS,
    computational_basis,
    computational_zeros,
    product_state,
    random_peps,
    random_single_layer_grid,
)
from repro.peps.update import (
    DirectUpdate,
    QRUpdate,
    LocalGramQRUpdate,
    LocalGramQRSVDUpdate,
    UpdateOption,
)
from repro.peps.contraction import (
    BMPS,
    ContractOption,
    CTMOption,
    Exact,
    contract_single_layer,
)
from repro.peps.contraction.options import TwoLayerBMPS
from repro.peps.measure import expectation_via_evolution
from repro.peps.envs import BoundaryEnvironment, EnvCTM, make_environment

__all__ = [
    "PEPS",
    "computational_basis",
    "computational_zeros",
    "product_state",
    "random_peps",
    "random_single_layer_grid",
    "DirectUpdate",
    "QRUpdate",
    "LocalGramQRUpdate",
    "LocalGramQRSVDUpdate",
    "UpdateOption",
    "BMPS",
    "ContractOption",
    "CTMOption",
    "Exact",
    "TwoLayerBMPS",
    "contract_single_layer",
    "expectation_via_evolution",
    "BoundaryEnvironment",
    "EnvCTM",
    "make_environment",
]

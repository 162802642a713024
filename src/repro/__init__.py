"""Reproduction of "Efficient 2D Tensor Network Simulation of Quantum Systems".

This package reimplements the Koala PEPS library described in the SC 2020
paper by Pang, Hao, Dugad, Zhou and Solomonik.  It provides:

* a tensor-backend abstraction with a sequential NumPy backend and a
  simulated distributed-memory backend (a stand-in for Cyclops/CTF),
* the ``einsumsvd`` abstraction with explicit and implicit randomized-SVD
  implementations,
* PEPS states with multiple evolution (QR-SVD, local-Gram) and
  contraction (Exact, two-layer BMPS / IBMPS, CTM) algorithms; every norm,
  inner product and expectation value is one query to a contraction
  environment, and every boundary MPS grows through one row absorber,
* quantum gates, observables, Hamiltonians, circuits and an exact
  statevector simulator,
* the driver applications studied in the paper: imaginary time evolution
  (TEBD) and the variational quantum eigensolver (VQE).

The public API mirrors the paper's code listing::

    from repro import peps, Observable
    from repro.peps import QRUpdate, BMPS
    from repro.tensornetwork import ImplicitRandomizedSVD

    qstate = peps.computational_zeros(nrow=2, ncol=3, backend="numpy")
    qstate.apply_operator(Y, [1])
    qstate.apply_operator(CX, [1, 4], QRUpdate(rank=2))
    H = Observable.ZZ(3, 4) + 0.2 * Observable.X(1)
    result = qstate.expectation(H, contract_option=BMPS(ImplicitRandomizedSVD(rank=4)))

Top-level names are resolved lazily (PEP 562) so that importing a single
subsystem does not pull in the whole library.
"""

from importlib import import_module
from typing import TYPE_CHECKING

__version__ = "1.0.0"

#: Mapping of lazily-exported top-level names to "module:attribute" targets.
_LAZY_EXPORTS = {
    "Observable": "repro.operators.observable:Observable",
    "gates": "repro.operators.gates:",
    "Hamiltonian": "repro.operators.hamiltonians:Hamiltonian",
    "heisenberg_j1j2": "repro.operators.hamiltonians:heisenberg_j1j2",
    "transverse_field_ising": "repro.operators.hamiltonians:transverse_field_ising",
    "get_backend": "repro.backends:get_backend",
    "peps": "repro.peps:",
    "PEPS": "repro.peps.peps:PEPS",
    "Circuit": "repro.circuits.circuit:Circuit",
    "Gate": "repro.circuits.circuit:Gate",
    "StateVector": "repro.statevector.statevector:StateVector",
    "ImaginaryTimeEvolution": "repro.algorithms.ite:ImaginaryTimeEvolution",
    "VQE": "repro.algorithms.vqe:VQE",
}

__all__ = list(_LAZY_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    module_name, _, attr = target.partition(":")
    module = import_module(module_name)
    value = module if not attr else getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)


if TYPE_CHECKING:  # pragma: no cover - import-time typing aid only
    from repro.algorithms.ite import ImaginaryTimeEvolution
    from repro.algorithms.vqe import VQE
    from repro.backends import get_backend
    from repro.circuits.circuit import Circuit, Gate
    from repro.operators import gates
    from repro.operators.hamiltonians import (
        Hamiltonian,
        heisenberg_j1j2,
        transverse_field_ising,
    )
    from repro.operators.observable import Observable
    from repro.peps.peps import PEPS
    from repro.statevector.statevector import StateVector

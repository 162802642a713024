"""Driver applications built on the PEPS primitives.

* :mod:`repro.algorithms.trotter` — Trotter-Suzuki decomposition helpers and
  single TEBD layers (the unit of work benchmarked in Figs. 7, 11 and 12),
* :mod:`repro.algorithms.ite` — imaginary time evolution (ground states of
  lattice Hamiltonians, Fig. 13),
* :mod:`repro.algorithms.vqe` — the variational quantum eigensolver with the
  SLSQP classical optimizer (Fig. 14).
"""

from repro.algorithms.trotter import apply_tebd_layer, tebd_gate_layer
from repro.algorithms.ite import ImaginaryTimeEvolution, ITEResult
from repro.algorithms.vqe import VQE, VQEResult, build_vqe_ansatz

__all__ = [
    "apply_tebd_layer",
    "tebd_gate_layer",
    "ImaginaryTimeEvolution",
    "ITEResult",
    "VQE",
    "VQEResult",
    "build_vqe_ansatz",
]

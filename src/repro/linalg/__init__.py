"""Dense and implicit linear-algebra kernels used by the tensor-network code.

* :mod:`repro.linalg.truncated_svd` — rank-truncated SVD with
  isometric factors.
* :mod:`repro.linalg.orthogonalize` — QR- and Gram-matrix based
  orthogonalization of tensor operators (the paper's Algorithm 5,
  "reshape-avoiding orthogonalization").
* :mod:`repro.linalg.randomized_svd` — randomized SVD with an *implicit*
  operator (the paper's Algorithm 4), the engine behind IBMPS.
* :mod:`repro.linalg.implicit_op` — linear operators defined by uncontracted
  tensor networks.
"""

from repro.linalg.truncated_svd import truncated_svd, truncate_spectrum, TruncatedSVDResult
from repro.linalg.orthogonalize import tensor_qr
from repro.linalg.implicit_op import (
    ImplicitOperator,
    DenseTensorOperator,
    TensorNetworkOperator,
)
from repro.linalg.randomized_svd import randomized_svd, RandomizedSVDResult

__all__ = [
    "truncated_svd",
    "truncate_spectrum",
    "TruncatedSVDResult",
    "tensor_qr",
    "ImplicitOperator",
    "DenseTensorOperator",
    "TensorNetworkOperator",
    "randomized_svd",
    "RandomizedSVDResult",
]

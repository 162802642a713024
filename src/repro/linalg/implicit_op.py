"""Linear operators defined implicitly by (uncontracted) tensor networks.

The randomized SVD of Algorithm 4 never needs the matrix form of the operator
``A`` — only products ``A @ Q`` and ``A* @ P``.  When ``A`` is the contraction
of a small tensor network (as in every ``einsumsvd`` appearing in BMPS), those
products can be evaluated by contracting the *uncontracted* network together
with the probe tensor, which is asymptotically cheaper and uses far less
memory than materializing ``A``.  That observation is the core of the paper's
IBMPS and two-layer IBMPS algorithms.
"""

from __future__ import annotations

import abc
from math import prod
from typing import Sequence, Tuple

from repro.backends.interface import Backend
from repro.tensornetwork.einsum_spec import EinsumSVDSpec, symbols


class ImplicitOperator(abc.ABC):
    """An operator ``A : C^{cols} -> C^{rows}`` accessed only through products.

    Probe tensors carry an extra trailing mode of size ``k`` (the sketch
    rank); ``apply`` maps a probe of shape ``cols + (k,)`` to ``rows + (k,)``
    and ``apply_adjoint`` maps ``rows + (k,)`` back to ``cols + (k,)``.
    """

    backend: Backend

    @property
    @abc.abstractmethod
    def row_shape(self) -> Tuple[int, ...]:
        """Shape of the output (row) index group."""

    @property
    @abc.abstractmethod
    def col_shape(self) -> Tuple[int, ...]:
        """Shape of the input (column) index group."""

    @abc.abstractmethod
    def apply(self, probe):
        """Compute ``A @ probe`` for a probe of shape ``col_shape + (k,)``."""

    @abc.abstractmethod
    def apply_adjoint(self, probe):
        """Compute ``A* @ probe`` for a probe of shape ``row_shape + (k,)``."""

    @property
    def row_size(self) -> int:
        return int(prod(self.row_shape)) if self.row_shape else 1

    @property
    def col_size(self) -> int:
        return int(prod(self.col_shape)) if self.col_shape else 1


class DenseTensorOperator(ImplicitOperator):
    """Wrap an already-materialized tensor as an operator.

    ``tensor`` has shape ``row_shape + col_shape``; the first ``n_row_axes``
    modes are the rows.  Used as the explicit-operator baseline and in tests.
    """

    def __init__(self, backend: Backend, tensor, n_row_axes: int) -> None:
        self.backend = backend
        self.tensor = tensor
        shape = backend.shape(tensor)
        if not (0 < n_row_axes < len(shape)):
            raise ValueError(
                f"n_row_axes={n_row_axes} must split a {len(shape)}-mode tensor "
                f"into two non-empty groups"
            )
        self._rows = tuple(shape[:n_row_axes])
        self._cols = tuple(shape[n_row_axes:])

    @property
    def row_shape(self) -> Tuple[int, ...]:
        return self._rows

    @property
    def col_shape(self) -> Tuple[int, ...]:
        return self._cols

    def apply(self, probe):
        s, t = len(self._rows), len(self._cols)
        labels = symbols(s + t + 1)
        rows, cols, k = labels[:s], labels[s : s + t], labels[s + t]
        spec = "".join(rows + cols) + "," + "".join(cols + [k]) + "->" + "".join(rows + [k])
        return self.backend.einsum(spec, self.tensor, probe)

    def apply_adjoint(self, probe):
        s, t = len(self._rows), len(self._cols)
        labels = symbols(s + t + 1)
        rows, cols, k = labels[:s], labels[s : s + t], labels[s + t]
        spec = "".join(rows + cols) + "," + "".join(rows + [k]) + "->" + "".join(cols + [k])
        return self.backend.einsum(spec, self.backend.conj(self.tensor), probe)


class TensorNetworkOperator(ImplicitOperator):
    """Operator defined by an uncontracted tensor network.

    Parameters
    ----------
    backend:
        Tensor backend.
    spec:
        A parsed :class:`EinsumSVDSpec`; the operator maps the ``free_b``
        (column) index group to the ``free_a`` (row) index group.
    operands:
        The network tensors, one per input term of ``spec``.

    Products with probes are evaluated as a single einsum over the network
    tensors plus the probe, so the contracted operator (whose size is
    ``prod(rows) * prod(cols)``) is never materialized.
    """

    def __init__(self, backend: Backend, spec: EinsumSVDSpec, operands: Sequence) -> None:
        if len(operands) != len(spec.inputs):
            raise ValueError(
                f"spec describes {len(spec.inputs)} operands but {len(operands)} were given"
            )
        self.backend = backend
        self.spec = spec
        self.operands = list(operands)
        dims = spec.contract_spec.index_dimensions([backend.shape(op) for op in operands])
        self._dims = dims
        self._rows = tuple(dims[label] for label in spec.free_a)
        self._cols = tuple(dims[label] for label in spec.free_b)
        used = {label for term in spec.inputs for label in term}
        used |= set(spec.output_a) | set(spec.output_b)
        self._probe_label = symbols(1, exclude=used)[0]
        self._conj_operands = None

    @property
    def row_shape(self) -> Tuple[int, ...]:
        return self._rows

    @property
    def col_shape(self) -> Tuple[int, ...]:
        return self._cols

    def apply(self, probe):
        """A @ probe: contract the network with a probe carried on the column group."""
        k = self._probe_label
        lhs = ",".join("".join(term) for term in self.spec.inputs)
        lhs += "," + "".join(self.spec.free_b) + k
        rhs = "".join(self.spec.free_a) + k
        return self.backend.einsum(f"{lhs}->{rhs}", *self.operands, probe)

    def apply_adjoint(self, probe):
        """A* @ probe: contract the conjugated network with a probe on the row group."""
        k = self._probe_label
        lhs = ",".join("".join(term) for term in self.spec.inputs)
        lhs += "," + "".join(self.spec.free_a) + k
        rhs = "".join(self.spec.free_b) + k
        if self._conj_operands is None:
            # Conjugated once per operator: power iteration applies A* repeatedly.
            self._conj_operands = [self.backend.conj(op) for op in self.operands]
        return self.backend.einsum(f"{lhs}->{rhs}", *self._conj_operands, probe)

    def materialize(self):
        """Contract the network into the explicit operator tensor (testing/baseline)."""
        contract_spec = self.spec.contract_spec
        lhs = ",".join("".join(term) for term in contract_spec.inputs)
        rhs = "".join(contract_spec.output)
        return self.backend.einsum(f"{lhs}->{rhs}", *self.operands)

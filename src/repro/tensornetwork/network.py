"""General tensor-network contraction with arbitrary (hashable) index labels.

``backend.einsum`` is limited to the 52 single-letter subscripts NumPy
supports, which is too few for whole-lattice networks (e.g. the strip
networks appearing in expectation-value evaluation).  :func:`contract_network`
removes that limitation: operands are annotated with tuples of *hashable*
labels and the network goes to ``backend.einsum`` as one call on its
canonical :class:`EinsumSpec`.  The backend runs the pairwise plan the shared
planner (:mod:`repro.tensornetwork.contraction_path`) fixes for it, where a
single step never involves more than a few dozen indices.

This plays the role of an ``ncon``-style contractor built on top of the
backend abstraction.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence

from repro.backends import get_backend
from repro.backends.interface import Backend
from repro.tensornetwork.einsum_spec import EinsumSpec

Label = Hashable


def _index_dims(
    backend: Backend, operands: Sequence, inputs: Sequence[Sequence[Label]]
) -> Dict[Label, int]:
    dims: Dict[Label, int] = {}
    if len(operands) != len(inputs):
        raise ValueError(
            f"{len(operands)} operands but {len(inputs)} label tuples were given"
        )
    for op, labels in zip(operands, inputs):
        shape = backend.shape(op)
        if len(shape) != len(labels):
            raise ValueError(
                f"operand with shape {shape} has {len(shape)} modes but "
                f"{len(labels)} labels {tuple(labels)!r}"
            )
        for label, dim in zip(labels, shape):
            dim = int(dim)
            if label in dims and dims[label] != dim:
                raise ValueError(
                    f"label {label!r} has inconsistent dimensions {dims[label]} and {dim}"
                )
            dims.setdefault(label, dim)
    return dims


def contract_network(
    operands: Sequence,
    inputs: Sequence[Sequence[Label]],
    output: Sequence[Label],
    backend=None,
):
    """Contract a tensor network given label annotations.

    Parameters
    ----------
    operands:
        Backend tensors.
    inputs:
        For each operand, a tuple of hashable labels, one per mode.  Labels
        shared between operands are contracted unless they appear in
        ``output``.
    output:
        Labels (and their order) of the result.  Repeated labels are not
        supported; labels appearing only in ``output`` are invalid.
    backend:
        Backend name or instance (defaults to NumPy).

    Returns
    -------
    A backend tensor with one mode per output label (a scalar tensor when
    ``output`` is empty — use ``backend.item`` to extract the value).
    """
    backend = get_backend(backend)
    dims = _index_dims(backend, operands, inputs)
    output = tuple(output)
    for label in output:
        if label not in dims:
            raise ValueError(f"output label {label!r} does not appear in any operand")
    if len(set(output)) != len(output):
        raise ValueError(f"output labels must be unique, got {output!r}")

    # Canonical labels (numbered by first appearance) make structurally equal
    # networks share one cached plan whatever their labels are called.
    number = {label: k for k, label in enumerate(dims)}
    spec = EinsumSpec(
        inputs=tuple(tuple(number[label] for label in labels) for labels in inputs),
        output=tuple(number[label] for label in output),
    )
    return backend.einsum(spec, *operands)

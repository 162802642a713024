"""Parsing and validation of einsum subscripts.

Two subscript forms are supported:

* the ordinary einsum form ``"abc,cde->abde"`` (single output), and
* the ``einsumsvd`` form ``"abc,cde->abk,kde"`` with exactly two outputs that
  share exactly one *new* index (the truncated bond created by the
  refactorization).

Only explicit single-character index labels are supported (``a``–``z`` and
``A``–``Z``), which matches NumPy's einsum alphabet; helper :func:`symbols`
hands out unused labels when building subscripts programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def symbols(count: int, exclude: Iterable[str] = ()) -> List[str]:
    """Return ``count`` unused single-character index labels.

    Parameters
    ----------
    count:
        Number of labels requested.
    exclude:
        Labels already in use (these will not be returned).
    """
    exclude = set(exclude)
    available = [c for c in _ALPHABET if c not in exclude]
    if count > len(available):
        raise ValueError(
            f"requested {count} fresh index labels but only {len(available)} are "
            f"available in the einsum alphabet"
        )
    return available[:count]


@dataclass(frozen=True)
class EinsumSpec:
    """A parsed single-output einsum expression."""

    inputs: Tuple[Tuple[str, ...], ...]
    output: Tuple[str, ...]

    @property
    def subscripts(self) -> str:
        return ",".join("".join(term) for term in self.inputs) + "->" + "".join(self.output)

    def index_dimensions(self, shapes: Sequence[Sequence[int]]) -> Dict[str, int]:
        """Map each index label to its dimension, validating consistency."""
        if len(shapes) != len(self.inputs):
            raise ValueError(
                f"expected {len(self.inputs)} operand shapes, got {len(shapes)}"
            )
        dims: Dict[str, int] = {}
        for term, shape in zip(self.inputs, shapes):
            if len(term) != len(shape):
                raise ValueError(
                    f"operand with indices {''.join(term)!r} has {len(term)} modes "
                    f"but shape {tuple(shape)}"
                )
            for label, dim in zip(term, shape):
                dim = int(dim)
                if label in dims and dims[label] != dim:
                    raise ValueError(
                        f"index {label!r} has inconsistent dimensions "
                        f"{dims[label]} and {dim}"
                    )
                dims.setdefault(label, dim)
        return dims


@dataclass(frozen=True)
class EinsumSVDSpec:
    """A parsed two-output ``einsumsvd`` expression.

    Attributes
    ----------
    inputs:
        Index labels of each input operand.
    output_a / output_b:
        Index labels of the two produced tensors, each containing
        ``bond_label`` exactly once.
    bond_label:
        The label of the newly created (truncated) bond.
    """

    inputs: Tuple[Tuple[str, ...], ...]
    output_a: Tuple[str, ...]
    output_b: Tuple[str, ...]
    bond_label: str

    # Derived once per spec: a frozen dataclass without slots keeps them in
    # its ``__dict__``, outside the fields that ``==`` and ``hash`` read.
    @cached_property
    def free_a(self) -> Tuple[str, ...]:
        """Output-A labels excluding the new bond (the operator's row group)."""
        return tuple(label for label in self.output_a if label != self.bond_label)

    @cached_property
    def free_b(self) -> Tuple[str, ...]:
        """Output-B labels excluding the new bond (the operator's column group)."""
        return tuple(label for label in self.output_b if label != self.bond_label)

    @cached_property
    def contract_spec(self) -> EinsumSpec:
        """The single-output spec producing the fully contracted operator."""
        return EinsumSpec(inputs=self.inputs, output=self.free_a + self.free_b)

    @property
    def subscripts(self) -> str:
        return (
            ",".join("".join(term) for term in self.inputs)
            + "->"
            + "".join(self.output_a)
            + ","
            + "".join(self.output_b)
        )


def _parse_term(term: str) -> Tuple[str, ...]:
    term = term.strip()
    for char in term:
        if char not in _ALPHABET:
            raise ValueError(
                f"invalid index label {char!r} in term {term!r}; only letters are supported"
            )
    if len(set(term)) != len(term):
        raise ValueError(f"repeated index within a single term is not supported: {term!r}")
    return tuple(term)


def parse_einsum(subscripts: str, n_operands: Optional[int] = None) -> EinsumSpec:
    """Parse a single-output einsum subscript string.

    If the ``->output`` part is omitted, the output follows the usual einsum
    convention: all indices appearing exactly once, in alphabetical order.
    """
    subscripts = subscripts.replace(" ", "")
    if "->" in subscripts:
        lhs, rhs = subscripts.split("->")
        if "," in rhs:
            raise ValueError(
                f"multiple outputs found in {subscripts!r}; use parse_einsumsvd for "
                f"two-output einsumsvd expressions"
            )
    else:
        lhs, rhs = subscripts, None
    inputs = tuple(_parse_term(term) for term in lhs.split(","))
    if n_operands is not None and len(inputs) != n_operands:
        raise ValueError(
            f"subscripts {subscripts!r} describe {len(inputs)} operands, "
            f"but {n_operands} were supplied"
        )
    if rhs is None:
        counts: Dict[str, int] = {}
        for term in inputs:
            for label in term:
                counts[label] = counts.get(label, 0) + 1
        output = tuple(sorted(label for label, cnt in counts.items() if cnt == 1))
    else:
        output = _parse_term(rhs)
        seen = {label for term in inputs for label in term}
        for label in output:
            if label not in seen:
                raise ValueError(
                    f"output index {label!r} does not appear in any input of {subscripts!r}"
                )
    return EinsumSpec(inputs=inputs, output=output)


@lru_cache(maxsize=1024)
def parse_einsumsvd(subscripts: str, n_operands: Optional[int] = None) -> EinsumSVDSpec:
    """Parse a two-output ``einsumsvd`` subscript string.

    The right-hand side must contain exactly two comma-separated terms that
    share exactly one index label not present in any input — the new bond.
    Memoised: a string is parsed once, and every call with it returns the
    same (immutable) spec.

    >>> spec = parse_einsumsvd("abc,cde->abk,kde")
    >>> spec.bond_label
    'k'
    """
    subscripts = subscripts.replace(" ", "")
    if "->" not in subscripts:
        raise ValueError("einsumsvd subscripts require an explicit '->' output part")
    lhs, rhs = subscripts.split("->")
    inputs = tuple(_parse_term(term) for term in lhs.split(","))
    if n_operands is not None and len(inputs) != n_operands:
        raise ValueError(
            f"subscripts {subscripts!r} describe {len(inputs)} operands, "
            f"but {n_operands} were supplied"
        )
    outputs = rhs.split(",")
    if len(outputs) != 2:
        raise ValueError(
            f"einsumsvd requires exactly two outputs, got {len(outputs)} in {subscripts!r}"
        )
    output_a = _parse_term(outputs[0])
    output_b = _parse_term(outputs[1])
    input_labels = {label for term in inputs for label in term}
    new_a = set(output_a) - input_labels
    new_b = set(output_b) - input_labels
    shared_new = new_a & new_b
    if len(shared_new) != 1:
        raise ValueError(
            f"the two outputs of {subscripts!r} must share exactly one new bond index, "
            f"found {sorted(shared_new)!r}"
        )
    if new_a != shared_new or new_b != shared_new:
        extra = (new_a | new_b) - shared_new
        raise ValueError(
            f"outputs of {subscripts!r} contain new indices {sorted(extra)!r} "
            f"that are not the shared bond"
        )
    bond = next(iter(shared_new))
    # Every non-bond output index must come from the inputs and appear in only
    # one of the two outputs (it belongs either to the row or column group).
    overlap = (set(output_a) & set(output_b)) - {bond}
    if overlap:
        raise ValueError(
            f"indices {sorted(overlap)!r} appear in both outputs of {subscripts!r}; "
            f"only the new bond may be shared"
        )
    return EinsumSVDSpec(inputs=inputs, output_a=output_a, output_b=output_b, bond_label=bond)

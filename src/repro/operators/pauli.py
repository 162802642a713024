"""Pauli strings: products of single-site Pauli operators with a coefficient.

A :class:`PauliString` is the elementary term of an :class:`~repro.operators.observable.Observable`:
``coefficient * P_{s1} ⊗ P_{s2} ⊗ ...`` where each ``P`` is one of X, Y, Z
acting on a distinct site and identity elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_matrix(label: str) -> np.ndarray:
    """The 2x2 matrix of a single Pauli label (I, X, Y or Z)."""
    try:
        return _PAULI_MATRICES[label.upper()].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli label {label!r}; expected one of I, X, Y, Z") from None


@dataclass(frozen=True)
class PauliString:
    """A weighted product of Pauli operators on named sites.

    Attributes
    ----------
    paulis:
        Mapping from site index to Pauli label ("X", "Y" or "Z"); identity
        factors are simply omitted.
    coefficient:
        Complex weight of the term.
    """

    paulis: Tuple[Tuple[int, str], ...]
    coefficient: complex = 1.0

    @staticmethod
    def from_dict(paulis: Mapping[int, str], coefficient: complex = 1.0) -> "PauliString":
        cleaned = []
        for site, label in sorted(paulis.items()):
            label = label.upper()
            if label == "I":
                continue
            if label not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli label {label!r} on site {site}")
            cleaned.append((int(site), label))
        return PauliString(paulis=tuple(cleaned), coefficient=complex(coefficient))

    @property
    def sites(self) -> Tuple[int, ...]:
        return tuple(site for site, _ in self.paulis)

    def as_dict(self) -> Dict[int, str]:
        return {site: label for site, label in self.paulis}

    def matrix(self) -> np.ndarray:
        """Dense matrix on the *support* sites only, ordered by site index.

        A two-site string returns a 4x4 matrix with the lower-indexed site as
        the most significant qubit; the identity string returns ``[[coeff]]``
        times the 1x1 identity (i.e. a scalar wrapped in a matrix).
        """
        out = np.array([[self.coefficient]], dtype=np.complex128)
        for _, label in self.paulis:
            out = np.kron(out, _PAULI_MATRICES[label])
        return out

    def __mul__(self, scalar: complex) -> "PauliString":
        return PauliString(self.paulis, self.coefficient * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "PauliString":
        return self * (-1.0)

    def __repr__(self) -> str:
        if not self.paulis:
            return f"{self.coefficient} * I"
        body = " ".join(f"{label}{site}" for site, label in self.paulis)
        return f"{self.coefficient} * {body}"

"""Standard quantum gates as dense NumPy matrices.

Single-qubit gates are 2x2 matrices; two-qubit gates are returned as 4x4
matrices in the computational basis with qubit ordering ``|q1 q2>`` (first
listed qubit is the most significant).  The PEPS and statevector simulators
reshape them to ``(2, 2, 2, 2)`` tensors ``G[i1, i2, j1, j2]`` (outputs
before inputs) internally.

All functions return fresh arrays so callers may modify them freely, except
:func:`named_gate`, whose matrices are built once and shared read-only (the
circuit IR uses it, so a circuit's gates do not rebuild a matrix each).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

_SQRT2 = np.sqrt(2.0)


# --------------------------------------------------------------------- #
# Single-qubit gates
# --------------------------------------------------------------------- #
def identity() -> np.ndarray:
    """The 2x2 identity."""
    return np.eye(2, dtype=np.complex128)


def X() -> np.ndarray:
    """Pauli X."""
    return np.array([[0, 1], [1, 0]], dtype=np.complex128)


def Y() -> np.ndarray:
    """Pauli Y."""
    return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)


def Z() -> np.ndarray:
    """Pauli Z."""
    return np.array([[1, 0], [0, -1]], dtype=np.complex128)


def H() -> np.ndarray:
    """Hadamard."""
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2


def S() -> np.ndarray:
    """Phase gate (sqrt of Z)."""
    return np.array([[1, 0], [0, 1j]], dtype=np.complex128)


def T() -> np.ndarray:
    """pi/8 gate (fourth root of Z)."""
    return np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)


def sqrt_X() -> np.ndarray:
    """Square root of X (used in random-circuit layers)."""
    return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128)


def sqrt_Y() -> np.ndarray:
    """Square root of Y (used in random-circuit layers)."""
    return 0.5 * np.array([[1 + 1j, -1 - 1j], [1 + 1j, 1 + 1j]], dtype=np.complex128)


def sqrt_W() -> np.ndarray:
    """Square root of (X + Y)/sqrt(2) (the third Google-RQC single-qubit gate)."""
    w = (X() + Y()) / _SQRT2
    evals, evecs = np.linalg.eigh(w)
    return (evecs * np.sqrt(evals.astype(np.complex128))) @ evecs.conj().T


def Rx(theta: float) -> np.ndarray:
    """Rotation about X: ``exp(-i theta X / 2)``."""
    return np.cos(theta / 2) * identity() - 1j * np.sin(theta / 2) * X()


def Ry(theta: float) -> np.ndarray:
    """Rotation about Y: ``exp(-i theta Y / 2)``."""
    return np.cos(theta / 2) * identity() - 1j * np.sin(theta / 2) * Y()


def Rz(theta: float) -> np.ndarray:
    """Rotation about Z: ``exp(-i theta Z / 2)``."""
    return np.cos(theta / 2) * identity() - 1j * np.sin(theta / 2) * Z()


# --------------------------------------------------------------------- #
# Two-qubit gates
# --------------------------------------------------------------------- #
def CNOT() -> np.ndarray:
    """Controlled-NOT with the first qubit as control."""
    out = np.eye(4, dtype=np.complex128)
    out[2:, 2:] = X()
    return out


def CX() -> np.ndarray:
    """Alias for :func:`CNOT`."""
    return CNOT()


def CZ() -> np.ndarray:
    """Controlled-Z."""
    return np.diag([1, 1, 1, -1]).astype(np.complex128)


def SWAP() -> np.ndarray:
    """SWAP gate."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
    )


def iSWAP() -> np.ndarray:
    """iSWAP gate (the entangler used by the paper's random quantum circuits)."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
    )


def XX(theta: float) -> np.ndarray:
    """Ising coupling gate ``exp(-i theta X⊗X / 2)``."""
    return expm_two_site(np.kron(X(), X()), theta)


def ZZ(theta: float) -> np.ndarray:
    """Ising coupling gate ``exp(-i theta Z⊗Z / 2)``."""
    return expm_two_site(np.kron(Z(), Z()), theta)


def expm_two_site(matrix: np.ndarray, theta: float) -> np.ndarray:
    """``exp(-i theta M / 2)`` for a Hermitian 4x4 matrix ``M``."""
    evals, evecs = np.linalg.eigh(matrix)
    return (evecs * np.exp(-0.5j * theta * evals)) @ evecs.conj().T


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def is_unitary(matrix: np.ndarray) -> bool:
    """Whether a matrix is unitary to an absolute tolerance of 1e-10."""
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    return bool(np.allclose(matrix.conj().T @ matrix, np.eye(n), atol=1e-10))


#: Named gate registry used by the circuit IR.
NAMED_GATES = {
    "I": identity,
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": H,
    "S": S,
    "T": T,
    "SX": sqrt_X,
    "SY": sqrt_Y,
    "SW": sqrt_W,
    "CNOT": CNOT,
    "CX": CX,
    "CZ": CZ,
    "SWAP": SWAP,
    "ISWAP": iSWAP,
}

#: Parameterized gate registry (name -> callable taking the parameters).
PARAMETERIZED_GATES = {
    "RX": Rx,
    "RY": Ry,
    "RZ": Rz,
    "XX": XX,
    "ZZ": ZZ,
}


@lru_cache(maxsize=64)
def named_gate(name: str) -> np.ndarray:
    """The matrix of the unparameterized gate ``name`` (any case), built once
    and returned read-only: a fresh writable copy is :func:`get_gate`'s."""
    matrix = NAMED_GATES[name.upper()]()
    matrix.flags.writeable = False
    return matrix


def get_gate(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Look up a gate by name, applying parameters if it is parameterized."""
    key = name.upper()
    if key in NAMED_GATES:
        if params:
            raise ValueError(f"gate {name!r} takes no parameters")
        return NAMED_GATES[key]()
    if key in PARAMETERIZED_GATES:
        return PARAMETERIZED_GATES[key](*params)
    raise KeyError(f"unknown gate {name!r}")

"""A minimal quantum-circuit intermediate representation.

A :class:`Circuit` is an ordered list of :class:`Gate` objects; each gate
stores the qubits (flat row-major site indices of the lattice) it acts on and
its unitary matrix.  Both the PEPS simulator and the exact statevector
simulator consume this IR, which lets the accuracy benchmarks (random quantum
circuits, VQE ansatz circuits) run the *same* circuit through both engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.operators import gates as gatelib


@dataclass
class Gate:
    """A unitary gate acting on one or two qubits.

    Attributes
    ----------
    qubits:
        Flat site indices the gate acts on (order matters: the first index is
        the most significant qubit of ``matrix``).
    matrix:
        The ``2^k x 2^k`` unitary.
    name:
        Optional human-readable name (e.g. ``"CNOT"``, ``"RY"``).
    params:
        Parameters used to build the matrix, if any (e.g. rotation angles).
    """

    qubits: Tuple[int, ...]
    matrix: np.ndarray
    name: str = ""
    params: Tuple[float, ...] = ()

    def __post_init__(self):
        self.qubits = tuple(int(q) for q in self.qubits)
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        dim = 2 ** len(self.qubits)
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"gate on {len(self.qubits)} qubits needs a {dim}x{dim} matrix, "
                f"got {matrix.shape}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate qubits must be distinct, got {self.qubits}")
        self.matrix = matrix

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @staticmethod
    def named(name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> "Gate":
        """Construct a gate from the named-gate registry.

        An unparameterized gate shares its registry matrix (read-only,
        :func:`~repro.operators.gates.named_gate`); a parameterized one gets
        its own."""
        key, params = name.upper(), tuple(params)
        if key in gatelib.NAMED_GATES and not params:
            matrix = gatelib.named_gate(key)
        else:
            matrix = gatelib.get_gate(name, params)
        return Gate(tuple(qubits), matrix, name=key, params=params)


class Circuit:
    """An ordered sequence of gates on ``n_qubits`` qubits."""

    def __init__(self, n_qubits: int) -> None:
        if n_qubits < 1:
            raise ValueError(f"a circuit needs at least one qubit, got {n_qubits}")
        self.n_qubits = int(n_qubits)
        self.gates: List[Gate] = []

    def append(self, gate: Gate) -> "Circuit":
        for q in gate.qubits:
            if not (0 <= q < self.n_qubits):
                raise ValueError(f"gate qubit {q} outside circuit of {self.n_qubits} qubits")
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "Circuit":
        for gate in gates:
            self.append(gate)
        return self

    # Convenience builders -------------------------------------------------
    def add(self, name: str, qubits: Union[int, Sequence[int]], *params: float) -> "Circuit":
        """Append a named gate, e.g. ``circuit.add("RY", 3, 0.1)``."""
        if isinstance(qubits, (int, np.integer)):
            qubits = (int(qubits),)
        return self.append(Gate.named(name, qubits, params))

    def h(self, q: int) -> "Circuit":
        return self.add("H", q)

    def x(self, q: int) -> "Circuit":
        return self.add("X", q)

    def y(self, q: int) -> "Circuit":
        return self.add("Y", q)

    def z(self, q: int) -> "Circuit":
        return self.add("Z", q)

    def ry(self, q: int, theta: float) -> "Circuit":
        return self.add("RY", q, theta)

    def cnot(self, control: int, target: int) -> "Circuit":
        return self.add("CNOT", (control, target))

    def iswap(self, a: int, b: int) -> "Circuit":
        return self.add("ISWAP", (a, b))

    # Introspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def depth(self) -> int:
        """Circuit depth (greedy layering by qubit availability)."""
        frontier = [0] * self.n_qubits
        depth = 0
        for gate in self.gates:
            layer = max(frontier[q] for q in gate.qubits) + 1
            for q in gate.qubits:
                frontier[q] = layer
            depth = max(depth, layer)
        return depth

    def to_matrix(self) -> np.ndarray:
        """Dense unitary of the whole circuit (small circuits only)."""
        if self.n_qubits > 12:
            raise ValueError(f"dense matrix of a {self.n_qubits}-qubit circuit is not feasible")
        dim = 2**self.n_qubits
        out = np.eye(dim, dtype=np.complex128)
        for gate in self.gates:
            out = _embed_gate(gate, self.n_qubits) @ out
        return out

    def __repr__(self) -> str:
        return f"Circuit(n_qubits={self.n_qubits}, n_gates={len(self.gates)}, depth={self.depth()})"


def _embed_gate(gate: Gate, n_qubits: int) -> np.ndarray:
    """Embed a gate unitary into the full Hilbert space (dense, small n)."""
    support = list(gate.qubits)
    others = [q for q in range(n_qubits) if q not in support]
    mat = np.kron(gate.matrix, np.eye(2 ** len(others), dtype=np.complex128))
    tensor = mat.reshape((2,) * (2 * n_qubits))
    perm = np.argsort(support + others)
    tensor = tensor.transpose(list(perm) + [n_qubits + p for p in perm])
    return np.ascontiguousarray(tensor).reshape(2**n_qubits, 2**n_qubits)

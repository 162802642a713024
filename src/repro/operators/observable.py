"""Observables: weighted sums of Pauli strings.

The class mirrors the Koala API shown in the paper::

    H = Observable.ZZ(3, 4) + 0.2 * Observable.X(1)
    value = qstate.expectation(H, ...)

Sites are flat (row-major) site indices of the lattice the state lives on.
Observables are closed under addition, subtraction and scalar multiplication
and can be converted to dense matrices for exact (statevector) evaluation.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.operators.pauli import PauliString, pauli_matrix


class Observable:
    """A Hermitian observable expressed as a sum of Pauli strings."""

    def __init__(self, terms: Iterable[PauliString] = ()) -> None:
        self.terms: List[PauliString] = [t for t in terms if t.coefficient != 0]

    # ------------------------------------------------------------------ #
    # Constructors for elementary observables (paper-style API)
    # ------------------------------------------------------------------ #
    @staticmethod
    def pauli(label: str, *sites: int) -> "Observable":
        """A single Pauli-string observable, e.g. ``Observable.pauli("ZZ", 3, 4)``."""
        label = label.upper()
        if len(label) != len(sites):
            raise ValueError(
                f"label {label!r} has {len(label)} factors but {len(sites)} sites were given"
            )
        if len(set(sites)) != len(sites):
            raise ValueError(f"sites must be distinct, got {sites}")
        paulis = {site: l for site, l in zip(sites, label)}
        return Observable([PauliString.from_dict(paulis)])

    @staticmethod
    def X(site: int) -> "Observable":
        """Pauli X on one site."""
        return Observable.pauli("X", site)

    @staticmethod
    def Y(site: int) -> "Observable":
        """Pauli Y on one site."""
        return Observable.pauli("Y", site)

    @staticmethod
    def Z(site: int) -> "Observable":
        """Pauli Z on one site."""
        return Observable.pauli("Z", site)

    @staticmethod
    def XX(site_a: int, site_b: int) -> "Observable":
        """X⊗X on two sites."""
        return Observable.pauli("XX", site_a, site_b)

    @staticmethod
    def ZZ(site_a: int, site_b: int) -> "Observable":
        """Z⊗Z on two sites."""
        return Observable.pauli("ZZ", site_a, site_b)

    @staticmethod
    def identity(coefficient: complex = 1.0) -> "Observable":
        """A constant (identity) term."""
        return Observable([PauliString((), coefficient)])

    @staticmethod
    def sum(observables: Iterable["Observable"]) -> "Observable":
        """Sum a collection of observables."""
        out = Observable()
        for obs in observables:
            out = out + obs
        return out

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Observable") -> "Observable":
        if not isinstance(other, Observable):
            return NotImplemented
        return Observable(self.terms + other.terms)

    def __sub__(self, other: "Observable") -> "Observable":
        if not isinstance(other, Observable):
            return NotImplemented
        return Observable(self.terms + [(-1.0) * t for t in other.terms])

    def __mul__(self, scalar: complex) -> "Observable":
        if isinstance(scalar, Observable):
            return NotImplemented
        return Observable([t * scalar for t in self.terms])

    __rmul__ = __mul__

    def __neg__(self) -> "Observable":
        return self * (-1.0)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    # ------------------------------------------------------------------ #
    # Inspection / conversion
    # ------------------------------------------------------------------ #
    @property
    def sites(self) -> Tuple[int, ...]:
        """All sites any term acts on, sorted."""
        out = set()
        for term in self.terms:
            out.update(term.sites)
        return tuple(sorted(out))

    def max_site(self) -> int:
        sites = self.sites
        return max(sites) if sites else -1

    def local_terms(self) -> List[Tuple[Tuple[int, ...], np.ndarray]]:
        """Each term as ``(sites, dense matrix on those sites)``.

        Single-site terms give 2x2 matrices, two-site terms 4x4 (lower site
        index as the most significant qubit), and so on.  Constant terms give
        ``((), [[coeff]])``.
        """
        return [(term.sites, term.matrix()) for term in self.terms]

    def to_matrix(self, n_sites: int) -> np.ndarray:
        """Dense ``2^n x 2^n`` matrix of the full observable (small n only)."""
        if n_sites <= self.max_site():
            raise ValueError(
                f"observable acts on site {self.max_site()} but only {n_sites} sites requested"
            )
        dim = 2**n_sites
        out = np.zeros((dim, dim), dtype=np.complex128)
        identity = np.eye(2, dtype=np.complex128)
        for term in self.terms:
            factors = [identity] * n_sites
            for site, label in term.paulis:
                factors[site] = pauli_matrix(label)
            acc = np.array([[term.coefficient]], dtype=np.complex128)
            for f in factors:
                acc = np.kron(acc, f)
            out += acc
        return out

    def simplify(self, atol: float = 0.0) -> "Observable":
        """Combine duplicate Pauli strings and drop negligible coefficients."""
        combined = {}
        for term in self.terms:
            key = term.paulis
            combined[key] = combined.get(key, 0.0) + term.coefficient
        terms = [
            PauliString(key, coeff)
            for key, coeff in combined.items()
            if abs(coeff) > atol
        ]
        return Observable(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "Observable(0)"
        return "Observable(" + " + ".join(repr(t) for t in self.terms) + ")"

"""Lattice Hamiltonians as collections of local terms.

A :class:`Hamiltonian` is a sum of :class:`LocalTerm` objects, each acting on
one or two sites of a 2D lattice (sites are flat row-major indices).  The
geometry — which pairs are bonded, in which order, with what per-bond
coupling scale — comes from a :class:`repro.lattice.Lattice`; builders
iterate ``lattice.bonds()`` instead of open-coding double loops, so new
geometries (checkerboard, anisotropic couplings) change the emitted terms
without touching any builder.  The shipped builders:

* :func:`heisenberg_j1j2` — the spin-1/2 J1-J2 Heisenberg model of Eq. (7),
  with nearest-neighbour, diagonal next-nearest-neighbour and magnetic-field
  terms (used for the imaginary-time-evolution study, Fig. 13),
* :func:`transverse_field_ising` — the TFI model of Eq. (8) (used for the
  VQE study, Fig. 14),
* :func:`hubbard` — the hardcore-boson Hubbard family (hopping,
  neighbour interaction, chemical potential).

:meth:`Hamiltonian.trotter_gates` produces the first-order Trotter-Suzuki
gate sequence ``exp(-tau * H_j)`` consumed by TEBD/ITE; term order follows
the lattice's bond partition, so partitioned geometries get their sweep
order for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.lattice import Lattice, LatticeLike, as_lattice
from repro.operators.observable import Observable
from repro.operators.pauli import PauliString, pauli_matrix

_PAULI_LABELS = ("I", "X", "Y", "Z")

#: Most sites :meth:`Hamiltonian.to_matrix` builds a dense matrix for.
DENSE_MAX_SITES = 12
#: Most sites :meth:`Hamiltonian.ground_state_energy` diagonalizes.
LANCZOS_MAX_SITES = 20


@dataclass(frozen=True)
class LocalTerm:
    """A Hermitian operator acting on one or two lattice sites.

    ``sites`` are flat row-major indices; ``matrix`` is 2x2 for one site or
    4x4 for two sites, with the first listed site as the most significant
    qubit.
    """

    sites: Tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        expected = 2 ** len(self.sites)
        if matrix.shape != (expected, expected):
            raise ValueError(
                f"term on sites {self.sites} needs a {expected}x{expected} matrix, "
                f"got shape {matrix.shape}"
            )
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def exponential(self, tau: complex) -> np.ndarray:
        """``exp(tau * matrix)`` via eigendecomposition (the matrix is Hermitian)."""
        evals, evecs = np.linalg.eigh(self.matrix)
        return (evecs * np.exp(tau * evals)) @ evecs.conj().T


class Hamiltonian:
    """A sum of local terms on a 2D lattice.

    The first argument is the geometry: a :class:`repro.lattice.Lattice`,
    or the historical ``(nrow, ncol)`` integer pair, which builds a uniform
    :class:`~repro.lattice.SquareLattice`.
    """

    def __init__(self, lattice: LatticeLike, ncol: Optional[int] = None) -> None:
        self.lattice = as_lattice(lattice, ncol)
        self.terms: List[LocalTerm] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @property
    def nrow(self) -> int:
        return self.lattice.nrow

    @property
    def ncol(self) -> int:
        return self.lattice.ncol

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    def add_term(self, term: LocalTerm) -> None:
        for site in term.sites:
            if not (0 <= site < self.n_sites):
                raise ValueError(
                    f"term site {site} outside the {self.nrow}x{self.ncol} lattice"
                )
        self.terms.append(term)

    def add_one_site(self, site: int, matrix: np.ndarray) -> None:
        self.add_term(LocalTerm((int(site),), matrix))

    def add_two_site(self, site_a: int, site_b: int, matrix: np.ndarray) -> None:
        self.add_term(LocalTerm((int(site_a), int(site_b)), matrix))

    # ------------------------------------------------------------------ #
    # Lattice geometry helpers (delegated to the lattice layer)
    # ------------------------------------------------------------------ #
    def nearest_neighbor_pairs(self) -> List[Tuple[int, int]]:
        """All horizontally and vertically adjacent site pairs, in bond order."""
        ncol = self.ncol
        return [bond.indices(ncol) for bond in self.lattice.bonds("nn")]

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_matrix(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` matrix (at most :data:`DENSE_MAX_SITES` sites).

        Building it holds three such matrices at once (the sum, a term's
        Kronecker embedding and its permuted copy): 768 MiB at 12 sites,
        12 GiB at 14.
        """
        n = self.n_sites
        if n > DENSE_MAX_SITES:
            gib = 3 * 16 * 4.0**n / 2**30
            raise ValueError(
                f"a dense matrix of {n} sites needs about {gib:.0f} GiB to build; "
                f"to_matrix stops at {DENSE_MAX_SITES} sites"
            )
        dim = 2**n
        out = np.zeros((dim, dim), dtype=np.complex128)
        for term in self.terms:
            out += _embed_term(term, n)
        return out

    def to_observable(self) -> Observable:
        """Pauli-string decomposition of the Hamiltonian."""
        strings: List[PauliString] = []
        for term in self.terms:
            strings.extend(_pauli_decompose(term))
        return Observable(strings).simplify(atol=1e-14)

    def trotter_gates(self, tau: complex) -> List[Tuple[Tuple[int, ...], np.ndarray]]:
        """First-order Trotter gates ``exp(tau * H_j)`` for every local term.

        For imaginary time evolution pass ``tau = -dt`` (real); for real time
        evolution pass ``tau = -1j * dt``.
        """
        return [(term.sites, term.exponential(tau)) for term in self.terms]

    def ground_state_energy(self) -> float:
        """Exact smallest eigenvalue (at most :data:`LANCZOS_MAX_SITES` sites).

        Up to 6 sites the dense matrix's ``eigvalsh``.  Above, Lanczos
        (``eigsh``) on a matrix-free operator that applies every term to the
        vector (:meth:`~repro.statevector.StateVector.apply_matrix`), so no
        ``2^n x 2^n`` matrix is built; its memory is a few dozen vectors of
        ``2^n`` amplitudes (16 MiB each at 20 sites).
        """
        import scipy.sparse.linalg as spla

        from repro.statevector import StateVector

        n = self.n_sites
        if n > LANCZOS_MAX_SITES:
            raise ValueError(
                f"exact diagonalization of {n} sites is not feasible: Lanczos "
                f"holds dozens of 2^{n}-amplitude vectors (limit {LANCZOS_MAX_SITES} sites)"
            )
        dim = 2**n
        if dim <= 64:
            return float(np.linalg.eigvalsh(self.to_matrix())[0])

        def apply(vector: np.ndarray) -> np.ndarray:
            state = StateVector(vector, n)
            out = np.zeros(dim, dtype=np.complex128)
            for term in self.terms:
                out += state.apply_matrix(term.matrix, term.sites).amplitudes
            return out

        operator = spla.LinearOperator((dim, dim), matvec=apply, dtype=np.complex128)
        evals = spla.eigsh(operator, k=1, which="SA", return_eigenvectors=False)
        return float(np.min(evals.real))

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"Hamiltonian({self.nrow}x{self.ncol}, {len(self.terms)} terms)"


def _embed_term(term: LocalTerm, n_sites: int) -> np.ndarray:
    """Embed a local term into the full ``2^n`` Hilbert space (dense)."""
    support = list(term.sites)
    others = [s for s in range(n_sites) if s not in support]
    # kron puts the support sites first; permute modes back to natural order.
    mat = np.kron(term.matrix, np.eye(2 ** len(others), dtype=np.complex128))
    tensor = mat.reshape((2,) * (2 * n_sites))
    perm = np.argsort(support + others)
    out_perm = list(perm)
    in_perm = [n_sites + p for p in perm]
    tensor = tensor.transpose(out_perm + in_perm)
    return np.ascontiguousarray(tensor).reshape(2**n_sites, 2**n_sites)


def _pauli_decompose(term: LocalTerm) -> List[PauliString]:
    """Decompose a 1- or 2-site Hermitian matrix into Pauli strings."""
    sites = term.sites
    n = len(sites)
    matrix = np.asarray(term.matrix)
    strings: List[PauliString] = []
    labels_iter = np.ndindex(*([4] * n))
    for labels in labels_iter:
        basis = np.array([[1.0]], dtype=np.complex128)
        for idx in labels:
            basis = np.kron(basis, pauli_matrix(_PAULI_LABELS[idx]))
        coeff = np.trace(basis.conj().T @ matrix) / (2**n)
        if abs(coeff) < 1e-14:
            continue
        paulis = {
            site: _PAULI_LABELS[idx]
            for site, idx in zip(sites, labels)
            if _PAULI_LABELS[idx] != "I"
        }
        strings.append(PauliString.from_dict(paulis, coeff))
    return strings


# --------------------------------------------------------------------- #
# Model builders
# --------------------------------------------------------------------- #
def _scheduled_bonds(lattice: Lattice, kind: str):
    """Bonds in sweep order: the lattice's partition groups, concatenated.

    Single-color lattices (plain square) yield the canonical row-major bond
    order — keeping term order, and with it every Trotter/RNG stream,
    bitwise identical to the historical open-coded loops.  Multi-color
    lattices (checkerboard) yield color group after color group.
    """
    for group in lattice.bond_partition(kind):
        yield from group


def heisenberg_j1j2(
    lattice: LatticeLike,
    ncol: Optional[int] = None,
    j1: Sequence[float] = (1.0, 1.0, 1.0),
    j2: Sequence[float] = (0.5, 0.5, 0.5),
    field: Sequence[float] = (0.2, 0.2, 0.2),
) -> Hamiltonian:
    """The spin-1/2 J1-J2 Heisenberg model of Eq. (7).

    Parameters
    ----------
    lattice, ncol:
        The geometry: a :class:`repro.lattice.Lattice` (and ``ncol=None``)
        or the historical ``(nrow, ncol)`` integer pair.  Per-bond coupling
        scales of the lattice multiply the two-site terms.
    j1:
        ``(Jx1, Jy1, Jz1)`` nearest-neighbour couplings.
    j2:
        ``(Jx2, Jy2, Jz2)`` diagonal next-nearest-neighbour couplings.
    field:
        ``(hx, hy, hz)`` transverse/longitudinal field components.

    The paper's Fig. 13 uses ``j1=(1,1,1)``, ``j2=(0.5,0.5,0.5)`` and
    ``field=(0.2,0.2,0.2)`` on a 4x4 lattice.
    """
    x, y, z = pauli_matrix("X"), pauli_matrix("Y"), pauli_matrix("Z")
    xx, yy, zz = np.kron(x, x), np.kron(y, y), np.kron(z, z)
    ham = Hamiltonian(lattice, ncol)
    lat = ham.lattice
    jx1, jy1, jz1 = j1
    jx2, jy2, jz2 = j2
    hx, hy, hz = field
    nn_matrix = jx1 * xx + jy1 * yy + jz1 * zz
    for bond in _scheduled_bonds(lat, "nn"):
        a, b = bond.indices(lat.ncol)
        ham.add_two_site(a, b, bond.scale * nn_matrix)
    if any(abs(c) > 0 for c in j2):
        nnn_matrix = jx2 * xx + jy2 * yy + jz2 * zz
        for bond in _scheduled_bonds(lat, "nnn"):
            a, b = bond.indices(lat.ncol)
            ham.add_two_site(a, b, bond.scale * nnn_matrix)
    if any(abs(c) > 0 for c in field):
        for s in range(ham.n_sites):
            ham.add_one_site(s, hx * x + hy * y + hz * z)
    return ham


def transverse_field_ising(
    lattice: LatticeLike,
    ncol: Optional[int] = None,
    jz: float = -1.0,
    hx: float = -3.5,
) -> Hamiltonian:
    """The transverse-field Ising model of Eq. (8).

    The paper's VQE study (Fig. 14) uses the ferromagnetic model with
    ``jz = -1`` and ``hx = -3.5`` on a 3x3 lattice.  Per-bond coupling
    scales of the lattice multiply the ``ZZ`` terms.
    """
    x, z = pauli_matrix("X"), pauli_matrix("Z")
    zz = np.kron(z, z)
    ham = Hamiltonian(lattice, ncol)
    lat = ham.lattice
    for bond in _scheduled_bonds(lat, "nn"):
        a, b = bond.indices(lat.ncol)
        ham.add_two_site(a, b, bond.scale * (jz * zz))
    for s in range(ham.n_sites):
        ham.add_one_site(s, hx * x)
    return ham


def hubbard(
    lattice: LatticeLike,
    ncol: Optional[int] = None,
    t: float = 1.0,
    v: float = 0.0,
    mu: float = 0.0,
) -> Hamiltonian:
    """The hardcore-boson Hubbard model (tenpy's Bose-Hubbard family, U → ∞).

    On the two-dimensional local space ``{|0>, |1>}`` (empty / occupied)::

        H = -t  Σ_<ij> (b†_i b_j + b†_j b_i)
           + v  Σ_<ij> n_i n_j
           - mu Σ_i    n_i

    with ``b = [[0, 1], [0, 0]]`` and ``n = diag(0, 1)``.  The hardcore
    constraint replaces the on-site ``U`` of the soft-core model, so the
    neighbour interaction ``v`` plays its role.  Per-bond coupling scales of
    the lattice multiply both two-site pieces, which is how checkerboard or
    anisotropic Hubbard variants are expressed.
    """
    b_op = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    n_op = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    hop = np.kron(b_op.conj().T, b_op) + np.kron(b_op, b_op.conj().T)
    nn = np.kron(n_op, n_op)
    ham = Hamiltonian(lattice, ncol)
    lat = ham.lattice
    pair_matrix = -float(t) * hop + float(v) * nn
    for bond in _scheduled_bonds(lat, "nn"):
        a, b = bond.indices(lat.ncol)
        ham.add_two_site(a, b, bond.scale * pair_matrix)
    if abs(mu) > 0:
        for s in range(ham.n_sites):
            ham.add_one_site(s, -float(mu) * n_op)
    return ham

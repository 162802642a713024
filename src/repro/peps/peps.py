"""Projected entangled pair states (PEPS) on an ``nrow x ncol`` lattice.

A :class:`PEPS` stores one backend tensor per lattice site with index order
``(phys, up, left, down, right)``; legs pointing outside the lattice have
dimension 1.  Sites are addressed either by ``(row, col)`` pairs or by flat
row-major indices (the convention the paper's code listing uses, e.g.
``qstate.apply_operator(CX, [1, 4])`` on a 2x3 lattice acts on the two
vertically adjacent sites of column 1).

The class provides the primitives of the Koala library: operator application
with selectable update algorithms, amplitudes, circuit application, and —
each one query to a contraction environment (:mod:`repro.peps.envs`) — norms,
inner products, expectation values, batched measurements and samples.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import get_backend
from repro.backends.interface import Backend
from repro.circuits.circuit import Circuit, Gate
from repro.lattice import bond_between
from repro.operators.hamiltonians import Hamiltonian
from repro.operators.observable import Observable
from repro.peps.contraction.options import ContractOption
from repro.peps.contraction.single_layer import contract_single_layer
from repro.peps.contraction.two_layer import check_edge_legs
from repro.peps.envs import make_environment
from repro.peps.update import (
    PHYS,
    UP,
    LEFT,
    DOWN,
    RIGHT,
    QRUpdate,
    UpdateOption,
    apply_single_site_operator,
    apply_two_site_operator,
)
from repro.tensornetwork.network import contract_network
from repro.utils.rng import SeedLike, ensure_rng


class PEPS:
    """A PEPS quantum state on a 2D square lattice."""

    def __init__(
        self,
        grid: Sequence[Sequence],
        backend: Union[str, Backend, None] = "numpy",
    ) -> None:
        self.backend = get_backend(backend)
        self.grid: List[List] = [list(row) for row in grid]
        self.nrow = len(self.grid)
        if self.nrow == 0:
            raise ValueError("a PEPS needs at least one row")
        self.ncol = len(self.grid[0])
        for i, row in enumerate(self.grid):
            if len(row) != self.ncol:
                raise ValueError(
                    f"row {i} has {len(row)} columns, expected {self.ncol}"
                )
        self._env = None
        self._validate()

    # ------------------------------------------------------------------ #
    # Validation and indexing
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        b = self.backend
        for i in range(self.nrow):
            for j in range(self.ncol):
                shape = b.shape(self.grid[i][j])
                if len(shape) != 5:
                    raise ValueError(
                        f"site ({i}, {j}) must have 5 modes (phys, up, left, down, right), "
                        f"got shape {shape}"
                    )
                if i + 1 < self.nrow:
                    below = b.shape(self.grid[i + 1][j])
                    if shape[DOWN] != below[UP]:
                        raise ValueError(
                            f"vertical bond mismatch between ({i}, {j}) and ({i + 1}, {j}): "
                            f"{shape[DOWN]} vs {below[UP]}"
                        )
                if j + 1 < self.ncol:
                    right = b.shape(self.grid[i][j + 1])
                    if shape[RIGHT] != right[LEFT]:
                        raise ValueError(
                            f"horizontal bond mismatch between ({i}, {j}) and ({i}, {j + 1}): "
                            f"{shape[RIGHT]} vs {right[LEFT]}"
                        )
        check_edge_legs(b, self.grid)

    @property
    def n_sites(self) -> int:
        return self.nrow * self.ncol

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrow, self.ncol)

    def site_position(self, site: int) -> Tuple[int, int]:
        """Convert a flat row-major site index into ``(row, col)``."""
        if not (0 <= site < self.n_sites):
            raise ValueError(f"site {site} outside a {self.nrow}x{self.ncol} lattice")
        return divmod(int(site), self.ncol)

    def __getitem__(self, position: Tuple[int, int]):
        row, col = position
        return self.grid[row][col]

    def __setitem__(self, position: Tuple[int, int], tensor) -> None:
        row, col = position
        self.grid[row][col] = tensor
        self._notify_env([row])

    # ------------------------------------------------------------------ #
    # Environments
    # ------------------------------------------------------------------ #
    def attach_environment(self, contract_option=None):
        """Attach a cached contraction environment and return it.

        The environment serves ``norm``/``expectation`` queries from cached
        boundary sweeps and is invalidated incrementally (only the touched
        rows) by the operator-application paths.  ``contract_option`` is
        ``None``/``Exact`` for an exact environment, a ``BMPS`` option for a
        truncated boundary MPS, a ``CTMOption`` for a corner-transfer-matrix
        environment.
        """
        self._env = make_environment(self, contract_option)
        return self._env

    def detach_environment(self):
        """Detach and return the attached environment (or ``None``)."""
        env, self._env = self._env, None
        return env

    @property
    def environment(self):
        """The attached environment, or ``None``."""
        return self._env

    def _notify_env(self, rows: Sequence[int]) -> None:
        if self._env is not None:
            self._env.invalidate(rows)

    def bond_dimensions(self) -> List[int]:
        """All internal (horizontal and vertical) bond dimensions."""
        b = self.backend
        bonds = []
        for i in range(self.nrow):
            for j in range(self.ncol):
                shape = b.shape(self.grid[i][j])
                if j + 1 < self.ncol:
                    bonds.append(shape[RIGHT])
                if i + 1 < self.nrow:
                    bonds.append(shape[DOWN])
        return bonds

    def max_bond_dimension(self) -> int:
        bonds = self.bond_dimensions()
        return max(bonds) if bonds else 1

    def copy(self) -> "PEPS":
        """An independent deep copy: every site tensor is duplicated.

        Mutating the copy (operator application, in-place normalization)
        never touches the original's tensors — checkpointing and the
        algorithm drivers rely on this.  Any attached environment is *not*
        carried over (it caches contractions of the original's tensors);
        re-attach one on the copy if needed.
        """
        b = self.backend
        return PEPS([[b.copy(t) for t in row] for row in self.grid], b)

    def __copy__(self) -> "PEPS":
        # A shallow copy sharing the grid lists would let in-place updates on
        # one state corrupt the other; always deep-copy the tensors.
        return self.copy()

    def __deepcopy__(self, memo) -> "PEPS":
        return self.copy()

    def scale(self, factor: complex) -> "PEPS":
        """Multiply the state by a scalar (applied to a single site tensor)."""
        out = self.copy()
        out.grid[0][0] = out.grid[0][0] * factor
        return out

    # ------------------------------------------------------------------ #
    # Operator application
    # ------------------------------------------------------------------ #
    def apply_operator(
        self,
        operator,
        sites: Sequence[int],
        update_option: Optional[UpdateOption] = None,
    ) -> "PEPS":
        """Apply a one- or two-site operator (in place) and return ``self``.

        ``operator`` is a ``2^k x 2^k`` matrix (or the corresponding
        ``(2,)*2k`` tensor for ``k = 2``); ``sites`` are flat row-major site
        indices, the first being the operator's most significant qubit.
        Two-site operators on non-adjacent sites are routed with SWAP chains.
        """
        sites = [int(s) for s in sites]
        if len(sites) == 1:
            row, col = self.site_position(sites[0])
            self.grid[row][col] = apply_single_site_operator(
                self.backend, self.grid[row][col], operator
            )
            self._notify_env([row])
            return self
        if len(sites) == 2:
            return self._apply_two_site(operator, sites[0], sites[1], update_option)
        raise ValueError(f"only 1- and 2-site operators are supported, got {len(sites)} sites")

    def apply_gate(self, gate: Gate, update_option: Optional[UpdateOption] = None) -> "PEPS":
        return self.apply_operator(gate.matrix, gate.qubits, update_option)

    def apply_circuit(
        self, circuit: Circuit, update_option: Optional[UpdateOption] = None
    ) -> "PEPS":
        if circuit.n_qubits != self.n_sites:
            raise ValueError(
                f"circuit acts on {circuit.n_qubits} qubits, the PEPS has {self.n_sites} sites"
            )
        for gate in circuit.gates:
            self.apply_gate(gate, update_option)
        return self

    def _apply_two_site(
        self,
        operator,
        site_a: int,
        site_b: int,
        update_option: Optional[UpdateOption],
    ) -> "PEPS":
        if site_a == site_b:
            raise ValueError("a two-site operator needs two distinct sites")
        (ra, ca), (rb, cb) = self.site_position(site_a), self.site_position(site_b)
        if abs(ra - rb) + abs(ca - cb) == 1:
            self._apply_adjacent(operator, (ra, ca), (rb, cb), update_option)
            return self
        # Non-adjacent: swap the first operand's qubit along a lattice path
        # until it neighbours the second, apply, then undo the swaps.
        path = self._lattice_path((ra, ca), (rb, cb))
        swaps = list(zip(path[:-2], path[1:-1]))
        swap_matrix = _swap_matrix()
        for a, b in swaps:
            self._apply_adjacent(swap_matrix, a, b, update_option)
        self._apply_adjacent(operator, path[-2], (rb, cb), update_option)
        for a, b in reversed(swaps):
            self._apply_adjacent(swap_matrix, a, b, update_option)
        return self

    def _lattice_path(
        self, start: Tuple[int, int], end: Tuple[int, int]
    ) -> List[Tuple[int, int]]:
        """A monotone lattice path from ``start`` to ``end`` (rows first)."""
        path = [start]
        r, c = start
        while r != end[0]:
            r += 1 if end[0] > r else -1
            path.append((r, c))
        while c != end[1]:
            c += 1 if end[1] > c else -1
            path.append((r, c))
        return path

    def _apply_adjacent(
        self,
        operator,
        pos_a: Tuple[int, int],
        pos_b: Tuple[int, int],
        update_option: Optional[UpdateOption],
    ) -> None:
        b = self.backend
        bond, swapped = bond_between(pos_a, pos_b)
        gate = _swap_gate_qubits(b, operator) if swapped else operator
        first, second = bond.site_a.position, bond.site_b.position
        new_a, new_b = apply_two_site_operator(
            b,
            self.grid[first[0]][first[1]],
            self.grid[second[0]][second[1]],
            gate,
            bond,
            option=update_option if update_option is not None else QRUpdate(),
        )
        self.grid[first[0]][first[1]] = new_a
        self.grid[second[0]][second[1]] = new_b
        self._notify_env({first[0], second[0]})

    # ------------------------------------------------------------------ #
    # Contractions
    # ------------------------------------------------------------------ #
    def amplitude(
        self,
        bits: Sequence[int],
        contract_option: Optional[ContractOption] = None,
    ) -> complex:
        """The amplitude ``<bits|psi>`` (one-layer contraction).

        ``bits`` is a flat row-major sequence of computational-basis values.
        """
        if len(bits) != self.n_sites:
            raise ValueError(f"expected {self.n_sites} bits, got {len(bits)}")
        b = self.backend
        grid = []
        for i in range(self.nrow):
            row = []
            for j in range(self.ncol):
                tensor = self.grid[i][j]
                d = b.shape(tensor)[PHYS]
                value = int(bits[i * self.ncol + j])
                if not (0 <= value < d):
                    raise ValueError(f"basis value {value} outside physical dimension {d}")
                selector = np.zeros(d, dtype=np.complex128)
                selector[value] = 1.0
                projected = b.einsum("puldr,p->uldr", tensor, b.astensor(selector))
                row.append(projected)
            grid.append(row)
        return contract_single_layer(grid, option=contract_option, backend=b)

    def inner(
        self,
        other: "PEPS",
        contract_option: Optional[ContractOption] = None,
    ) -> complex:
        """The inner product ``<self|other>`` (two-layer contraction).

        ``<self|self>`` is the norm of :meth:`_environment_for`'s
        environment; ``<self|other>`` that of a fresh cross environment of
        ``other`` with ``self`` as the bra.  With no option (and, for
        ``<self|self>``, nothing attached) the contraction is exact.
        """
        if other is self:
            return self._environment_for(contract_option).norm_sq()
        return make_environment(other, contract_option, bra=self).norm_sq()

    def norm(self, contract_option: Optional[ContractOption] = None) -> float:
        """``sqrt(<psi|psi>)`` from :meth:`_environment_for`'s environment."""
        return self._environment_for(contract_option).norm()

    def _unit_norm_factor(self, contract_option: Optional[ContractOption]) -> float:
        """The per-site scale factor that brings the state to unit norm."""
        nrm = self.norm(contract_option)
        if nrm <= 0:
            raise ValueError("cannot normalize a state with zero norm")
        return nrm ** (-1.0 / self.n_sites)

    def normalize(self) -> "PEPS":
        """Return a copy scaled to unit exact norm (scale spread over all sites)."""
        factor = self._unit_norm_factor(None)
        return PEPS([[t * factor for t in row] for row in self.grid], self.backend)

    def normalize_(self, contract_option: Optional[ContractOption] = None) -> "PEPS":
        """Normalize in place, keeping any attached environment's caches warm.

        The uniform per-site scale factor rescales the cached boundary
        environments analytically instead of invalidating them, so a hot-loop
        ``normalize_(); expectation(...)`` pair shares one boundary build.
        """
        factor = self._unit_norm_factor(contract_option)
        for row in self.grid:
            row[:] = [t * factor for t in row]
        if self._env is not None:
            self._env.rescale_cached(factor)
        return self

    def expectation(
        self,
        observable: Union[Observable, Hamiltonian],
        contract_option: Optional[ContractOption] = None,
        normalized: bool = True,
    ) -> float:
        """Expectation value ``<psi|O|psi>`` (optionally divided by ``<psi|psi>``).

        Served by :meth:`_environment_for`'s environment with the caching
        strategy of Section IV-B: the boundary environments of the
        ``<psi|psi>`` sandwich are computed once and shared across all local
        terms, and an attached compatible environment's incrementally
        maintained boundaries are reused instead of rebuilt.
        """
        return self._environment_for(contract_option).expectation(
            observable, normalized=normalized
        )

    def sample(
        self,
        rng: SeedLike = None,
        nshots: int = 1,
        contract_option: Optional[ContractOption] = None,
    ) -> np.ndarray:
        """Computational-basis samples ``~ |<b|psi>|^2`` (see ``BoundaryEnvironment.sample``)."""
        return self._environment_for(contract_option).sample(rng=rng, nshots=nshots)

    def _environment_for(self, contract_option: Optional[ContractOption]):
        """The attached environment if compatible, else an ephemeral one."""
        if self._env is not None and self._env.accepts(contract_option):
            return self._env
        return make_environment(self, contract_option)

    def to_statevector(self) -> np.ndarray:
        """Exact dense state (flat row-major qubit ordering; small lattices only)."""
        if self.n_sites > 20:
            raise ValueError(
                f"dense conversion of a {self.nrow}x{self.ncol} PEPS is not feasible"
            )
        b = self.backend
        operands = []
        inputs = []
        output = []
        for i in range(self.nrow):
            for j in range(self.ncol):
                operands.append(self.grid[i][j])
                labels = (
                    ("p", i, j),
                    ("v", i, j),        # up bond: between (i-1, j) and (i, j)
                    ("h", i, j),        # left bond: between (i, j-1) and (i, j)
                    ("v", i + 1, j),    # down bond
                    ("h", i, j + 1),    # right bond
                )
                inputs.append(labels)
                output.append(("p", i, j))
        result = contract_network(operands, inputs, output, backend=b)
        array = b.asarray(result)
        return np.asarray(array, dtype=np.complex128).reshape(-1)

    def __repr__(self) -> str:
        return (
            f"PEPS(shape={self.nrow}x{self.ncol}, max_bond={self.max_bond_dimension()}, "
            f"backend={self.backend.name!r})"
        )


# --------------------------------------------------------------------- #
# Constructors (module-level functions mirroring the Koala API live in
# repro.peps.__init__; these classmethod-style helpers build the grids).
# --------------------------------------------------------------------- #
def _product_grid(vectors: Sequence[Sequence[complex]], nrow: int, ncol: int, backend: Backend):
    grid = []
    it = iter(vectors)
    for i in range(nrow):
        row = []
        for j in range(ncol):
            vec = np.asarray(next(it), dtype=np.complex128)
            row.append(backend.astensor(vec.reshape(-1, 1, 1, 1, 1)))
        grid.append(row)
    return grid


def product_state(
    vectors: Sequence[Sequence[complex]],
    nrow: int,
    ncol: int,
    backend: Union[str, Backend, None] = "numpy",
) -> PEPS:
    """A bond-dimension-1 PEPS from one local state vector per site (row-major)."""
    backend = get_backend(backend)
    vectors = list(vectors)
    if len(vectors) != nrow * ncol:
        raise ValueError(f"expected {nrow * ncol} site vectors, got {len(vectors)}")
    return PEPS(_product_grid(vectors, nrow, ncol, backend), backend)


def computational_basis(
    bits: Sequence[int],
    nrow: int,
    ncol: int,
    phys_dim: int = 2,
    backend: Union[str, Backend, None] = "numpy",
) -> PEPS:
    """The computational basis state ``|bits>`` as a bond-dimension-1 PEPS."""
    vectors = []
    for bit in bits:
        v = np.zeros(phys_dim, dtype=np.complex128)
        v[int(bit)] = 1.0
        vectors.append(v)
    return product_state(vectors, nrow, ncol, backend)


def computational_zeros(
    nrow: int, ncol: int, backend: Union[str, Backend, None] = "numpy"
) -> PEPS:
    """The all-zeros qubit state ``|00...0>``."""
    return computational_basis([0] * (nrow * ncol), nrow, ncol, 2, backend)


def random_peps(
    nrow: int,
    ncol: int,
    bond_dim: int = 2,
    phys_dim: int = 2,
    backend: Union[str, Backend, None] = "numpy",
    seed: SeedLike = None,
) -> PEPS:
    """A PEPS with i.i.d. complex Gaussian entries, scaled by one over the
    square root of each tensor's size, and the given uniform bond dimension."""
    backend = get_backend(backend)
    rng = ensure_rng(seed)
    grid = []
    for i in range(nrow):
        row = []
        for j in range(ncol):
            up = 1 if i == 0 else bond_dim
            down = 1 if i == nrow - 1 else bond_dim
            left = 1 if j == 0 else bond_dim
            right = 1 if j == ncol - 1 else bond_dim
            shape = (phys_dim, up, left, down, right)
            row.append(backend.astensor(_gaussian_site(rng, shape)))
        grid.append(row)
    return PEPS(grid, backend)


def random_single_layer_grid(
    nrow: int,
    ncol: int,
    bond_dim: int = 2,
    backend: Union[str, Backend, None] = "numpy",
    seed: SeedLike = None,
):
    """A random single-layer grid (no physical legs), used by the contraction
    benchmarks that "directly generate a PEPS without physical indices"."""
    backend = get_backend(backend)
    rng = ensure_rng(seed)
    grid = []
    for i in range(nrow):
        row = []
        for j in range(ncol):
            up = 1 if i == 0 else bond_dim
            down = 1 if i == nrow - 1 else bond_dim
            left = 1 if j == 0 else bond_dim
            right = 1 if j == ncol - 1 else bond_dim
            shape = (up, left, down, right)
            row.append(backend.astensor(_gaussian_site(rng, shape)))
        grid.append(row)
    return grid


def _gaussian_site(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """I.i.d. complex Gaussian entries over the square root of the size: the
    real parts, then the imaginary parts, drawn into one array, bitwise
    ``(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) /
    np.sqrt(np.prod(shape))`` without its three temporaries."""
    data = np.empty(shape, dtype=np.complex128)
    data.real = rng.standard_normal(shape)
    data.imag = rng.standard_normal(shape)
    data /= math.sqrt(math.prod(shape))
    return data


def _swap_matrix() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
    )


def _swap_gate_qubits(backend: Backend, operator):
    """Exchange the two qubits of a two-site operator (matrix or 4-mode tensor)."""
    op = backend.astensor(operator)
    shape = backend.shape(op)
    if len(shape) == 2:
        d2 = shape[0]
        d = int(np.sqrt(d2))
        op = backend.reshape(op, (d, d, d, d))
        op = backend.transpose(op, (1, 0, 3, 2))
        return backend.reshape(op, (d2, d2))
    if len(shape) == 4:
        return backend.transpose(op, (1, 0, 3, 2))
    raise ValueError(f"two-site operator must have 2 or 4 modes, got {len(shape)}")

"""Strip contractions: one local term between cached boundary environments.

Given an upper boundary (rows ``0..r0-1`` absorbed) and a lower boundary
(rows ``r1+1..nrow-1`` absorbed), the value of ``<psi| H_term |psi>`` reduces
to contracting the short strip of rows ``r0..r1`` with the term's operator
inserted between the layers (Figure 6 of the paper).  This module hosts the
strip machinery every boundary environment measures with.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.tensornetwork.network import contract_network

# --------------------------------------------------------------------- #
# Row-strip transfer contractions, shared by batched measurement and
# sampling.  Leg convention of the horizontal environment ``E``:
# ``(upper boundary bond, ket horizontal bond, bra horizontal bond, lower
# boundary bond)``.  Boundary tensors are ``(left, ket phys, bra phys,
# right)``; site tensors ``(phys, up, left, down, right)``.  The sampler
# runs the same subscripts through ``einsum_batched``.
# --------------------------------------------------------------------- #

#: Absorb one traced column (phys legs contracted) into a right environment.
TRANSFER_RIGHT = "auwx,puedg,pwfhs,bdhy,xgsy->aefb"
#: Absorb one traced column into a left environment.
TRANSFER_LEFT = "aefb,auwx,puedg,pwfhs,bdhy->xgsy"
#: Absorb one basis-projected column (no phys legs) into a left environment.
TRANSFER_LEFT_PROJECTED = "aefb,auwx,uedg,wfhs,bdhy->xgsy"
#: Local reduced density matrix ``rho[bra phys, ket phys]`` of one column.
SITE_DENSITY = "aefb,auwx,puedg,qwfhs,bdhy,xgsy->qp"


#: Operator-bond labels of a term's pieces: they only need to be unique
#: within one term (every strip contraction holds exactly one term).
_KAPPA_IN, _KAPPA_OUT = ("kap", 0), ("kap", 1)
_KAPPA_A, _KAPPA_BOND, _KAPPA_B = ("kap", "a"), ("kap", "bond"), ("kap", "b")

Piece = Tuple[np.ndarray, object, object]


def split_operator(n_sites: int, matrix: np.ndarray) -> Tuple[Piece, ...]:
    """Split a term operator into one piece per site with a shared internal bond.

    Every piece is a 4-mode array ``(kappa_in, out, in, kappa_out)`` with its
    two kappa labels; for a single-site term the kappa legs have dimension 1,
    for a two-site term the operator Schmidt decomposition links the two
    pieces through a bond of dimension at most ``d^2``.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if n_sites == 1:
        d = matrix.shape[0]
        return ((matrix.reshape(1, d, d, 1), _KAPPA_IN, _KAPPA_OUT),)
    if n_sites == 2:
        d = int(np.sqrt(matrix.shape[0]))
        # G[i1 i2, j1 j2] -> G[i1, j1, i2, j2] -> matrix ((i1 j1), (i2 j2))
        tensor = matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3)
        mat = tensor.reshape(d * d, d * d)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep = int(np.count_nonzero(s > s[0] * 1e-14)) if s[0] > 0 else 1
        keep = max(keep, 1)
        root = np.sqrt(s[:keep])
        a = (u[:, :keep] * root).reshape(d, d, keep)          # (i1, j1, kappa)
        bpart = (root[:, None] * vh[:keep, :]).reshape(keep, d, d)  # (kappa, i2, j2)
        piece_a = a.reshape(d, d, keep)[np.newaxis, ...]       # (1, i1, j1, kappa)
        piece_b = bpart.reshape(keep, d, d)[..., np.newaxis]   # (kappa, i2, j2, 1)
        return ((piece_a, _KAPPA_A, _KAPPA_BOND), (piece_b, _KAPPA_BOND, _KAPPA_B))
    raise ValueError(f"terms on {n_sites} sites are not supported")


def operator_pieces(
    sites: Sequence[int],
    matrix: np.ndarray,
    positions: Sequence[Tuple[int, int]],
    memo: Optional[Dict] = None,
) -> Dict[Tuple[int, int], List[Piece]]:
    """The pieces of :func:`split_operator` placed at the term's positions:
    a mapping ``(row, col) -> list of (piece, kappa_in_label, kappa_out_label)``.

    ``memo``, a dict owned by one expectation pass, splits each distinct
    matrix once (by value: a Hamiltonian's terms are separate arrays).
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    memo = {} if memo is None else memo
    key = (len(sites), matrix.shape, matrix.tobytes())
    if key not in memo:
        memo[key] = split_operator(len(sites), matrix)
    pieces: Dict[Tuple[int, int], List[Piece]] = {}
    for position, piece in zip(positions, memo[key]):
        pieces.setdefault(position, []).append(piece)
    return pieces


class StripCache:
    """Shared column environments of one row strip, reused across terms.

    Every observable term on rows ``r0..r1`` contracts the *same* strip
    ``upper x rows x lower`` — the terms differ only in which columns carry
    operator pieces.  The cache lazily builds the traced (operator-free)
    left environments ``L[j]`` (columns ``0..j-1`` absorbed) and right
    environments ``R[j]`` (columns ``j..ncol-1`` absorbed) once, and each
    :meth:`term_value` then only contracts the term's own column span
    ``c0..c1`` between ``L[c0]`` and ``R[c1+1]``.

    A batched expectation pass holds one cache per ``(r0, r1)`` strip, so
    ``k`` terms on one strip cost one pair of transfer sweeps plus ``k``
    short span contractions instead of ``k`` full ``O(ncol)`` sweeps.
    ``hits`` counts the term evaluations fully served by already-built
    column environments, ``misses`` those that had to extend a sweep.
    """

    def __init__(self, peps, upper: Sequence, lower: Sequence, r0: int, r1: int) -> None:
        self.peps = peps
        self.backend = peps.backend
        self.upper = upper
        self.lower = lower
        self.r0 = r0
        self.r1 = r1
        self.rows = list(range(r0, r1 + 1))
        ncol = peps.ncol
        # The state does not change while the cache lives, and every term
        # touches every column of the strip (span plus both environments).
        self._bra = {
            r: [self.backend.conj(peps.grid[r][j]) for j in range(ncol)] for r in self.rows
        }
        self._left: List = [None] * (ncol + 1)
        self._right: List = [None] * (ncol + 1)
        # Closes the dimension-1 edge legs at the right lattice boundary so
        # every R[j] exposes only the column-j labels.
        edge = self.backend.ones((1,) * len(self._column_labels(ncol)))
        self._right[ncol] = edge
        self._builds = 0
        self.hits = 0
        self.misses = 0

    def _column_labels(self, j: int) -> Tuple:
        labels: List = [("ub", j)]
        for r in self.rows:
            labels.append(("hk", r, j))
            labels.append(("hb", r, j))
        labels.append(("lb", j))
        return tuple(labels)

    def _column_operands(self, j: int, piece_map=None) -> Tuple[List, List]:
        """Operands and label tuples of strip column ``j``.

        ``piece_map`` inserts operator pieces between the layers; ``None``
        gives the traced column used by the shared environments.
        """
        backend = self.backend
        r0, r1 = self.r0, self.r1
        operands: List = [self.upper[j], self.lower[j]]
        inputs: List = [
            (("ub", j), ("uk", j), ("ubra", j), ("ub", j + 1)),
            (("lb", j), ("lk", j), ("lbra", j), ("lb", j + 1)),
        ]
        for r in self.rows:
            ket = self.peps.grid[r][j]
            bra = self._bra[r][j]
            ket_up = ("uk", j) if r == r0 else ("vk", r, j)
            ket_down = ("lk", j) if r == r1 else ("vk", r + 1, j)
            bra_up = ("ubra", j) if r == r0 else ("vb", r, j)
            bra_down = ("lbra", j) if r == r1 else ("vb", r + 1, j)

            has_op = piece_map is not None and (r, j) in piece_map
            ket_phys = ("kp", r, j)
            bra_phys = ("bp", r, j) if has_op else ket_phys

            operands.append(ket)
            inputs.append((ket_phys, ket_up, ("hk", r, j), ket_down, ("hk", r, j + 1)))
            operands.append(bra)
            inputs.append((bra_phys, bra_up, ("hb", r, j), bra_down, ("hb", r, j + 1)))

            if has_op:
                for piece, kap_in, kap_out in piece_map[(r, j)]:
                    operands.append(backend.astensor(piece))
                    inputs.append((kap_in, bra_phys, ket_phys, kap_out))
        return operands, inputs

    def left(self, j: int):
        """Traced environment of columns ``0..j-1`` (``None`` for ``j == 0``)."""
        if j == 0:
            return None
        if self._left[j] is None:
            prev = self.left(j - 1)
            operands, inputs = self._column_operands(j - 1)
            if prev is not None:
                operands.append(prev)
                inputs.append(self._column_labels(j - 1))
            self._left[j] = contract_network(
                operands, inputs, self._column_labels(j), backend=self.backend
            )
            self._builds += 1
        return self._left[j]

    def right(self, j: int):
        """Traced environment of columns ``j..ncol-1`` (edge closer at ``ncol``)."""
        if self._right[j] is None:
            operands, inputs = self._column_operands(j)
            operands.append(self.right(j + 1))
            inputs.append(self._column_labels(j + 1))
            self._right[j] = contract_network(
                operands, inputs, self._column_labels(j), backend=self.backend
            )
            self._builds += 1
        return self._right[j]

    def term_value(
        self, sites: Sequence[int], matrix: np.ndarray, memo: Optional[Dict] = None
    ) -> complex:
        """``<psi| term |psi>`` with only the term's column span contracted;
        ``memo`` is the pass's :func:`operator_pieces` memo."""
        backend = self.backend
        positions = [self.peps.site_position(s) for s in sites]
        for (r, _c) in positions:
            if not (self.r0 <= r <= self.r1):
                raise ValueError("term site outside the strip rows")
        piece_map = operator_pieces(sites, matrix, positions, memo)
        cols = [c for (_r, c) in positions]
        c0, c1 = min(cols), max(cols)

        builds_before = self._builds
        env = self.left(c0)
        env_labels = self._column_labels(c0)
        for j in range(c0, c1 + 1):
            operands, inputs = self._column_operands(j, piece_map)
            if env is not None:
                operands.append(env)
                inputs.append(env_labels)
            out_labels = self._column_labels(j + 1) + tuple(pending_kappas(piece_map, j))
            env = contract_network(operands, inputs, out_labels, backend=backend)
            env_labels = out_labels

        closed = contract_network(
            [env, self.right(c1 + 1)],
            [env_labels, self._column_labels(c1 + 1)],
            (),
            backend=backend,
        )
        if self._builds == builds_before:
            self.hits += 1
        else:
            self.misses += 1
        return backend.item(closed)


def pending_kappas(piece_map, col: int) -> List:
    """Operator-bond labels shared between a column <= col and a column > col."""
    ends: Dict = {}
    for (r, c), plist in piece_map.items():
        for piece, kap_in, kap_out in plist:
            for label in (kap_in, kap_out):
                ends.setdefault(label, []).append(c)
    pending = []
    for label, cols in ends.items():
        if len(cols) == 2 and min(cols) <= col < max(cols):
            pending.append(label)
    return pending

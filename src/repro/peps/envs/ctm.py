"""Corner-transfer-matrix (CTM) environments of a finite PEPS.

:class:`EnvCTM` is the one subclass of
:class:`~repro.peps.envs.boundary.BoundaryEnvironment`, whose public methods
are the environment protocol.  Like it, it caches directional boundaries of
the ``<psi|psi>`` sandwich keyed by row, but the boundaries are renormalized
CTM-style instead of zip-up-style:

* A **move** absorbs one lattice row into an edge-tensor boundary exactly
  (horizontal bonds multiply) and then renormalizes every internal bond back
  to the environment bond ``chi`` with a pair of oblique projectors.
* The projectors at a bond are built from the two **corner transfer
  matrices** meeting there: the Gram matrices ``C_L = <half|half>`` of the
  boundary columns left of the bond and ``C_R`` of the columns right of it —
  the corner matrices of the doubled (reflection-symmetrized) half-system.
  With ``C_L = A_L^dagger A_L`` and ``C_R = A_R A_R^dagger``, the truncated
  SVD ``A_L A_R ~= U S V^dagger`` (``repro.linalg.truncated_svd``) gives the
  projector pair ``P_in = A_R V S^(-1/2)``, ``P_out = S^(-1/2) U^dagger A_L``
  with ``P_out P_in = 1`` — the standard corner-spectrum truncation.
* The retained, normalized singular values ``S`` are the **corner spectrum**
  of that bond; :func:`ctm_renormalize` returns them with the move.

On a finite lattice a move is a deterministic function of the rows it
absorbs, so there is no fixed point to iterate towards: the inherited
``build`` runs every stale move once.

The cached boundaries share the edge-tensor layout of
:class:`~repro.peps.envs.boundary.BoundaryEnvironment` (one
``(left, ket, bra, right)`` tensor per column), so all cached queries —
norm, batched measurements, strip expectation values and conditional
sampling — run unchanged on CTM-renormalized environments.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.truncated_svd import truncated_svd
from repro.peps.contraction.options import ContractOption, CTMOption
from repro.peps.contraction.two_layer import absorb_sandwich_row
from repro.peps.envs.boundary import BoundaryEnvironment, option_signature
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.trace import span as _span

#: One unit per directional corner/edge absorption; every move also counts
#: as one row absorption, so ``peps.row_absorptions`` stays comparable
#: across environment implementations.
_CTM_MOVES = REGISTRY.counter("peps.ctm_moves")

#: Relative floor under which corner-Gram singular directions are treated as
#: numerically zero when forming ``S^(-1/2)`` (pseudo-inverse regularization).
PSEUDO_INVERSE_RTOL = 1e-14


# --------------------------------------------------------------------- #
# Corner Gram matrices and projector pairs
# --------------------------------------------------------------------- #
def corner_grams(backend, boundary: Sequence, contract) -> Tuple[List, List]:
    """The corner Gram matrices at every internal bond of a boundary row.

    For the bond between columns ``b-1`` and ``b`` (``b = 1..ncol-1``):

    * ``lefts[b]`` — Gram matrix ``<left half|left half>`` of columns
      ``0..b-1``, legs ``(bond, bond*)``: the left corner transfer matrix of
      the doubled half-system,
    * ``rights[b]`` — the same for columns ``b..ncol-1``: the right corner.

    Index 0 of both lists is unused (there is no bond left of column 0).
    ``contract`` is ``backend.einsum``, or ``backend.einsum_batched`` for
    boundary tensors carrying a leading shot axis (one Gram chain per bond
    for all shots, ``2 * (ncol - 1)`` calls).
    """
    ncol = len(boundary)
    conj = [backend.conj(t) for t in boundary]
    lefts: List = [None] * ncol
    rights: List = [None] * ncol
    if ncol < 2:
        return lefts, rights
    gram = contract("aqpr,aqps->rs", boundary[0], conj[0])
    lefts[1] = gram
    for c in range(1, ncol - 1):
        gram = contract("ab,aqpr,bqps->rs", gram, boundary[c], conj[c])
        lefts[c + 1] = gram
    gram = contract("aqpr,bqpr->ab", boundary[ncol - 1], conj[ncol - 1])
    rights[ncol - 1] = gram
    for c in range(ncol - 2, 0, -1):
        gram = contract("aqpr,bqps,rs->ab", boundary[c], conj[c], gram)
        rights[c] = gram
    return lefts, rights


def _adjoint(matrices: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix of a stack."""
    return np.swapaxes(matrices.conj(), -1, -2)


def _gram_half(gram: np.ndarray) -> np.ndarray:
    """A half factor ``A`` with ``A^dagger A = gram`` (Hermitian PSD input).

    Returned with legs ``(internal, bond)``; negative eigenvalues from
    round-off are clipped to zero.  A stack of Grams (leading axes) is
    factored in one ``eigh`` call.
    """
    hermitized = (gram + _adjoint(gram)) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(hermitized)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return np.sqrt(eigenvalues)[..., :, None] * _adjoint(eigenvectors)


def _corner_svd(
    backend, product: np.ndarray, chi: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD ``(u, s, vh, spectrum)`` of a corner product.

    A stack of products (leading batch axis) is factored item by item with
    the 2-d :func:`~repro.linalg.truncated_svd` and restacked; every item
    keeps ``min(chi, *shape)`` values, so their factors stack.
    """
    items = []
    for item in ([product] if product.ndim == 2 else product):
        result = truncated_svd(backend, backend.astensor(item), rank=chi)
        s = np.asarray(result.s, dtype=float)
        total = float(np.linalg.norm(s))
        items.append((
            np.asarray(backend.asarray(result.u)),     # (alpha, k)
            s,
            np.asarray(backend.asarray(result.vh)),    # (k, beta)
            s / total if total > 0.0 else s,
        ))
    if product.ndim == 2:
        return items[0]
    return tuple(np.stack(parts) for parts in zip(*items))


def bond_projectors(
    backend, left_gram, right_gram, chi: Optional[int]
) -> Tuple[Optional[Tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Oblique projector pair and corner spectrum for one boundary bond.

    Returns ``((absorb_left, absorb_right), spectrum)`` where
    ``absorb_left`` (``(chi, bond)``) contracts into the left leg of the
    tensor right of the bond and ``absorb_right`` (``(bond, chi)``) into the
    right leg of the tensor left of it, with
    ``absorb_left @ absorb_right = 1``.  The projector pair is ``None`` when
    no truncation is needed (the bond already satisfies ``chi``),
    so exact bonds stay bitwise untouched.  ``spectrum`` is the normalized
    retained corner spectrum.

    Grams with a leading batch axis (size ``B`` or a broadcasting 1) give
    projectors and spectra with one too, and each item is what its own
    Grams give.  The ``eigh`` halves and every product are stacked calls;
    the SVD runs item by item (:func:`_corner_svd`).
    """
    left = np.asarray(backend.asarray(left_gram))
    right = np.asarray(backend.asarray(right_gram))
    half_left = _gram_half(left)                 # (..., alpha, bond)
    half_right = _adjoint(_gram_half(right))     # (..., bond, beta)
    product = half_left @ half_right
    u, s, vh, spectrum = _corner_svd(backend, product, chi)
    if s.shape[-1] >= product.shape[-2]:
        return None, spectrum
    inv_sqrt = np.zeros_like(s)
    significant = s > s[..., :1] * PSEUDO_INVERSE_RTOL
    inv_sqrt[significant] = 1.0 / np.sqrt(s[significant])
    absorb_right = half_right @ _adjoint(vh) * inv_sqrt[..., None, :]   # (..., bond, k)
    absorb_left = inv_sqrt[..., :, None] * (_adjoint(u) @ half_left)    # (..., k, bond)
    return (absorb_left, absorb_right), spectrum


def ctm_renormalize(
    backend, boundary: Sequence, chi: Optional[int]
) -> Tuple[List, List[np.ndarray]]:
    """Renormalize every internal bond of a boundary row with corner projectors.

    All projectors are computed from the *unrenormalized* boundary first and
    applied afterwards, so each bond's truncation sees the exact corner Gram
    matrices.  Returns the renormalized boundary and the list of normalized
    corner spectra (one per internal bond, left to right).

    A batch of boundaries (every tensor with a leading batch axis, 5 modes
    instead of 4) runs its Gram chains and projector applications as
    ``einsum_batched`` calls, each bond's ``eigh`` halves and projector
    products as stacked ones and its corner SVDs item by item
    (:func:`bond_projectors`); each spectrum then has a leading batch axis
    too; every item retains the same rank at a bond.
    """
    ncol = len(boundary)
    if ncol < 2:
        return list(boundary), []
    batched = backend.ndim(boundary[0]) == 5
    contract = backend.einsum_batched if batched else backend.einsum
    lefts, rights = corner_grams(backend, boundary, contract)
    pairs: List = [None] * ncol
    spectra: List[np.ndarray] = []
    for b in range(1, ncol):
        pairs[b], spectrum = bond_projectors(backend, lefts[b], rights[b], chi)
        spectra.append(spectrum)
    renormalized: List = []
    for c in range(ncol):
        tensor = boundary[c]
        if pairs[c] is not None:
            absorb_left = backend.astensor(pairs[c][0])
            tensor = contract("kl,lqpr->kqpr", absorb_left, tensor)
        if c + 1 < ncol and pairs[c + 1] is not None:
            absorb_right = backend.astensor(pairs[c + 1][1])
            tensor = contract("aqpl,lk->aqpk", tensor, absorb_right)
        renormalized.append(tensor)
    return renormalized, spectra


def _move_contractions(backend, grown: Sequence, spectra: Sequence[np.ndarray]) -> int:
    """Contraction calls of one CTM move, from its grown boundary and spectra.

    One per column to grow, two per renormalized bond for the corner Grams
    and two more per truncated bond to apply its projectors.
    """
    truncated = sum(
        np.shape(spectrum)[-1] < backend.shape(tensor)[-1]
        for spectrum, tensor in zip(spectra, grown)
    )
    return len(grown) + 2 * len(spectra) + 2 * truncated


# --------------------------------------------------------------------- #
# The environment
# --------------------------------------------------------------------- #
class EnvCTM(BoundaryEnvironment):
    """Corner-transfer-matrix environment of one PEPS.

    Parameters
    ----------
    peps:
        The :class:`~repro.peps.peps.PEPS` state the environment tracks.
    contract_option:
        A :class:`~repro.peps.contraction.options.CTMOption`; its ``chi`` is
        the environment bond the corner projectors truncate to (``None``
        never truncates).

    Every directional move is counted in ``stats.ctm_moves`` (and, for
    cross-implementation comparisons, also in ``stats.row_absorptions``).
    """

    def __init__(self, peps, contract_option: Optional[ContractOption] = None) -> None:
        option = contract_option if contract_option is not None else CTMOption()
        if not isinstance(option, CTMOption):
            raise TypeError(
                f"EnvCTM needs a CTMOption contraction option, "
                f"got {type(option).__name__}"
            )
        super().__init__(peps)
        self.contract_option = option
        self.chi = option.chi
        self.signature = option_signature(option)

    # ------------------------------------------------------------------ #
    # Moves
    # ------------------------------------------------------------------ #
    def _absorbs_exactly(self) -> bool:
        return self.chi is None

    def _absorb(self, boundary, row, from_below: bool = False):
        """One CTM move: exact row absorption plus corner-projector renormalization.

        ``row`` is as in :meth:`BoundaryEnvironment._absorb`.
        """
        kets, bras = self._row_layers(row)
        with _span("ctm_move", row=row if isinstance(row, int) else -1, from_below=from_below):
            grown = absorb_sandwich_row(
                boundary, kets, bras, option=None, backend=self.backend, from_below=from_below
            )
            renormalized, spectra = grown, []
            if not self._absorbs_exactly():
                renormalized, spectra = ctm_renormalize(self.backend, grown, self.chi)
        calls = _move_contractions(self.backend, grown, spectra)
        moves = self._count_move(row, renormalized, calls)
        self.stats.ctm_moves += moves
        _CTM_MOVES.add(moves)
        return renormalized

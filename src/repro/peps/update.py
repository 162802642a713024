"""PEPS operator-application (evolution) algorithms.

Applying a two-site operator to neighbouring PEPS sites requires contracting
the operator with the two site tensors and refactorizing the result with a
truncated bond (Eq. 4 of the paper).  Several algorithms are provided,
selected by option objects in the Koala style:

* :class:`DirectUpdate` — contract everything and ``einsumsvd`` the
  ``d^2 r^6``-sized merged tensor directly (cost ``O(d^3 r^9)``).
* :class:`QRUpdate` — Algorithm 1: QR both site tensors first so the
  ``einsumsvd`` only involves the small R factors (cost ``O(d^2 r^5)``).
* :class:`LocalGramQRUpdate` — QR-SVD where the orthogonalizations use the
  reshape-avoiding Gram-matrix method (Algorithm 5); this is the
  ``local-gram-qr`` variant benchmarked in Fig. 7b.
* :class:`LocalGramQRSVDUpdate` — additionally performs the small
  ``einsumsvd`` on the R factors in process-local memory
  (``local-gram-qr-svd`` in Fig. 7b).

Site tensors use the index order ``(phys, up, left, down, right)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.backends.interface import Backend
from repro.backends.numpy_backend import NumPyBackend
from repro.lattice import Bond
from repro.linalg.orthogonalize import tensor_qr
from repro.tensornetwork.einsumsvd import (
    EinsumSVDOption,
    ExplicitSVD,
    check_truncation,
    einsumsvd,
)

#: Index positions within a PEPS site tensor.
PHYS, UP, LEFT, DOWN, RIGHT = 0, 1, 2, 3, 4


def _resolve_orientation(orientation: Union[str, Bond]) -> str:
    """Resolve the pair orientation from a :class:`Bond` or orientation string.

    A bond must join adjacent sites (``"horizontal"`` or ``"vertical"``);
    next-nearest-neighbor bonds have no shared PEPS bond to update through.
    """
    if isinstance(orientation, Bond):
        if not orientation.is_adjacent:
            raise ValueError(
                f"cannot apply a two-site update through a {orientation.orientation!r} "
                f"bond: sites {orientation.site_a.position} and "
                f"{orientation.site_b.position} do not share a PEPS bond"
            )
        return orientation.orientation
    if orientation not in ("horizontal", "vertical"):
        raise ValueError(f"unknown orientation {orientation!r}")
    return orientation


@dataclass
class UpdateOption:
    """Base class for two-site update options.

    Attributes
    ----------
    rank:
        Maximum bond dimension kept on the updated bond (``None`` = exact),
        refactorized by an explicit truncated SVD.
    """

    rank: Optional[int] = None

    def __post_init__(self) -> None:
        check_truncation("rank", self.rank)

    def resolved_svd_option(self) -> EinsumSVDOption:
        """The ``einsumsvd`` option of the refactorization."""
        return ExplicitSVD(rank=self.rank)


@dataclass
class DirectUpdate(UpdateOption):
    """Contract operator and both sites, then ``einsumsvd`` the merged tensor."""

    kind = "direct"


@dataclass
class QRUpdate(UpdateOption):
    """Algorithm 1 (QR-SVD): reduce both sites by QR before the refactorization.

    The variant is the class, not a field: ``qr_method`` (``"qr"``:
    matricize + QR, ``"gram"``: Algorithm 5) and ``local_einsumsvd`` are
    class constants, so the wire ``kind`` alone restores an option.
    """

    kind = "qr"
    qr_method = "qr"
    local_einsumsvd = False


@dataclass
class LocalGramQRUpdate(QRUpdate):
    """QR-SVD with reshape-avoiding Gram-matrix orthogonalization (ctf-local-gram-qr)."""

    kind = "local_gram_qr"
    qr_method = "gram"


@dataclass
class LocalGramQRSVDUpdate(QRUpdate):
    """Gram-matrix QR plus a process-local einsumsvd of the small R factors
    (ctf-local-gram-qr-svd)."""

    kind = "local_gram_qr_svd"
    qr_method = "gram"
    local_einsumsvd = True


#: Wire ``kind`` -> update option class.
UPDATE_OPTION_KINDS = {
    cls.kind: cls
    for cls in (DirectUpdate, QRUpdate, LocalGramQRUpdate, LocalGramQRSVDUpdate)
}


def apply_single_site_operator(backend: Backend, site, operator):
    """Apply a one-site operator: Eq. (3) of the paper."""
    op = backend.astensor(operator)
    if len(backend.shape(op)) != 2:
        raise ValueError(
            f"single-site operator must be a matrix, got shape {backend.shape(op)}"
        )
    return backend.einsum("ij,juldr->iuldr", op, site)


def apply_two_site_operator(
    backend: Backend,
    site_a,
    site_b,
    operator,
    orientation: Union[str, Bond],
    option: Optional[UpdateOption] = None,
) -> Tuple[object, object]:
    """Apply a two-site operator to neighbouring sites A and B.

    Parameters
    ----------
    backend:
        Tensor backend.
    site_a, site_b:
        Site tensors with index order ``(phys, up, left, down, right)``.
        For ``orientation="horizontal"``, A is the left site; for
        ``"vertical"``, A is the upper site.
    operator:
        4x4 matrix or ``(2, 2, 2, 2)`` tensor ``G[i1, i2, j1, j2]`` with
        outputs before inputs; the first output/input pair belongs to A.
    orientation:
        ``"horizontal"`` or ``"vertical"``, or a :class:`repro.lattice.Bond`
        whose reference site is A (adjacent bonds only).
    option:
        The update algorithm option; defaults to :class:`QRUpdate`.

    Returns
    -------
    (new_site_a, new_site_b)
    """
    option = option if option is not None else QRUpdate()
    orientation = _resolve_orientation(orientation)
    gate = _as_gate_tensor(backend, operator, backend.shape(site_a)[PHYS],
                           backend.shape(site_b)[PHYS])

    if isinstance(option, QRUpdate):
        return _qr_svd_update(backend, site_a, site_b, gate, orientation, option)
    return _direct_update(backend, site_a, site_b, gate, orientation, option)


def _as_gate_tensor(backend: Backend, operator, d_a: int, d_b: int):
    """Normalize a two-site operator to a 4-mode tensor G[i1, i2, j1, j2]."""
    op = backend.astensor(operator)
    shape = backend.shape(op)
    if len(shape) == 2:
        if shape != (d_a * d_b, d_a * d_b):
            raise ValueError(
                f"two-site operator matrix must be {(d_a * d_b, d_a * d_b)}, got {shape}"
            )
        return backend.reshape(op, (d_a, d_b, d_a, d_b))
    if len(shape) == 4:
        if shape != (d_a, d_b, d_a, d_b):
            raise ValueError(
                f"two-site operator tensor must be {(d_a, d_b, d_a, d_b)}, got {shape}"
            )
        return op
    raise ValueError(f"two-site operator must have 2 or 4 modes, got {len(shape)}")


# --------------------------------------------------------------------- #
# Index bookkeeping
#
# The einsumsvd specs below are written for the horizontal orientation; the
# vertical case is obtained by swapping the roles of (up, down) and
# (left, right) legs of both sites, which is a pure transposition.
# --------------------------------------------------------------------- #
_SWAP_UD_LR = (PHYS, LEFT, UP, RIGHT, DOWN)  # exchanges up<->left, down<->right


def _to_horizontal(backend: Backend, tensor, orientation: str):
    if orientation == "horizontal":
        return tensor
    return backend.transpose(tensor, _SWAP_UD_LR)


def _from_horizontal(backend: Backend, tensor, orientation: str):
    if orientation == "horizontal":
        return tensor
    return backend.transpose(tensor, _SWAP_UD_LR)


def _direct_update(backend, site_a, site_b, gate, orientation, option):
    """Merge operator and both sites, refactorize in one einsumsvd."""
    a = _to_horizontal(backend, site_a, orientation)
    b = _to_horizontal(backend, site_b, orientation)
    svd_option = option.resolved_svd_option()
    # a: (j1,u,l,d,k)  b: (j2,v,k,w,r)  gate: (i1,i2,j1,j2)
    new_a, new_b = einsumsvd(
        "xyjg,juldk,gvkwr->xuldz,yvzwr",
        gate,
        a,
        b,
        option=svd_option,
        backend=backend,
        rank=option.rank,
    )
    return (
        _from_horizontal(backend, new_a, orientation),
        _from_horizontal(backend, new_b, orientation),
    )


def _qr_svd_update(backend, site_a, site_b, gate, orientation, option):
    """Algorithm 1: QR both sites, einsumsvd the R factors, recombine."""
    a = _to_horizontal(backend, site_a, orientation)
    b = _to_horizontal(backend, site_b, orientation)
    qr_method = option.qr_method

    # Step (1)->(2): QR with the physical leg and the shared bond grouped
    # into the columns.  A: rows (u,l,d), cols (phys, right-bond);
    # B: rows (v,w,r), cols (phys, left-bond).
    a_perm = backend.transpose(a, (UP, LEFT, DOWN, PHYS, RIGHT))      # (u,l,d,j1,k)
    b_perm = backend.transpose(b, (UP, DOWN, RIGHT, PHYS, LEFT))      # (v,w,r,j2,k)
    q_a, r_a = tensor_qr(backend, a_perm, 3, method=qr_method)        # q_a: (u,l,d,s) r_a: (s,j1,k)
    q_b, r_b = tensor_qr(backend, b_perm, 3, method=qr_method)        # q_b: (v,w,r,t) r_b: (t,j2,k)

    # Step (2)->(4): einsumsvd of {gate, R_A, R_B} over the old bond k.
    svd_option = option.resolved_svd_option()
    if option.local_einsumsvd and backend.name != "numpy":
        # The gate and R factors are small; move them to local memory, do the
        # refactorization sequentially, then return to distributed memory.
        local_backend = NumPyBackend()
        gate_l = backend.to_local(gate)
        ra_l = backend.to_local(r_a)
        rb_l = backend.to_local(r_b)
        new_ra_l, new_rb_l = einsumsvd(
            "xyjg,sjk,tgk->sxz,zty",
            local_backend.astensor(gate_l),
            local_backend.astensor(ra_l),
            local_backend.astensor(rb_l),
            option=svd_option,
            backend=local_backend,
            rank=option.rank,
        )
        new_r_a = backend.from_local(local_backend.asarray(new_ra_l))
        new_r_b = backend.from_local(local_backend.asarray(new_rb_l))
    else:
        new_r_a, new_r_b = einsumsvd(
            "xyjg,sjk,tgk->sxz,zty",
            gate,
            r_a,
            r_b,
            option=svd_option,
            backend=backend,
            rank=option.rank,
        )

    # Step (4)->(5): recombine with the isometries.
    new_a = backend.einsum("ulds,sxz->xuldz", q_a, new_r_a)
    new_b = backend.einsum("vwrt,zty->yvzwr", q_b, new_r_b)
    return (
        _from_horizontal(backend, new_a, orientation),
        _from_horizontal(backend, new_b, orientation),
    )

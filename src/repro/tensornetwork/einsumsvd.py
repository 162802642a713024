"""The ``einsumsvd`` primitive: contract a tensor network and refactorize it.

``einsumsvd`` takes a set of tensors and a two-output subscript such as
``"ijkl,klmn->ijx,xmn"`` and produces two tensors joined by the new bond
``x``, truncated to a requested rank.  It encapsulates the most expensive
operation of PEPS evolution (two-site operator application) and PEPS
contraction (boundary-MPS truncation).

Two implementations are provided, selectable through option objects in the
style of the Koala API:

* :class:`ExplicitSVD` — contract the network into a single tensor,
  matricize, truncated SVD (the textbook approach).
* :class:`ImplicitRandomizedSVD` — never materialize the contracted tensor;
  run the randomized SVD of Algorithm 4 with the network applied implicitly
  (:class:`~repro.linalg.implicit_op.TensorNetworkOperator`).  Using this
  option inside BMPS yields the paper's IBMPS algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from numbers import Integral
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import get_backend
from repro.backends.interface import Backend
from repro.tensornetwork.einsum_spec import EinsumSVDSpec, parse_einsumsvd, symbols
from repro.utils.checks import nonnegative_int
from repro.utils.rng import SeedLike

# NOTE: the repro.linalg imports are deferred into the implementation
# functions below.  repro.linalg depends on repro.tensornetwork.einsum_spec,
# so importing it eagerly here would create a circular package import.


#: Orthogonalization methods of the randomized SVD (see
#: :func:`~repro.linalg.orthogonalize.tensor_qr`).
ORTH_METHODS = ("qr", "gram", "auto")


def check_truncation(name: str, bound) -> None:
    """The one rule for an option's truncation bound (its ``rank`` or
    ``chi``): a positive int or None."""
    if bound is not None and not (
        isinstance(bound, Integral) and not isinstance(bound, bool) and bound >= 1
    ):
        raise ValueError(f"{name} must be positive (an int, or None), got {bound!r}")


@dataclass
class EinsumSVDOption:
    """Base class for ``einsumsvd`` algorithm options.

    Attributes
    ----------
    rank:
        Maximum bond dimension of the new bond, at least 1 (``None`` keeps
        everything).  The singular values are split evenly, as a square
        root on each factor (the PEPS convention).

    Every concrete option class carries its wire ``kind`` — the name spec
    files and checkpoints know it by.  The dataclass is the option's whole
    description: :mod:`repro.sim.io` serializes exactly its fields, so a new
    field (with its default) is added here and nowhere else.
    """

    rank: Optional[int] = None

    def __post_init__(self) -> None:
        check_truncation("rank", self.rank)


@dataclass
class ExplicitSVD(EinsumSVDOption):
    """Contract-then-SVD implementation (the baseline used by plain BMPS)."""

    kind = "explicit"


@dataclass
class ImplicitRandomizedSVD(EinsumSVDOption):
    """Implicit randomized-SVD implementation (Algorithm 4 → IBMPS).

    Algorithm 4 runs only where it saves work: when the sketch
    (``rank`` plus ``oversample`` columns, see
    :func:`~repro.linalg.randomized_svd.sketch_size`) is narrower than
    ``min(rows, cols)`` of the operator.  A call whose sketch covers that
    short side — every call with ``rank=None`` — contracts the network once
    and factors it with the same truncated SVD as :class:`ExplicitSVD`
    (``rank`` applies as given; ``niter``,
    ``oversample``, ``orth_method`` and ``seed`` play no part).

    Attributes
    ----------
    niter:
        Number of power-iteration rounds.
    oversample:
        Extra sketch columns (discarded after the final SVD).
    orth_method:
        ``"qr"``, ``"gram"`` (Algorithm 5) or ``"auto"``.
    seed:
        Seed/generator for the random probe; fix it for reproducible runs.
        An int seed starts a fresh generator on every call, so a call that
        draws no probe leaves every other call's draws as they were; a
        shared ``Generator`` is advanced only by the calls that draw one, so
        whether earlier calls covered their short side shifts later draws.
    """

    kind = "implicit"
    niter: int = 1
    oversample: int = 2
    orth_method: str = "auto"
    seed: SeedLike = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.niter = nonnegative_int(self.niter, "niter")
        self.oversample = nonnegative_int(self.oversample, "oversample")
        if self.orth_method not in ORTH_METHODS:
            raise ValueError(
                f"orth_method must be one of {ORTH_METHODS}, got {self.orth_method!r}"
            )


#: Wire ``kind`` -> einsumsvd option class.
SVD_OPTION_KINDS = {cls.kind: cls for cls in (ExplicitSVD, ImplicitRandomizedSVD)}


@lru_cache(maxsize=64)
def _scale_spec(ndim: int, bond_first: bool) -> str:
    """Subscripts scaling the bond mode (first or last of ``ndim``) by a vector."""
    labels = "".join(symbols(ndim))
    bond = labels[0] if bond_first else labels[-1]
    return f"{labels},{bond}->{labels}"


def _absorb_spectrum(backend: Backend, u, s, vh):
    """Split the singular values evenly onto the factors, a square root on
    each; ``u`` has the bond as its last mode, ``vh`` as its first."""
    root = np.sqrt(np.asarray(s, dtype=float))
    spec = _scale_spec(len(backend.shape(u)), bond_first=False)
    u = backend.einsum(spec, u, backend.from_local(root))
    spec = _scale_spec(len(backend.shape(vh)), bond_first=True)
    vh = backend.einsum(spec, vh, backend.from_local(root))
    return u, vh


class _Layout(NamedTuple):
    """Everything an ``einsumsvd`` call derives from its subscripts and
    operand shapes (see :func:`_layout`)."""

    spec: EinsumSVDSpec
    #: single-output subscripts contracting the network to ``free_a + free_b``
    contract: str
    #: the operator's row and column dims, and its matrix shape
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    matrix: Tuple[int, int]
    #: transposes from ``free_a + bond`` / ``bond + free_b`` to the two
    #: outputs' label orders (``None``: already in order)
    perm_a: Optional[Tuple[int, ...]]
    perm_b: Optional[Tuple[int, ...]]


def _permutation(current: Sequence[str], target: Sequence[str]) -> Optional[Tuple[int, ...]]:
    """The transpose taking label order ``current`` to ``target`` (``None``
    when they agree)."""
    if tuple(current) == tuple(target):
        return None
    return tuple(current.index(label) for label in target)


@lru_cache(maxsize=1024)
def _layout(
    subscripts: Union[str, EinsumSVDSpec], shapes: Tuple[Tuple[int, ...], ...]
) -> _Layout:
    """The :class:`_Layout` of ``subscripts`` over operands of ``shapes``:
    parsed, validated and derived once per signature, like the planner's plans."""
    spec = subscripts if isinstance(subscripts, EinsumSVDSpec) else parse_einsumsvd(
        subscripts, n_operands=len(shapes)
    )
    contract_spec = spec.contract_spec
    dims = contract_spec.index_dimensions(shapes)
    rows = tuple(dims[label] for label in spec.free_a)
    cols = tuple(dims[label] for label in spec.free_b)
    bond = (spec.bond_label,)
    return _Layout(
        spec=spec,
        contract=contract_spec.subscripts,
        rows=rows,
        cols=cols,
        matrix=(prod(rows), prod(cols)),
        perm_a=_permutation(spec.free_a + bond, spec.output_a),
        perm_b=_permutation(bond + spec.free_b, spec.output_b),
    )


def _to_outputs(backend: Backend, layout: _Layout, u, vh):
    """Transpose the factors (bond last on ``u``, first on ``vh``) to the
    label orders of the two outputs."""
    if layout.perm_a is not None:
        u = backend.transpose(u, layout.perm_a)
    if layout.perm_b is not None:
        vh = backend.transpose(vh, layout.perm_b)
    return u, vh


def einsumsvd(
    subscripts: Union[str, EinsumSVDSpec],
    *operands,
    option: Optional[EinsumSVDOption] = None,
    backend: Union[str, Backend, None] = None,
    rank: Optional[int] = None,
    return_spectrum: bool = False,
):
    """Contract a tensor network and refactorize it into two tensors.

    Parameters
    ----------
    subscripts:
        Two-output einsum subscripts, e.g. ``"abcd,cdef->abk,kef"``; the new
        bond label (here ``k``) must appear in both outputs and in no input.
    operands:
        The network tensors.
    option:
        An :class:`ExplicitSVD` (default) or :class:`ImplicitRandomizedSVD`.
        The latter runs Algorithm 4 only when its sketch is narrower than
        the contracted operator's short side; otherwise the call is the
        explicit one (an exact SVD either way).
    backend:
        Backend name or instance; defaults to NumPy.
    rank:
        Overrides ``option.rank`` when given.
    return_spectrum:
        Also return the retained singular values as a NumPy vector.

    Returns
    -------
    (A, B) or (A, B, s):
        Backend tensors whose index orders match the two output terms of
        ``subscripts``.
    """
    backend = get_backend(backend)
    option = option if option is not None else ExplicitSVD()
    if rank is None:
        rank = option.rank
    layout = _layout(subscripts, tuple(backend.shape(op) for op in operands))
    if isinstance(option, ImplicitRandomizedSVD) and _sketch_is_narrow(layout, option, rank):
        a, b, s = _einsumsvd_implicit(backend, layout, operands, option, rank)
    else:
        a, b, s = _einsumsvd_explicit(backend, layout, operands, option, rank)
    if return_spectrum:
        return a, b, s
    return a, b


def _sketch_is_narrow(layout: _Layout, option: ImplicitRandomizedSVD, rank: Optional[int]) -> bool:
    """Whether Algorithm 4's sketch misses part of the operator's short side.

    Otherwise the range finder would capture the whole range: Algorithm 4
    would reach the explicit call's exact SVD only after its probe products,
    QRs and sketch SVD.
    """
    from repro.linalg.randomized_svd import sketch_size

    short = min(layout.matrix)
    return rank is not None and sketch_size(rank, option.oversample, short) != short


def _einsumsvd_explicit(
    backend: Backend,
    layout: _Layout,
    operands: Sequence,
    option: EinsumSVDOption,
    rank: Optional[int],
):
    """Contract the full network, matricize and run a truncated SVD."""
    from repro.linalg.truncated_svd import truncated_svd

    # Unbound, the contracted tensor is freed as soon as a reshape that must
    # copy has copied it, before the SVD copies the matrix again.
    matrix = backend.reshape(backend.einsum(layout.contract, *operands), layout.matrix)
    result = truncated_svd(backend, matrix, rank=rank)
    u, vh = _absorb_spectrum(backend, result.u, result.s, result.vh)
    k = result.rank
    u = backend.reshape(u, layout.rows + (k,))
    vh = backend.reshape(vh, (k,) + layout.cols)
    a, b = _to_outputs(backend, layout, u, vh)
    return a, b, result.s


def _einsumsvd_implicit(
    backend: Backend,
    layout: _Layout,
    operands: Sequence,
    option: ImplicitRandomizedSVD,
    rank: int,
):
    """Randomized SVD with the network applied implicitly (Algorithm 4)."""
    from repro.linalg.implicit_op import TensorNetworkOperator
    from repro.linalg.randomized_svd import randomized_svd

    operator = TensorNetworkOperator(backend, layout.spec, operands)
    result = randomized_svd(
        backend,
        operator,
        rank=rank,
        niter=option.niter,
        oversample=option.oversample,
        orth_method=option.orth_method,
        rng=option.seed,
    )
    u, vh = _absorb_spectrum(backend, result.u, result.s, result.vh)
    a, b = _to_outputs(backend, layout, u, vh)
    return a, b, result.s

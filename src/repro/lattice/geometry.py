"""First-class lattice geometry: sites, bonds, and lattice classes.

Every layer that used to hard-code the square lattice — Hamiltonian term
construction, Trotter gate scheduling, PEPS pair-update orientation, the
``RunSpec`` config — now consults one :class:`Lattice` object instead.  A
lattice knows its sites, its bonds (with orientation, neighbor kind and
sublattice tags), per-bond coupling scales, and a bond *partition* (coloring)
that gate schedulers sweep color by color.

Canonical bond order
--------------------
``SquareLattice.bonds("nn")`` iterates row-major, horizontal before vertical
at each site — exactly the order the old open-coded double loops produced —
and ``bonds("nnn")`` matches the old diagonal enumeration.  Hamiltonian terms,
Trotter gates and RNG streams all follow bond order, so preserving it keeps
pre-existing square-lattice runs bitwise identical.

New geometries register under a ``kind`` string
(:func:`register_lattice`) and are built from plain config dicts by
:func:`lattice_from_config`, so they land in ``RunSpec`` files as data::

    {"lattice": {"kind": "checkerboard", "shape": [4, 4],
                 "couplings": {"a": 1.0, "b": 0.5}}}
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.utils.text import did_you_mean

#: Bond orientations (the plane directions a two-site term can take).
ORIENTATIONS = ("horizontal", "vertical", "diagonal", "antidiagonal")

#: Neighbor kinds understood by :meth:`Lattice.bonds`.
BOND_KINDS = ("nn", "nnn")


@dataclass(frozen=True, order=True)
class Site:
    """One lattice site at ``(row, col)``.

    ``sublattice`` is a small integer tag (e.g. the checkerboard color);
    plain square lattices tag every site ``0``.
    """

    row: int
    col: int
    sublattice: int = 0

    def index(self, ncol: int) -> int:
        """Flat row-major index on a lattice with ``ncol`` columns."""
        return self.row * ncol + self.col

    @property
    def position(self) -> Tuple[int, int]:
        return (self.row, self.col)


@dataclass(frozen=True)
class Bond:
    """A directed pair of sites with orientation and tags.

    ``site_a`` is the reference site (left of a horizontal bond, above a
    vertical/diagonal one); ``orientation`` is one of :data:`ORIENTATIONS`;
    ``kind`` is the neighbor class (``"nn"`` nearest, ``"nnn"`` diagonal
    next-nearest); ``sublattice`` is the bond color used by partitioned gate
    schedules; ``scale`` is the per-bond coupling multiplier the lattice
    assigns (anisotropy, sublattice modulation — 1.0 for uniform lattices).
    """

    site_a: Site
    site_b: Site
    orientation: str
    kind: str = "nn"
    sublattice: int = 0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.orientation not in ORIENTATIONS:
            raise ValueError(
                f"unknown bond orientation {self.orientation!r}; "
                f"known: {list(ORIENTATIONS)}"
            )

    def sites(self) -> Tuple[Site, Site]:
        return (self.site_a, self.site_b)

    def indices(self, ncol: int) -> Tuple[int, int]:
        """Flat row-major indices of both endpoints."""
        return (self.site_a.index(ncol), self.site_b.index(ncol))

    @property
    def is_adjacent(self) -> bool:
        """Whether the endpoints are horizontal/vertical lattice neighbors."""
        return self.orientation in ("horizontal", "vertical")


@lru_cache(maxsize=4096)
def bond_between(pos_a: Tuple[int, int], pos_b: Tuple[int, int]) -> Tuple[Bond, bool]:
    """The nearest-neighbor :class:`Bond` through two adjacent positions.

    Returns ``(bond, swapped)`` where ``bond.site_a`` is the canonical
    reference site (left/upper) and ``swapped`` tells whether the caller's
    ``pos_a`` ended up as ``bond.site_b``.  This is the orientation
    resolution the PEPS pair update uses instead of a private axis table;
    memoised, as every pair update of a run asks it about the same few
    positions (the frozen :class:`Bond` is shared).
    """
    (ra, ca), (rb, cb) = pos_a, pos_b
    if ra == rb and abs(ca - cb) == 1:
        orientation = "horizontal"
        swapped = cb < ca
    elif ca == cb and abs(ra - rb) == 1:
        orientation = "vertical"
        swapped = rb < ra
    else:
        raise ValueError(f"sites {pos_a} and {pos_b} are not adjacent")
    first, second = (pos_b, pos_a) if swapped else (pos_a, pos_b)
    bond = Bond(Site(*first), Site(*second), orientation)
    return bond, swapped


class Lattice:
    """Base class for 2D lattice geometries on an ``nrow x ncol`` grid.

    Subclasses override :meth:`sublattice_of` (site coloring),
    :meth:`bond_tags` (bond coloring and coupling scale) and — when their
    gate schedule differs from the canonical row-major sweep —
    :meth:`bond_partition`.

    The base class implements the canonical open-boundary square-grid
    enumeration every consumer shares; geometry variants only re-tag and
    re-scale, which is what keeps uniform variants numerically identical to
    the plain square lattice.
    """

    kind = "square"

    def __init__(self, nrow: int, ncol: int) -> None:
        self.nrow = int(nrow)
        self.ncol = int(ncol)
        if self.nrow < 1 or self.ncol < 1:
            raise ValueError(
                f"lattice dimensions must be positive, got {self.nrow}x{self.ncol}"
            )

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrow, self.ncol)

    @property
    def n_sites(self) -> int:
        return self.nrow * self.ncol

    def site_position(self, index: int) -> Tuple[int, int]:
        """``(row, col)`` of a flat row-major site index."""
        if not (0 <= index < self.n_sites):
            raise ValueError(f"site {index} outside a {self.nrow}x{self.ncol} lattice")
        return divmod(int(index), self.ncol)

    def site(self, row: int, col: int) -> Site:
        return Site(row, col, self.sublattice_of(row, col))

    def sites(self) -> Iterator[Site]:
        """All sites in row-major order."""
        for r in range(self.nrow):
            for c in range(self.ncol):
                yield self.site(r, c)

    # ------------------------------------------------------------------ #
    # Tagging hooks
    # ------------------------------------------------------------------ #
    def sublattice_of(self, row: int, col: int) -> int:
        """The sublattice tag of site ``(row, col)`` (0 on a plain square)."""
        return 0

    def bond_tags(self, site_a: Site, site_b: Site, orientation: str, kind: str
                  ) -> Tuple[int, float]:
        """``(sublattice, scale)`` tags of the bond through two sites."""
        return 0, 1.0

    # ------------------------------------------------------------------ #
    # Bond enumeration
    # ------------------------------------------------------------------ #
    def _bond(self, pos_a: Tuple[int, int], pos_b: Tuple[int, int],
              orientation: str, kind: str) -> Bond:
        site_a = self.site(*pos_a)
        site_b = self.site(*pos_b)
        color, scale = self.bond_tags(site_a, site_b, orientation, kind)
        return Bond(site_a, site_b, orientation, kind, color, scale)

    def bonds(self, kind: str = "nn") -> Iterator[Bond]:
        """Bonds of one neighbor class, in the canonical order.

        ``"nn"`` yields row-major horizontal-then-vertical nearest-neighbor
        bonds; ``"nnn"`` yields the diagonal/antidiagonal pairs.  Both orders
        match the historical open-coded loops exactly.
        """
        if kind == "nn":
            for r in range(self.nrow):
                for c in range(self.ncol):
                    if c + 1 < self.ncol:
                        yield self._bond((r, c), (r, c + 1), "horizontal", "nn")
                    if r + 1 < self.nrow:
                        yield self._bond((r, c), (r + 1, c), "vertical", "nn")
        elif kind == "nnn":
            for r in range(self.nrow - 1):
                for c in range(self.ncol):
                    if c + 1 < self.ncol:
                        yield self._bond((r, c), (r + 1, c + 1), "diagonal", "nnn")
                    if c - 1 >= 0:
                        yield self._bond((r, c), (r + 1, c - 1), "antidiagonal", "nnn")
        else:
            raise ValueError(f"unknown bond kind {kind!r}; known: {list(BOND_KINDS)}")

    def bond_partition(self, kind: str = "nn") -> List[List[Bond]]:
        """Bond groups (colors) a gate schedule sweeps one after the other.

        Concatenating the groups must reproduce :meth:`bonds` order for
        single-color lattices, so square-lattice Trotter schedules — and with
        them every RNG stream — stay bitwise identical to the pre-lattice
        code.  Multi-sublattice geometries group bonds by color.
        """
        groups: Dict[int, List[Bond]] = {}
        for bond in self.bonds(kind):
            groups.setdefault(bond.sublattice, []).append(bond)
        return [groups[color] for color in sorted(groups)]

    # ------------------------------------------------------------------ #
    # Config round trip
    # ------------------------------------------------------------------ #
    def to_config(self) -> Dict[str, Any]:
        return {"kind": self.kind, "shape": [self.nrow, self.ncol]}

    @classmethod
    def from_config(cls, config: Dict[str, Any]) -> "Lattice":
        config = dict(config)
        shape = config.pop("shape", None)
        if shape is None:
            raise ValueError(f'lattice config for kind {cls.kind!r} needs a "shape"')
        if config:
            raise ValueError(
                f"unknown lattice config keys {sorted(config)} for kind {cls.kind!r}"
            )
        return cls(int(shape[0]), int(shape[1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.to_config() == other.to_config()

    def __hash__(self) -> int:
        import json

        return hash(json.dumps(self.to_config(), sort_keys=True))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.nrow}x{self.ncol})"


class SquareLattice(Lattice):
    """The open-boundary square lattice, with optional per-direction couplings.

    ``couplings`` scales two-site terms by orientation, e.g.
    ``{"horizontal": 1.0, "vertical": 0.5}`` builds a spatially anisotropic
    model; omitted orientations default to 1.0.  Diagonal (``"diagonal"`` /
    ``"antidiagonal"``) entries scale next-nearest-neighbor terms.
    """

    kind = "square"

    def __init__(
        self,
        nrow: int,
        ncol: int,
        couplings: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(nrow, ncol)
        couplings = dict(couplings or {})
        unknown = set(couplings) - set(ORIENTATIONS)
        if unknown:
            raise ValueError(
                f"unknown coupling directions {sorted(unknown)}; "
                f"known: {list(ORIENTATIONS)}"
            )
        self.couplings = {k: float(v) for k, v in couplings.items()}

    def bond_tags(self, site_a: Site, site_b: Site, orientation: str, kind: str
                  ) -> Tuple[int, float]:
        return 0, self.couplings.get(orientation, 1.0)

    def to_config(self) -> Dict[str, Any]:
        config = super().to_config()
        if self.couplings:
            config["couplings"] = dict(self.couplings)
        return config

    @classmethod
    def from_config(cls, config: Dict[str, Any]) -> "SquareLattice":
        config = dict(config)
        shape = config.pop("shape", None)
        if shape is None:
            raise ValueError('lattice config for kind "square" needs a "shape"')
        couplings = config.pop("couplings", None)
        if config:
            raise ValueError(
                f"unknown lattice config keys {sorted(config)} for kind 'square'"
            )
        return cls(int(shape[0]), int(shape[1]), couplings=couplings)


class CheckerboardLattice(Lattice):
    """A square grid two-colored in a checkerboard pattern.

    Sites split into sublattices ``(row + col) % 2``; every nearest-neighbor
    bond inherits the color of its reference site, partitioning the bonds
    into two groups that gate schedules sweep one after the other (the
    two-site unit cell of the yastn ``CheckerboardLattice``).  ``couplings``
    scales bonds per color: ``{"a": 1.0, "b": 0.5}`` modulates the two bond
    groups — with equal values the model is numerically the uniform square
    model, just scheduled in checkerboard order.
    """

    kind = "checkerboard"

    def __init__(
        self,
        nrow: int,
        ncol: int,
        couplings: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(nrow, ncol)
        couplings = dict(couplings or {})
        unknown = set(couplings) - {"a", "b"}
        if unknown:
            raise ValueError(
                f"unknown checkerboard couplings {sorted(unknown)}; known: ['a', 'b']"
            )
        self.couplings = {k: float(v) for k, v in couplings.items()}

    def sublattice_of(self, row: int, col: int) -> int:
        return (row + col) % 2

    def bond_tags(self, site_a: Site, site_b: Site, orientation: str, kind: str
                  ) -> Tuple[int, float]:
        color = site_a.sublattice
        scale = self.couplings.get("ab"[color], 1.0)
        return color, scale

    def to_config(self) -> Dict[str, Any]:
        config = super().to_config()
        if self.couplings:
            config["couplings"] = dict(self.couplings)
        return config

    @classmethod
    def from_config(cls, config: Dict[str, Any]) -> "CheckerboardLattice":
        config = dict(config)
        shape = config.pop("shape", None)
        if shape is None:
            raise ValueError('lattice config for kind "checkerboard" needs a "shape"')
        couplings = config.pop("couplings", None)
        if config:
            raise ValueError(
                f"unknown lattice config keys {sorted(config)} for kind 'checkerboard'"
            )
        return cls(int(shape[0]), int(shape[1]), couplings=couplings)


# --------------------------------------------------------------------- #
# Registry and config parsing
# --------------------------------------------------------------------- #
#: Registered lattice kinds (config ``kind`` -> class).
LATTICE_KINDS: Dict[str, type] = {}


def register_lattice(kind: str):
    """Register a :class:`Lattice` subclass under a config ``kind`` string."""

    def _register(cls: type) -> type:
        cls.kind = kind
        LATTICE_KINDS[kind] = cls
        return cls

    return _register


register_lattice("square")(SquareLattice)
register_lattice("checkerboard")(CheckerboardLattice)


LatticeLike = Union["Lattice", Dict[str, Any], Sequence[int]]


def as_lattice(lattice: LatticeLike, ncol: Optional[int] = None) -> Lattice:
    """Coerce any accepted lattice description into a :class:`Lattice`.

    Accepts a :class:`Lattice` (returned as-is), a config dict
    (:func:`lattice_from_config`), a ``(nrow, ncol)`` pair, or the legacy
    two-positional-int form ``as_lattice(nrow, ncol)``.
    """
    if isinstance(lattice, Lattice):
        if ncol is not None:
            raise TypeError("ncol must be omitted when passing a Lattice")
        return lattice
    if isinstance(lattice, dict):
        if ncol is not None:
            raise TypeError("ncol must be omitted when passing a lattice config")
        return lattice_from_config(lattice)
    if ncol is not None:
        return SquareLattice(int(lattice), int(ncol))
    nrow, ncols = lattice
    return SquareLattice(int(nrow), int(ncols))


def lattice_from_config(config: Union[Dict[str, Any], Sequence[int]]) -> Lattice:
    """Build a lattice from a ``RunSpec``-style config.

    A bare ``[nrow, ncol]`` sequence still parses as the uniform square
    lattice (the historical spec form); a dict selects a registered kind::

        lattice_from_config([4, 4])
        lattice_from_config({"kind": "checkerboard", "shape": [4, 4]})
    """
    if not isinstance(config, dict):
        nrow, ncol = config
        return SquareLattice(int(nrow), int(ncol))
    config = dict(config)
    kind = config.pop("kind", "square")
    cls = LATTICE_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown lattice kind {kind!r}; registered: {sorted(LATTICE_KINDS)}"
            f"{did_you_mean(kind, LATTICE_KINDS)}"
        )
    return cls.from_config(config)

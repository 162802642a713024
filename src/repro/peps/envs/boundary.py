"""Boundary-MPS environments with incremental dirty-row invalidation.

An environment owns the cached contraction state of a single PEPS and
exposes every operation that benefits from that cache: ``norm`` /
``norm_sq``, ``expectation`` of a sum of local terms with one shared pair
of boundary sweeps, batched ``measure_1site`` / ``measure_2site``, and
basis-state ``sample``.  :class:`BoundaryEnvironment`'s public methods are
that protocol; :class:`~repro.peps.envs.ctm.EnvCTM` implements it by
overriding the boundary move alone.

:class:`BoundaryEnvironment` caches the upper and lower boundary MPS lists of
the ``<psi|psi>`` sandwich — or, given a ``bra`` state, of the cross sandwich
``<bra|psi>``, which serves only its norm (the overlap) — keyed by row:

* ``upper[i]`` has absorbed rows ``0..i-1`` from the top (``i = 0..nrow``),
* ``lower[i]`` has absorbed rows ``i+1..nrow-1`` from below (``i = 0..nrow-1``).

Both are built lazily and *incrementally*: touching row ``r`` (via
:meth:`~BoundaryEnvironment.invalidate`) stales only ``upper[i]`` for
``i > r`` and ``lower[i]`` for ``i < r``, so a subsequent query recomputes
just the invalidated sweep segments; :class:`~repro.peps.peps.PEPS` calls
``invalidate`` from its operator-application paths when an environment is
attached via :meth:`~repro.peps.peps.PEPS.attach_environment`.  Exact
environments close the norm at the cheapest valid upper/lower pair (all
closures are the same scalar); truncated environments always close the full
top sweep, so the norm stays a deterministic function of (state, option) —
bit-identical with the seed's ``EnvironmentCache`` — independent of cache
history.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.peps.contraction.options import ContractOption, CTMOption, Exact
from repro.peps.contraction.two_layer import (
    absorb_sandwich_row,
    absorption_option,
    check_edge_legs,
    close_boundaries,
    trivial_boundary,
)
from repro.peps.envs.sampling import sample_bitstrings
from repro.peps.envs.strip import SITE_DENSITY, TRANSFER_LEFT, TRANSFER_RIGHT, StripCache
from repro.telemetry.metrics import REGISTRY

#: Process-wide totals of the per-environment ``EnvStats`` fields of the same
#: names: lockstep ``einsum_batched`` calls, and observable terms served from
#: (hit) or forcing a build of (miss) a strip's cached column environments.
_BATCHED_CONTRACTIONS = REGISTRY.counter("peps.batched_contractions")
_STRIP_CACHE_HITS = REGISTRY.counter("peps.strip_cache_hits")
_STRIP_CACHE_MISSES = REGISTRY.counter("peps.strip_cache_misses")


@dataclasses.dataclass
class EnvStats:
    """Counters describing the work an environment has performed.

    ``row_absorptions`` is the load-bearing one: each unit is one boundary-MPS
    row absorption (the dominant cost of every PEPS contraction), so it
    measures how much recomputation the incremental invalidation saved.
    ``ctm_moves`` counts the corner-transfer-matrix moves of
    :class:`~repro.peps.envs.ctm.EnvCTM` (each move also counts as one row
    absorption, keeping the shared counter comparable across environments).

    The batched-engine counters: ``batched_contractions`` is the number of
    lockstep ``einsum_batched`` calls issued by the multi-shot sampler (each
    replaces up to ``nshots`` serial einsums), ``uniform_fallbacks`` counts
    site draws whose truncated weight vanished and fell back to the uniform
    distribution, and ``strip_cache_hits`` / ``strip_cache_misses`` count
    observable terms served from (resp. forcing a build of) cached column
    environments of a row strip.

    Per-object and independent of the process-global ``peps.*`` counters in
    :data:`repro.telemetry.REGISTRY`, which total the same events over every
    environment.
    """

    row_absorptions: int = 0
    strip_contractions: int = 0
    invalidations: int = 0
    norm_evaluations: int = 0
    ctm_moves: int = 0
    batched_contractions: int = 0
    uniform_fallbacks: int = 0
    strip_cache_hits: int = 0
    strip_cache_misses: int = 0

    def reset(self) -> None:
        self.__init__()

    def as_dict(self) -> Dict[str, int]:
        """All counters as a plain ``{field: value}`` dict."""
        return dataclasses.asdict(self)


def local_terms(observable) -> List[Tuple[Tuple[int, ...], np.ndarray]]:
    """Local terms as ``(sites, matrix)`` pairs for every supported operator type.

    Accepts an :class:`~repro.operators.observable.Observable`, a
    :class:`~repro.operators.hamiltonians.Hamiltonian`, or an explicit
    iterable of ``(sites, matrix)`` pairs.
    """
    from repro.operators.hamiltonians import Hamiltonian
    from repro.operators.observable import Observable

    if isinstance(observable, Observable):
        return observable.local_terms()
    if isinstance(observable, Hamiltonian):
        return [(term.sites, term.matrix) for term in observable.terms]
    if isinstance(observable, (list, tuple)):
        return [(tuple(sites), np.asarray(matrix)) for sites, matrix in observable]
    raise TypeError(f"unsupported observable type {type(observable)!r}")


def option_signature(option) -> Tuple:
    """Hashable signature of the truncation behaviour an option implies.

    Two options with equal signatures produce identical boundary environments,
    so an attached environment can be reused for either.  The signature is the
    option's class plus every dataclass field; a non-CTM option signs as the
    ``einsumsvd`` option it absorbs rows with
    (:func:`~repro.peps.contraction.two_layer.absorption_option`), and an
    exact one as :class:`Exact`.
    """
    if not isinstance(option, CTMOption):
        svd_option = absorption_option(option)
        option = Exact() if svd_option is None else svd_option
    return (type(option).__name__,) + tuple(
        getattr(option, field.name) for field in dataclasses.fields(option)
    )


class BoundaryEnvironment:
    """Cached upper/lower boundary environments of one PEPS, incrementally updated.

    Parameters
    ----------
    peps:
        The :class:`~repro.peps.peps.PEPS` state the environment tracks.
    contract_option:
        ``None`` or :class:`~repro.peps.contraction.options.Exact` absorbs
        rows exactly (bond dimensions multiply — small lattices only); a
        :class:`~repro.peps.contraction.options.BMPS` truncates every zip-up
        with its ``einsumsvd`` option, whose ``rank`` is the boundary bond
        ``m`` — an explicit SVD gives the classic boundary MPS, an implicit
        randomized SVD the paper's IBMPS.
    bra:
        The state whose conjugate forms the bra layer (default: ``peps``).
        A cross environment ``<bra|peps>`` is a one-shot overlap query: it
        serves ``norm_sq`` (the overlap) and ``norm`` only, cannot be
        attached to a state, and is not invalidated when ``bra`` changes.
    """

    def __init__(
        self, peps, contract_option: Optional[ContractOption] = None, *, bra=None
    ) -> None:
        if bra is not None and bra.shape != peps.shape:
            raise ValueError(f"shape mismatch: {bra.shape} vs {peps.shape}")
        self.peps = peps
        self.bra = peps if bra is None else bra
        #: The contraction option this environment serves (and serializes as).
        self.contract_option = Exact() if contract_option is None else contract_option
        self.svd_option = absorption_option(self.contract_option)
        self.signature = option_signature(self.contract_option)
        self.stats = EnvStats()
        nrow = peps.nrow
        backend = peps.backend
        self._upper: List = [trivial_boundary(backend, peps.ncol)] + [None] * nrow
        self._lower: List = [None] * (nrow - 1) + [trivial_boundary(backend, peps.ncol)]
        self._upper_valid = 0          # upper[0..k] are valid
        self._lower_valid = nrow - 1   # lower[k..nrow-1] are valid
        self._norm_sq: Optional[complex] = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.peps!r}, {self.contract_option.describe()})"

    # ------------------------------------------------------------------ #
    # Cache lifecycle
    # ------------------------------------------------------------------ #
    @property
    def backend(self):
        return self.peps.backend

    @property
    def nrow(self) -> int:
        return self.peps.nrow

    @property
    def ncol(self) -> int:
        return self.peps.ncol

    def accepts(self, contract_option: Optional[ContractOption]) -> bool:
        """Whether a caller's contraction option can be served by this environment.

        ``None`` means "no preference" and is always accepted: once an
        environment is attached, it governs the state's default contraction
        behaviour (a truncated environment makes default queries truncated).
        Pass an explicit option with another signature to override.
        """
        if contract_option is None:
            return True
        try:
            return option_signature(contract_option) == self.signature
        except TypeError:
            return False

    def invalidate(self, rows: Optional[Iterable[int]] = None) -> None:
        """Mark the given lattice rows (default: all) as stale.

        Cached boundaries that absorbed a stale row are recomputed on the next
        query; everything else is reused.
        """
        if rows is None:
            self.stats.invalidations += 1
            self._upper_valid = 0
            self._lower_valid = self.nrow - 1
            self._norm_sq = None
            return
        rows = [int(r) for r in rows]
        if not rows:
            # Nothing went stale: no-op operator paths (e.g. an empty gate
            # batch) must keep the cache — including _norm_sq — warm.
            return
        self.stats.invalidations += 1
        for r in rows:
            if not (0 <= r < self.nrow):
                raise ValueError(f"row {r} outside a lattice with {self.nrow} rows")
            self._upper_valid = min(self._upper_valid, r)
            self._lower_valid = max(self._lower_valid, r)
        self._norm_sq = None

    def build(self) -> "BoundaryEnvironment":
        """Eagerly compute every cached boundary (queries build lazily otherwise)."""
        self.ensure_upper(self.nrow)
        self.ensure_lower(0)
        return self

    def _absorb(self, boundary, row, from_below: bool = False):
        """The environment's one boundary move: absorb ``row`` with its truncation.

        ``row`` is a lattice row index, whose ``<bra|psi>`` sandwich row
        grows a cached boundary, or — from the perfect sampler — a row of
        basis-projected sites that is its own bra, whose tensors and
        ``boundary`` carry a leading shot axis.
        """
        kets, bras = self._row_layers(row)
        grown = absorb_sandwich_row(
            boundary, kets, bras, option=self.svd_option, backend=self.backend,
            from_below=from_below,
        )
        self._count_move(row, grown, len(grown) if self._absorbs_exactly() else 0)
        return grown

    def _row_layers(self, row) -> Tuple[Sequence, Sequence]:
        """The ket and bra rows of a move (see :meth:`_absorb`)."""
        if isinstance(row, int):
            return self.peps.grid[row], self.bra.grid[row]
        return row, row

    def _count_move(self, row, boundary, lockstep_calls: int) -> int:
        """Count a move's row absorptions — one, or one per shot — and return them.

        A sampler move also counts its ``lockstep_calls`` ``einsum_batched``
        calls as batched contractions.
        """
        if isinstance(row, int):
            self.stats.row_absorptions += 1
            return 1
        shots = self.backend.shape(boundary[0])[0]
        self.stats.row_absorptions += shots
        self.stats.batched_contractions += lockstep_calls
        _BATCHED_CONTRACTIONS.add(lockstep_calls)
        return shots

    def ensure_upper(self, i: int):
        """Validate and return ``upper[i]`` (rows ``0..i-1`` absorbed from the top)."""
        if not (0 <= i <= self.nrow):
            raise ValueError(f"upper boundary index {i} outside 0..{self.nrow}")
        while self._upper_valid < i:
            k = self._upper_valid
            self._upper[k + 1] = self._absorb(self._upper[k], k)
            self._upper_valid += 1
        return self._upper[i]

    def ensure_lower(self, i: int):
        """Validate and return ``lower[i]`` (rows ``i+1..nrow-1`` absorbed from below)."""
        if not (0 <= i <= self.nrow - 1):
            raise ValueError(f"lower boundary index {i} outside 0..{self.nrow - 1}")
        while self._lower_valid > i:
            k = self._lower_valid
            self._lower[k - 1] = self._absorb(self._lower[k], k, from_below=True)
            self._lower_valid -= 1
        return self._lower[i]

    def rescale_cached(self, factor: complex) -> None:
        """Rescale cached boundaries after every site tensor was scaled by ``factor``.

        A boundary that absorbed ``k`` sites (ket and bra layers) scales by
        ``|factor|^(2k)``, so the cache stays warm through in-place
        normalization instead of being invalidated.
        """
        layer = complex(factor) * np.conj(complex(factor))  # per ket+bra site pair
        ncol = self.ncol
        for i in range(1, self._upper_valid + 1):
            scale = layer ** (i * ncol)
            boundary = self._upper[i]
            self._upper[i] = [boundary[0] * scale] + list(boundary[1:])
        for i in range(self._lower_valid, self.nrow - 1):
            scale = layer ** ((self.nrow - 1 - i) * ncol)
            boundary = self._lower[i]
            self._lower[i] = [boundary[0] * scale] + list(boundary[1:])
        if self._norm_sq is not None:
            self._norm_sq = self._norm_sq * layer ** self.peps.n_sites

    # ------------------------------------------------------------------ #
    # Cached queries
    # ------------------------------------------------------------------ #
    def _absorbs_exactly(self) -> bool:
        """Whether row absorptions are exact (no truncation ever happens)."""
        return self.svd_option is None

    def _norm_meeting_row(self) -> int:
        """The row ``i`` whose ``upper[i] x lower[i-1]`` closure serves the norm."""
        if self._absorbs_exactly():
            # Exact absorptions: every upper[i]/lower[i-1] closure is the
            # same scalar, so close the pair needing the fewest new
            # absorptions (ties prefer the larger meeting row, matching
            # the seed's upper[nrow] x trivial closure on a cold cache).
            best_i, best_cost = None, None
            for i in range(self.nrow, 0, -1):
                cost = max(0, i - self._upper_valid) + max(0, self._lower_valid - (i - 1))
                if best_cost is None or cost < best_cost:
                    best_i, best_cost = i, cost
            return best_i
        # Truncated absorptions: different meeting rows give slightly
        # different estimates, so always close the full top sweep to
        # keep the norm a deterministic function of (state, option)
        # regardless of cache/invalidation history.
        return self.nrow

    def norm_sq(self) -> complex:
        """``<psi|psi>`` (or ``<bra|psi>``) from the cached boundaries."""
        if self._norm_sq is None:
            # A state widened after construction (``psi[i, j] = t`` or its
            # ``grid``) would otherwise broadcast against the extent-1 legs
            # of the trivial boundaries and close to a meaningless value.
            check_edge_legs(self.backend, self.peps.grid)
            if self.bra is not self.peps:
                check_edge_legs(self.backend, self.bra.grid)
            self.stats.norm_evaluations += 1
            best_i = self._norm_meeting_row()
            upper = self.ensure_upper(best_i)
            lower = self.ensure_lower(best_i - 1)
            self._norm_sq = close_boundaries(self.backend, upper, lower)
        return self._norm_sq

    def norm(self) -> float:
        """``sqrt(<psi|psi>)``."""
        return float(np.sqrt(max(float(np.real(self.norm_sq())), 0.0)))

    def expectation(self, observable, normalized: bool = True) -> float:
        """``<psi|O|psi>`` for a sum of local terms, sharing one boundary pair."""
        self._require_sandwich("expectation")
        terms = local_terms(observable)
        # The norm is only needed for normalization and zero-site (constant)
        # terms; avoid forcing a full top sweep for unnormalized local sums.
        norm_sq = self.norm_sq() if normalized else None
        total = 0.0 + 0.0j
        caches: Dict[Tuple[int, int], StripCache] = {}
        splits: Dict = {}  # each distinct term matrix is split once per pass
        for sites, matrix in terms:
            if len(sites) == 0:
                if norm_sq is None:
                    norm_sq = self.norm_sq()
                total += complex(matrix[0, 0]) * norm_sq
                continue
            r0, r1, _ = self._term_rows(sites)
            self.stats.strip_contractions += 1
            total += self._strip_cache(caches, r0, r1).term_value(sites, matrix, splits)
        self._charge_strip_caches(caches)
        value = total / norm_sq if normalized else total
        return float(np.real(value))

    def measure_1site(
        self,
        operator,
        sites: Optional[Sequence[int]] = None,
        normalized: bool = True,
    ) -> Dict[int, Union[float, complex]]:
        """Batched single-site expectation values, one cached pass per lattice row.

        ``operator`` is either one ``d x d`` matrix applied at every requested
        site or a mapping ``site -> matrix``; ``sites`` defaults to all sites
        (or the mapping's keys).  Each row costs ``O(ncol)`` transfer
        contractions regardless of how many of its sites are measured.
        """
        self._require_sandwich("measure_1site")
        peps = self.peps
        if isinstance(operator, dict):
            op_map = {int(s): np.asarray(m, dtype=np.complex128) for s, m in operator.items()}
            wanted = sorted(op_map) if sites is None else [int(s) for s in sites]
            missing = [s for s in wanted if s not in op_map]
            if missing:
                raise ValueError(f"no operator given for sites {missing}")
        else:
            matrix = np.asarray(operator, dtype=np.complex128)
            wanted = list(range(peps.n_sites)) if sites is None else [int(s) for s in sites]
            op_map = {s: matrix for s in wanted}
        # Duplicate requested sites would desynchronize the per-row zip
        # against the deduplicated column densities.
        wanted = sorted(set(wanted))

        norm_sq = self.norm_sq() if normalized else None
        by_row: Dict[int, List[int]] = {}
        for s in wanted:
            r, _ = peps.site_position(s)
            by_row.setdefault(r, []).append(s)

        out: Dict[int, float] = {}
        for r in sorted(by_row):
            row_sites = sorted(by_row[r], key=lambda s: peps.site_position(s)[1])
            cols = [peps.site_position(s)[1] for s in row_sites]
            densities = self._row_densities(r, cols)
            for s, rho in zip(row_sites, densities):
                value = complex(np.sum(op_map[s] * rho))
                out[s] = float(np.real(value / norm_sq)) if normalized else value
        return out

    def measure_2site(self, operator_a, operator_b=None) -> Dict[Tuple[int, int], float]:
        """Batched normalized two-site expectation values over every
        nearest-neighbour site pair.

        ``operator_a``/``operator_b`` are ``d x d`` single-site factors (the
        pair operator is their Kronecker product with the first site of each
        pair as the most significant qubit); alternatively pass one full
        ``d^2 x d^2`` matrix as ``operator_a``.  The environments are built
        once and every pair costs only one strip contraction.
        """
        self._require_sandwich("measure_2site")
        peps = self.peps
        if operator_b is not None:
            matrix = np.kron(
                np.asarray(operator_a, dtype=np.complex128),
                np.asarray(operator_b, dtype=np.complex128),
            )
        else:
            matrix = np.asarray(operator_a, dtype=np.complex128)
        pairs = []
        for r in range(peps.nrow):
            for c in range(peps.ncol):
                s = r * peps.ncol + c
                if c + 1 < peps.ncol:
                    pairs.append((s, s + 1))
                if r + 1 < peps.nrow:
                    pairs.append((s, s + peps.ncol))

        norm_sq = self.norm_sq()
        out: Dict[Tuple[int, int], float] = {}
        caches: Dict[Tuple[int, int], StripCache] = {}
        splits: Dict = {}
        for pair in pairs:
            sa, sb = int(pair[0]), int(pair[1])
            r0, r1, _ = self._term_rows((sa, sb))
            self.stats.strip_contractions += 1
            value = self._strip_cache(caches, r0, r1).term_value((sa, sb), matrix, splits)
            out[(sa, sb)] = float(np.real(value / norm_sq))
        self._charge_strip_caches(caches)
        return out

    def sample(self, rng=None, nshots: int = 1) -> np.ndarray:
        """Independent basis-state samples by perfect conditional sampling.

        Returns an integer array of shape ``(nshots, n_sites)`` (row-major
        site order), drawn via conditional single-layer contractions
        (:func:`~repro.peps.envs.sampling.sample_bitstrings`): the cached
        lower environments are shared by all shots; only the per-shot
        projected upper boundaries are recomputed, all shots in one
        lockstep group.
        """
        self._require_sandwich("sample")
        return sample_bitstrings(self, rng=rng, nshots=nshots)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _require_sandwich(self, query: str) -> None:
        """Refuse ``query`` on a cross environment, which serves only its norm."""
        if self.bra is not self.peps:
            raise ValueError(
                f"{query} needs a <psi|psi> environment; a cross environment "
                f"<bra|psi> serves norm_sq and norm only"
            )

    def _strip_cache(
        self, caches: Dict[Tuple[int, int], "StripCache"], r0: int, r1: int
    ) -> "StripCache":
        """The shared column-environment cache of strip ``(r0, r1)`` of one pass.

        Terms on the same rows share left/right traced environments through
        it, so each additional term only contracts its own column span.
        """
        cache = caches.get((r0, r1))
        if cache is None:
            upper = self.ensure_upper(r0)
            lower = self.ensure_lower(r1)
            cache = StripCache(self.peps, upper, lower, r0, r1)
            caches[(r0, r1)] = cache
        return cache

    def _charge_strip_caches(
        self, caches: Dict[Tuple[int, int], "StripCache"]
    ) -> None:
        """Fold one pass's per-strip hit/miss counts into the stats."""
        hits = sum(cache.hits for cache in caches.values())
        misses = sum(cache.misses for cache in caches.values())
        if hits:
            self.stats.strip_cache_hits += hits
            _STRIP_CACHE_HITS.add(hits)
        if misses:
            self.stats.strip_cache_misses += misses
            _STRIP_CACHE_MISSES.add(misses)

    def _term_rows(self, sites: Sequence[int]) -> Tuple[int, int, List[Tuple[int, int]]]:
        positions = [self.peps.site_position(s) for s in sites]
        rows = [r for r, _ in positions]
        r0, r1 = min(rows), max(rows)
        if r1 - r0 > 1:
            raise ValueError(
                f"term on sites {tuple(sites)} spans rows {r0}..{r1}; only terms within "
                f"two adjacent rows are supported"
            )
        return r0, r1, positions

    def _row_densities(self, r: int, cols: Sequence[int]) -> List[np.ndarray]:
        """Local reduced density matrices ``rho[bra, ket]`` for sites of row ``r``.

        One left-to-right and one right-to-left transfer sweep over the strip
        ``upper[r] x row r x lower[r]`` serves every requested column.
        """
        b = self.backend
        ncol = self.ncol
        upper = self.ensure_upper(r)
        lower = self.ensure_lower(r)
        kets = self.peps.grid[r]
        bras = [b.conj(t) for t in kets]
        cols = sorted(set(int(c) for c in cols))
        if not cols:
            return []

        right: List = [None] * (ncol + 1)
        right[ncol] = b.ones((1, 1, 1, 1))
        for c in range(ncol - 1, cols[0], -1):
            right[c] = b.einsum(TRANSFER_RIGHT, upper[c], kets[c], bras[c], lower[c], right[c + 1])

        out: List[np.ndarray] = []
        want = set(cols)
        left = b.ones((1, 1, 1, 1))
        for c in range(cols[-1] + 1):
            if c in want:
                rho = b.einsum(
                    SITE_DENSITY, left, upper[c], kets[c], bras[c], lower[c], right[c + 1]
                )
                out.append(np.asarray(b.asarray(rho)))
            if c < cols[-1]:
                left = b.einsum(TRANSFER_LEFT, left, upper[c], kets[c], bras[c], lower[c])
        return out


def make_environment(peps, contract_option: Optional[ContractOption] = None, *, bra=None):
    """Build the environment matching a contraction option.

    A :class:`~repro.peps.contraction.options.CTMOption` gives an
    :class:`~repro.peps.envs.ctm.EnvCTM`; anything else (``None``,
    :class:`~repro.peps.contraction.options.Exact` or
    :class:`~repro.peps.contraction.options.BMPS`) a
    :class:`BoundaryEnvironment`.  A ``bra`` state gives the cross
    environment of ``<bra|peps>``, which CTM does not provide.
    """
    from repro.peps.envs.ctm import EnvCTM

    if isinstance(contract_option, CTMOption):
        if bra is not None:
            raise TypeError(
                "CTM contraction only serves <psi|psi> inner products; "
                "use a BMPS/Exact option for cross overlaps"
            )
        return EnvCTM(peps, contract_option)
    return BoundaryEnvironment(peps, contract_option, bra=bra)

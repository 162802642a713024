"""The abstract PEPS environment protocol.

An :class:`Environment` owns the cached contraction state of a single PEPS —
typically the upper/lower boundary MPS lists of the ``<psi|psi>`` sandwich
(Section IV-B of the paper) — and exposes every operation that benefits from
that cache:

* ``norm`` / ``norm_sq`` — the state norm from the cached boundaries,
* ``expectation(terms)`` — a sum of local terms evaluated with one shared
  pair of boundary sweeps instead of one full contraction per term,
* ``measure_1site`` / ``measure_2site`` — batched local measurements of all
  requested sites/pairs in one cached pass,
* ``sample`` — basis-state sampling via conditional single-layer
  contractions that reuse the cached lower environments across shots.

Environments support *incremental dirty-row invalidation*:
:meth:`Environment.invalidate` marks a set of lattice rows stale, and a
subsequent query recomputes only the invalidated sweep segments instead of
all ``O(nrow)`` row absorptions.  :class:`~repro.peps.peps.PEPS` calls
``invalidate`` automatically from its operator-application paths when an
environment is attached via :meth:`~repro.peps.peps.PEPS.attach_environment`.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np


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


class Environment(abc.ABC):
    """Protocol for cached contraction environments of one PEPS state."""

    #: the PEPS this environment belongs to
    peps = None
    #: work counters
    stats: EnvStats

    # ------------------------------------------------------------------ #
    # Cache lifecycle
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def build(self) -> "Environment":
        """Eagerly compute every cached boundary (queries build lazily otherwise)."""

    @abc.abstractmethod
    def invalidate(self, rows: Optional[Iterable[int]] = None) -> None:
        """Mark the given lattice rows (default: all) as stale.

        Cached boundaries that absorbed a stale row are recomputed on the next
        query; everything else is reused.
        """

    def rescale_cached(self, factor: complex) -> None:
        """Account for an in-place scaling of *every* site tensor by ``factor``.

        The default implementation conservatively invalidates the whole cache;
        concrete environments rescale their cached boundaries analytically so
        that in-place normalization keeps the cache warm.
        """
        self.invalidate()

    @abc.abstractmethod
    def accepts(self, contract_option) -> bool:
        """Whether this environment implements the given contraction option."""

    # ------------------------------------------------------------------ #
    # Cached queries
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def norm_sq(self) -> complex:
        """``<psi|psi>`` from the cached boundaries."""

    def norm(self) -> float:
        """``sqrt(<psi|psi>)``."""
        return float(np.sqrt(max(float(np.real(self.norm_sq())), 0.0)))

    @abc.abstractmethod
    def expectation(self, observable, normalized: bool = True) -> float:
        """``<psi|O|psi>`` for a sum of local terms, sharing one boundary pair."""

    @abc.abstractmethod
    def measure_1site(
        self,
        operator,
        sites: Optional[Sequence[int]] = None,
        normalized: bool = True,
    ) -> Dict[int, Union[float, complex]]:
        """Batched ``<O_s>`` for every requested site in one cached pass.

        Values are normalized real floats; ``normalized=False`` returns the
        raw complex strip values.
        """

    @abc.abstractmethod
    def measure_2site(
        self,
        operator_a,
        operator_b=None,
        pairs: Optional[Sequence[Tuple[int, int]]] = None,
        normalized: bool = True,
    ) -> Dict[Tuple[int, int], Union[float, complex]]:
        """Batched two-site expectation values over site pairs.

        Values are normalized real floats; ``normalized=False`` returns the
        raw complex strip values.
        """

    @abc.abstractmethod
    def sample(
        self,
        rng=None,
        nshots: int = 1,
        sampler: str = "perfect",
        sampler_options: Optional[Dict] = None,
    ) -> np.ndarray:
        """Draw computational-basis samples ``~ |<b|psi>|^2 / <psi|psi>``.

        ``sampler`` selects the scheme: ``"perfect"`` (default) draws
        independent samples by exact conditional sampling, advancing the
        shots in lockstep groups (:mod:`repro.peps.envs.sampling`); ``"mc"``
        runs Metropolis chains (:mod:`repro.peps.envs.sampling_mc`);
        ``sampler_options`` passes scheme-specific keywords (e.g. the MC
        ``sweeps``).
        """

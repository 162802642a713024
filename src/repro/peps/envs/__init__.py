"""Pluggable PEPS environment subsystem.

An environment owns the cached boundary contraction state of one PEPS and
serves every quantity that benefits from it — norms, multi-term expectation
values, batched single/two-site measurements, and basis-state sampling —
with incremental dirty-row invalidation so that local updates only recompute
the touched sweep segments::

    from repro import peps
    from repro.peps import BMPS
    from repro.tensornetwork import ImplicitRandomizedSVD

    state = peps.random_peps(4, 4, bond_dim=2, seed=0)
    env = state.attach_environment(BMPS(ImplicitRandomizedSVD(rank=8, seed=0)))
    energy = env.expectation(H)            # builds the boundary caches
    state.apply_operator(CX, [1, 5])       # marks only rows 0-1 dirty
    energy = env.expectation(H)            # recomputes just the dirty segments
    magnetization = env.measure_1site(Z)   # all sites, one cached pass
    shots = env.sample(rng=0, nshots=100)  # basis-state samples

One class per contraction algorithm: :class:`BoundaryEnvironment` absorbs
rows exactly (``None`` / :class:`~repro.peps.contraction.options.Exact`) or
with zip-up BMPS/IBMPS truncation (a
:class:`~repro.peps.contraction.options.BMPS`), and its public methods are
the protocol; :class:`EnvCTM` overrides its boundary move with
corner-transfer-matrix renormalization (corner-Gram projectors, selected by
a :class:`~repro.peps.contraction.options.CTMOption`).
"""

from repro.peps.envs.boundary import (
    BoundaryEnvironment,
    EnvStats,
    local_terms,
    make_environment,
    option_signature,
)
from repro.peps.envs.ctm import EnvCTM, corner_grams, ctm_renormalize
from repro.peps.envs.sampling import sample_bitstrings
from repro.peps.envs.strip import StripCache, operator_pieces

__all__ = [
    "EnvStats",
    "BoundaryEnvironment",
    "EnvCTM",
    "make_environment",
    "option_signature",
    "local_terms",
    "sample_bitstrings",
    "StripCache",
    "operator_pieces",
    "corner_grams",
    "ctm_renormalize",
]

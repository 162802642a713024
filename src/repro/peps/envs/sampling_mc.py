"""Markov-chain (Metropolis) sampling of basis states from a PEPS environment.

The Markov-chain sampler is the stochastic sibling of the perfect
conditional sampler (:mod:`repro.peps.envs.sampling`, yastn's ``sample_MC_``
next to ``sample``): instead of drawing each site from its exact conditional
distribution, it runs single-site-flip Metropolis chains whose stationary
distribution is ``|<b|psi>|^2 / <psi|psi>``.  Each proposal flips one site
(for physical dimension 2; higher dimensions propose a uniformly random
*other* value) and is accepted with probability
``min(1, |<b'|psi>|^2 / |<b|psi>|^2)``; the amplitudes are single-layer
contractions using the environment's own truncation, so approximate
environments sample their approximate distribution — exactly like every
other environment query.  A truncated CTM environment has no single-layer
counterpart and refuses MC sampling.

Perfect sampling costs one full conditional pass per shot but produces
independent samples; the Markov chain costs ``sweeps * n_sites`` amplitude
evaluations per shot and is the scheme that generalizes to environments
without cached conditional densities.  It exists behind the same
``BoundaryEnvironment.sample`` entry point, selected by ``sampler="mc"``.

Random-stream semantics
-----------------------
Mirrors the perfect sampler: the generator resolved from ``rng`` is consumed
for exactly **one** root draw, and chain ``s`` then runs entirely on its own
substream ``derive_rng(root, "mc-chain", s)`` — its initial configuration,
proposals and acceptances.  Shot ``s`` therefore does not depend on how many
other shots were requested, and seeded callers (the simulation runner
threads ``derive_rng(spec.seed, "sample", step)`` here) get deterministic,
checkpoint/resume-stable sample arrays.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.peps.contraction.options import CTMOption, Exact
from repro.peps.envs.sampling import sample_bitstrings
from repro.telemetry.trace import span as _span
from repro.utils.rng import SeedLike, derive_rng, ensure_rng

#: Default number of full-lattice Metropolis sweeps per chain.
DEFAULT_SWEEPS = 32


def _amplitude_option(env):
    """The single-layer contraction option matching the environment's truncation.

    A truncating :class:`CTMOption` has no single-layer counterpart, so MC
    sampling is refused there rather than silently evaluated exactly.
    """
    option = env.contract_option
    if not isinstance(option, CTMOption):
        return option
    if (option.chi, option.cutoff) != (None, None):
        raise ValueError(
            f"Markov-chain sampling needs single-layer amplitudes, which "
            f"{option.describe()} does not define; use the perfect sampler "
            f"(sampler='perfect') on truncated CTM environments"
        )
    return Exact()


def sample_mc(
    env,
    rng: "SeedLike" = None,
    nshots: int = 1,
    sweeps: Optional[int] = None,
) -> np.ndarray:
    """Draw ``nshots`` basis-state samples via independent Metropolis chains.

    Returns an integer array of shape ``(nshots, n_sites)`` in row-major
    site order, like :func:`repro.peps.envs.sampling.sample_bitstrings`.

    Parameters
    ----------
    env:
        A boundary-style environment; its PEPS and truncation options define
        the amplitude contractions.
    rng:
        Seed material; consumed for one root draw (see module docstring).
    nshots:
        Number of chains — each shot is the end state of its own chain.
    sweeps:
        Full-lattice Metropolis sweeps per chain (default
        :data:`DEFAULT_SWEEPS`); every sweep proposes one flip per site.
    """
    nshots = int(nshots)
    if nshots < 1:
        raise ValueError(f"nshots must be positive, got {nshots}")
    sweeps = DEFAULT_SWEEPS if sweeps is None else int(sweeps)
    if sweeps < 1:
        raise ValueError(f"sweeps must be positive, got {sweeps}")
    rng = ensure_rng(rng)
    root = int(rng.integers(0, 2**63 - 1, dtype=np.int64))

    peps = env.peps
    backend = peps.backend
    option = _amplitude_option(env)
    dims: List[int] = [
        int(backend.shape(peps.grid[r][c])[0])
        for r in range(peps.nrow)
        for c in range(peps.ncol)
    ]
    n_sites = peps.n_sites

    def probability(bits: np.ndarray) -> float:
        return float(abs(peps.amplitude(bits.tolist(), option)) ** 2)

    shots = np.empty((nshots, n_sites), dtype=np.int64)
    for s in range(nshots):
        chain = derive_rng(root, "mc-chain", s)
        # Initialize from one perfect conditional draw (on the chain's own
        # substream): a uniformly random configuration can lie outside the
        # wavefunction's support, where every single-site flip also has zero
        # amplitude and the chain never finds its way in.  Any distribution
        # over valid start states leaves the stationary distribution
        # untouched; the sweeps then decorrelate the chain.
        bits = np.asarray(sample_bitstrings(env, rng=chain, nshots=1)[0],
                          dtype=np.int64)
        with _span("sample_mc_chain", shot=s, sweeps=sweeps):
            weight = probability(bits)
            for _ in range(sweeps):
                for site in range(n_sites):
                    d = dims[site]
                    if d < 2:
                        continue
                    old = int(bits[site])
                    if d == 2:
                        proposal = 1 - old
                    else:
                        proposal = (old + 1 + int(chain.integers(0, d - 1))) % d
                    bits[site] = proposal
                    new_weight = probability(bits)
                    # weight > 0 rejects every zero-weight proposal, so a
                    # chain started in the support stays there; the
                    # weight <= 0 fallback (degenerate truncated amplitudes)
                    # accepts anything rather than sticking forever.
                    if weight <= 0.0 or chain.random() * weight < new_weight:
                        weight = new_weight
                    else:
                        bits[site] = old
        shots[s] = bits
    return shots

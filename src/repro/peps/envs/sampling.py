"""Perfect sampling of computational-basis states from a PEPS environment.

Implements the conditional-sampling scheme (Ferris-Vidal style) on top of the
boundary environments: sites are visited in row-major order, and the
conditional distribution of site ``(r, c)`` given the already-sampled bits is
the diagonal of a local reduced density matrix in which

* rows above ``r`` are *projected* onto their sampled bits (a per-shot
  single-layer upper boundary),
* rows below ``r`` are *traced* — exactly the cached lower environments of
  the ``<psi|psi>`` sandwich, shared across all shots,
* sites left of ``c`` in row ``r`` are projected, sites right of it traced.

With exact environments the samples follow ``|<b|psi>|^2 / <psi|psi>``
exactly; with truncated boundaries the distribution is approximate in the
same way every boundary-MPS quantity is.

Lockstep groups
---------------
All shots visit the sites in the same order and contract networks of the
same shapes, so the sampler advances a *group* of shots in lockstep: the
per-shot upper boundaries, right environments, site densities and projected
tensors are stacked along a leading batch axis, and each per-site contraction
is one :meth:`~repro.backends.interface.Backend.einsum_batched` call for the
whole group.  Tensors shared by all shots (site tensors, cached lower
environments) enter with batch dimension 1 and broadcast.  After every row
but the last (no row below the last reads what it would grow) the group's
projected row grows the upper boundaries through the environment's one
boundary move, ``env._absorb`` — the move its cached boundaries are built
with, handed a batch: exact growth is one ``einsum_batched`` call per column,
a zip-up runs shot by shot, and a CTM renormalization stacks its Gram chains,
projectors and the group's corner ``eigh`` halves (one stacked ``eigh`` per
side and bond for every shot), factoring only the corner products shot by
shot.

Stacking requires every shot's boundary to keep the same shape after
truncation.  Truncation is by bond dimension alone, so every boundary's
shape follows from its inputs' shapes, and all shots advance in one group.

Random-stream semantics
-----------------------
The generator resolved from ``rng`` is consumed for exactly **one** root
draw; each shot then samples from its own substream
``derive_rng(root, "shot", s)``, consuming one uniform per site through one
inverse-CDF formula, so the sampled bits of shot ``s`` depend neither on the
group it advanced in nor on how many other shots were requested.  Seeded
callers get deterministic shot arrays — the simulation runner threads
``derive_rng(spec.seed, "sample", step)`` here to make whole runs (including
checkpoint/resume) bitwise reproducible from one RunSpec seed.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.peps.envs.strip import SITE_DENSITY, TRANSFER_LEFT_PROJECTED, TRANSFER_RIGHT
from repro.telemetry.metrics import REGISTRY
from repro.telemetry.trace import span as _span
from repro.utils.checks import positive_int
from repro.utils.rng import SeedLike, derive_rng, ensure_rng

#: One unit per lockstep ``einsum_batched`` call covering a whole shot group.
_BATCHED_CONTRACTIONS = REGISTRY.counter("peps.batched_contractions")


def _draw_values(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws, one row of ``probs`` per uniform.

    The clip guards against ``cumsum`` round-off pushing the final bin
    fractionally below 1.
    """
    cdf = np.cumsum(probs, axis=-1)
    values = (cdf <= uniforms[:, None]).sum(axis=-1)
    return np.minimum(values, probs.shape[-1] - 1).astype(np.int64)


class _SamplingPlan:
    """Per-call constants shared by every lockstep group.

    Hoists the allocations each group would otherwise repeat: the trivial
    boundary tensor, the conjugated bra rows, and the one-hot selector
    matrices per physical dimension.
    """

    def __init__(self, env) -> None:
        self.env = env
        self.peps = env.peps
        backend = env.peps.backend
        self.backend = backend
        self.nrow = self.peps.nrow
        self.ncol = self.peps.ncol
        self.ones5 = backend.ones((1, 1, 1, 1, 1))
        self.kets = self.peps.grid
        self.bras = [[backend.conj(t) for t in row] for row in self.peps.grid]
        self._eyes: dict = {}

    def eye(self, d: int) -> np.ndarray:
        """Identity whose rows are the one-hot basis selectors of dimension ``d``."""
        eye = self._eyes.get(d)
        if eye is None:
            eye = np.eye(d, dtype=np.complex128)
            self._eyes[d] = eye
        return eye

    def lift(self, tensor):
        """Add a broadcastable batch-1 leading axis to a shot-shared tensor."""
        backend = self.backend
        return backend.reshape(tensor, (1,) + tuple(backend.shape(tensor)))

    def probabilities(self, diagonals: np.ndarray) -> np.ndarray:
        """Normalize batched density diagonals into per-shot distributions.

        Rows whose truncated weight collapsed to zero (or negative round-off)
        fall back to the uniform distribution; each such row is counted in
        ``env.stats.uniform_fallbacks``.
        """
        probs = np.clip(np.real(diagonals), 0.0, None)
        totals = probs.sum(axis=-1)
        degenerate = totals <= 0.0
        n_bad = int(np.count_nonzero(degenerate))
        if n_bad:
            self.env.stats.uniform_fallbacks += n_bad
            probs[degenerate] = 1.0
            totals = probs.sum(axis=-1)
        return probs / totals[:, None]


def sample_bitstrings(env, rng: "SeedLike" = None, nshots: int = 1) -> np.ndarray:
    """Draw ``nshots`` basis-state samples from ``env.peps``.

    Returns an integer array of shape ``(nshots, n_sites)`` in row-major site
    order.  ``env`` is a :class:`~repro.peps.envs.boundary.BoundaryEnvironment`
    (or compatible): its cached lower boundaries and truncation options are
    reused.  All shots advance in one lockstep group; each shot's bits are
    what it would draw alone (see the module docstring).  ``nshots`` must be
    an integer (``TypeError`` otherwise, ``bool`` included) of at least 1.
    """
    nshots = positive_int(nshots, "nshots")
    rng = ensure_rng(rng)
    root = int(rng.integers(0, 2**63 - 1, dtype=np.int64))
    shot_rngs = [derive_rng(root, "shot", s) for s in range(nshots)]

    env.ensure_lower(0)  # warm every lower environment once, for all shots
    with _span("sample_shots", count=nshots):
        return _sample_group(_SamplingPlan(env), shot_rngs)


def _sample_group(
    plan: _SamplingPlan, shot_rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """The shots of one group through batched per-site contractions."""
    env, b = plan.env, plan.backend
    nrow, ncol = plan.nrow, plan.ncol
    nshots = len(shot_rngs)
    bits = np.empty((nshots, plan.peps.n_sites), dtype=np.int64)
    upper = [plan.ones5] * ncol  # batch-1: identical trivial boundary for all shots
    for r in range(nrow):
        lower = [plan.lift(t) for t in env.ensure_lower(r)]
        kets = [plan.lift(t) for t in plan.kets[r]]
        bras = [plan.lift(t) for t in plan.bras[r]]

        # Right-to-left traced environments of the row strip.
        right: List = [None] * (ncol + 1)
        right[ncol] = plan.ones5
        for c in range(ncol - 1, 0, -1):
            right[c] = _batched(
                env, TRANSFER_RIGHT, upper[c], kets[c], bras[c], lower[c], right[c + 1]
            )

        left = plan.ones5
        projected = []
        for c in range(ncol):
            rho = _batched(
                env, SITE_DENSITY, left, upper[c], kets[c], bras[c], lower[c], right[c + 1]
            )
            rho = np.asarray(b.asarray(rho))  # (batch or 1, bra phys, ket phys)
            diagonals = np.diagonal(rho, axis1=-2, axis2=-1)
            if diagonals.shape[0] == 1:
                diagonals = np.broadcast_to(diagonals, (nshots, diagonals.shape[-1]))
            probs = plan.probabilities(diagonals)
            uniforms = np.array([gen.random() for gen in shot_rngs])
            values = _draw_values(probs, uniforms)
            bits[:, r * ncol + c] = values

            selectors = b.astensor(plan.eye(probs.shape[-1])[values])  # (nshots, d)
            proj = b.einsum("puedg,sp->suedg", plan.kets[r][c], selectors)
            env.stats.batched_contractions += 1
            _BATCHED_CONTRACTIONS.add()
            projected.append(proj)
            left = _batched(
                env, TRANSFER_LEFT_PROJECTED, left, upper[c], proj, b.conj(proj), lower[c]
            )

        if r == nrow - 1:
            break  # no row below reads the upper boundaries grown from this one
        # Absorb the projected row into the running per-shot upper boundaries
        # with the environment's own move; projected sites get their phys-1
        # leg back *after* the batch axis.
        proj_row = []
        for t in projected:
            shape = tuple(b.shape(t))
            proj_row.append(b.reshape(t, (shape[0], 1) + shape[1:]))
        upper = env._absorb(upper, proj_row)
    return bits


def _batched(env, subscripts: str, *operands):
    """One counted lockstep contraction over the whole shot group."""
    env.stats.batched_contractions += 1
    _BATCHED_CONTRACTIONS.add()
    return env.peps.backend.einsum_batched(subscripts, *operands)

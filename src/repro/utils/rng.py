"""Reproducible random-number helpers.

Every stochastic component of the library (randomized SVD probes, random
quantum circuits, random PEPS/MPS initialization, VQE parameter
initialization) accepts either a seed, an existing :class:`numpy.random.Generator`,
or ``None``.  These helpers normalize that argument so the rest of the code
only ever deals with `Generator` objects.
"""

from __future__ import annotations

import zlib
from typing import List, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(root_seed: Union[int, None], *key) -> np.random.Generator:
    """A named, statistically independent substream of a single root seed.

    The simulation runner (:mod:`repro.sim`) threads one ``RunSpec`` seed
    through every stochastic component of a run — circuit generation,
    parameter initialization, basis-state sampling — by deriving a dedicated
    generator per purpose::

        circuit_rng = derive_rng(spec.seed, "circuit")
        sample_rng = derive_rng(spec.seed, "sample", step_index)

    The same ``(root_seed, *key)`` always produces the same stream, and
    distinct keys produce independent streams, so whole runs are reproducible
    from one integer while components never share (and therefore never
    perturb) each other's stream positions.

    ``key`` elements may be strings or integers; ``root_seed=None`` draws a
    fresh entropy-based stream (non-reproducible, mirroring ``ensure_rng``).
    """
    if root_seed is None:
        return np.random.default_rng()
    words: List[int] = [_entropy_word(root_seed)]
    for part in key:
        if isinstance(part, (int, np.integer)):
            words.append(_entropy_word(part))
        else:
            words.append(zlib.crc32(str(part).encode("utf-8")) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(words))


def _entropy_word(value) -> int:
    """An integer as SeedSequence entropy, full width preserved.

    SeedSequence only takes non-negative integers; negative values map via
    64-bit two's complement.  No truncation of non-negative values, so
    distinct seeds always derive distinct streams.
    """
    value = int(value)
    if value < 0:
        value &= (1 << 64) - 1
    return value

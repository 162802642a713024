"""Tensor-backend abstraction layer.

The library is written once against the :class:`~repro.backends.interface.Backend`
protocol, and the concrete tensor arithmetic is supplied by one of the
registered backends:

``"numpy"``
    Sequential/threaded execution on :class:`numpy.ndarray` objects.

``"distributed"`` (aliases: ``"ctf"``, ``"cyclops"``)
    A distributed-memory backend standing in for Cyclops/CTF.  Tensors carry
    a block-cyclic distribution over a virtual processor grid and every
    operation is charged against an alpha-beta communication model and a
    per-core flop-rate model, so redistribution-heavy code paths
    (e.g. ``reshape`` before a factorization) are visibly more expensive than
    Gram-matrix based ones, matching the behaviour studied in the paper.
    Pass ``executor="pool"`` to actually execute on a pool of worker
    processes (rank-local contractions, real collectives) with bitwise
    parity to the default in-process ``executor="simulated"``.

Use :func:`get_backend` to obtain a backend instance by name.
"""

from __future__ import annotations

from typing import Union

from repro.backends.interface import (
    Backend,
    BackendExecutionError,
    parse_batched_subscripts,
    rewrite_batched_subscripts,
)


def get_backend(backend: Union[str, Backend, None] = "numpy", **kwargs) -> Backend:
    """Return a backend instance.

    Parameters
    ----------
    backend:
        A backend name (``"numpy"``, ``"distributed"``, ``"ctf"``,
        ``"cyclops"``), an existing :class:`Backend` instance (returned
        unchanged, ``kwargs`` must be empty), or ``None`` for the default
        NumPy backend.
    kwargs:
        Extra configuration forwarded to the backend constructor.  The
        distributed backend accepts ``nprocs``, ``cost_model``, ``executor``
        (``"simulated"`` or ``"pool"``) and, for the pool executor,
        ``fault``, ``max_restarts`` and ``timeout``.
    """
    if backend is None:
        backend = "numpy"
    if isinstance(backend, Backend):
        if kwargs:
            raise ValueError(
                "cannot pass constructor kwargs together with a backend instance"
            )
        return backend
    if not isinstance(backend, str):
        raise TypeError(f"backend must be a str or Backend, got {type(backend)!r}")
    name = backend.lower()
    if name in ("numpy", "np"):
        return NumPyBackend(**kwargs)
    if name in ("distributed", "ctf", "cyclops"):
        # Imported lazily to keep the numpy-only path dependency-free.
        from repro.backends.distributed import DistributedBackend

        return DistributedBackend(**kwargs)
    raise ValueError(
        f"unknown backend {backend!r}; available: 'numpy', 'distributed' (alias 'ctf')"
    )


# Imported below ``get_backend`` on purpose: the NumPy backend binds the
# contraction planner at import, whose package (``repro.tensornetwork``) in
# turn imports ``get_backend`` from this half-initialised one.
from repro.backends.numpy_backend import (  # noqa: E402
    NumPyBackend,
    clear_path_caches,
    path_cache_stats,
)

__all__ = [
    "Backend",
    "BackendExecutionError",
    "NumPyBackend",
    "clear_path_caches",
    "get_backend",
    "parse_batched_subscripts",
    "path_cache_stats",
    "rewrite_batched_subscripts",
]

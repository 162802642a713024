"""Utility helpers: flop counting and reproducible random numbers."""

from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.flops import (
    svd_flops,
    qr_flops,
    matmul_flops,
    FlopCounter,
)

__all__ = [
    "ensure_rng",
    "spawn_rng",
    "svd_flops",
    "qr_flops",
    "matmul_flops",
    "FlopCounter",
]

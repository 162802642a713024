"""Utility helpers: flop counting and reproducible random numbers."""

from repro.utils.rng import ensure_rng
from repro.utils.flops import (
    svd_flops,
    qr_flops,
    FlopCounter,
)

__all__ = [
    "ensure_rng",
    "svd_flops",
    "qr_flops",
    "FlopCounter",
]

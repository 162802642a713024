"""Floating-point operation estimates for dense tensor algebra.

These estimates drive two things:

* the distributed backend's cost model (simulated execution time), and
* the Table II reproduction benchmark, which checks the measured scaling of
  BMPS / IBMPS / two-layer IBMPS against the paper's asymptotic formulas.

All counts are *order-of-magnitude* classical estimates (complex fused
multiply-adds counted as a single "flop" scaled by a constant); they are not
meant to match hardware counters exactly, only to preserve relative scaling.
"""

from __future__ import annotations

from typing import Dict, List


def svd_flops(m: int, n: int, complex_dtype: bool = True) -> float:
    """Approximate flops of a dense (economy) SVD of an m x n matrix.

    This counts the factorisation, not a LAPACK route: a rank-limited
    ``Backend.svd`` that QR-reduces the long side first is charged the same.
    """
    small, large = (m, n) if m <= n else (n, m)
    factor = 4.0 if complex_dtype else 1.0
    # Golub-Van Loan style estimate for an economy-size SVD.
    return factor * (4.0 * large * small**2 + 8.0 * small**3)


def qr_flops(m: int, n: int, complex_dtype: bool = True) -> float:
    """Approximate flops of a Householder QR of an m x n matrix (m >= n)."""
    if m < n:
        m, n = n, m
    factor = 4.0 if complex_dtype else 1.0
    return factor * (2.0 * m * n**2 - (2.0 / 3.0) * n**3)


class FlopCounter:
    """Accumulates flop counts by category.

    The NumPy backend can optionally be wrapped with a counter so that the
    Table II benchmark measures *algorithmic* cost independently of machine
    noise; the distributed backend always feeds one.

    The totals live in a private per-counter
    :class:`~repro.telemetry.metrics.MetricsRegistry` as labeled counters
    (``flops{category=einsum}`` / ``calls{category=einsum}``); the public API
    is unchanged and insertion-ordered like the dict-backed original.
    """

    def __init__(self) -> None:
        from repro.telemetry.metrics import MetricsRegistry

        self.registry = MetricsRegistry()
        self._categories: List[str] = []

    def add(self, category: str, flops: float, calls: int = 1) -> None:
        if flops < 0:
            raise ValueError(f"negative flop count: {flops}")
        if category not in self._categories:
            self._categories.append(category)
        self.registry.counter("flops", category=category).add(float(flops))
        self.registry.counter("calls", category=category).add(int(calls))

    @property
    def total(self) -> float:
        return sum(self.by_category().values())

    def by_category(self) -> Dict[str, float]:
        return {
            c: self.registry.value("flops", category=c) for c in self._categories
        }

    def calls_by_category(self) -> Dict[str, int]:
        """Per-category call counts — the batching benchmarks compare these.

        A lockstep sampler collapses ``nshots`` per-site ``"einsum"`` calls
        into one ``"einsum_batched"`` call, so the call counts (unlike the
        flop totals) shrink with the batch size.
        """
        return {
            c: self.registry.value("calls", category=c) for c in self._categories
        }

    def reset(self) -> None:
        self.registry.reset()
        self._categories.clear()

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.3g}" for k, v in sorted(self.by_category().items()))
        return f"FlopCounter(total={self.total:.3g}, {parts})"


def peps_bmps_cost(n: int, r: int, m: int) -> Dict[str, float]:
    """Closed-form leading-order costs from Table II of the paper.

    Parameters mirror the table: an ``n x n`` PEPS of bond dimension
    ``sqrt(r)`` (so ``r`` is the *sandwich* bond dimension of the two-layer
    network) contracted with truncation bond dimension ``m``, of physical
    dimension ``d = 2``.  Returns a dict with leading-order time complexities
    ``bmps``, ``ibmps`` and ``two_layer_ibmps`` and the corresponding
    ``*_space`` entries:

    * BMPS time ``O(n^2 m^3 r^4)``, space ``O(max(m^2 r^3, r^4))``
    * IBMPS time ``O(n^2 m^2 r^4 + n^2 m^3 r^2)``, space ``O(max(m^2 r^2, r^4))``
    * two-layer IBMPS time ``O(n^2 d m^2 r^3 + n^2 d m^3 r^2)``,
      space ``O(max(m^2 r^2, r^4))``
    """
    return {
        "bmps": float(n**2) * m**3 * r**4,
        "ibmps": float(n**2) * (m**2 * r**4 + m**3 * r**2),
        "two_layer_ibmps": float(n**2) * 2 * (m**2 * r**3 + m**3 * r**2),
        "bmps_space": float(max(m**2 * r**3, r**4)),
        "ibmps_space": float(max(m**2 * r**2, r**4)),
        "two_layer_ibmps_space": float(max(m**2 * r**2, r**4)),
    }

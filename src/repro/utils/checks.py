"""Argument checks shared by public entry points."""

import math
import numbers
import operator


def _integer(value, name: str) -> int:
    """``value`` as an ``int``: integers and objects with ``__index__`` (NumPy
    integers) pass; anything else raises ``TypeError``, ``bool`` included."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def positive_int(value, name: str) -> int:
    """``value`` as an ``int`` of at least 1.

    Integers and objects with ``__index__`` (NumPy integers) pass; anything
    else raises ``TypeError``, ``bool`` included, so ``2.5`` or ``"2"`` is
    never rounded or parsed into a count.  Below 1 raises ``ValueError``.
    """
    value = _integer(value, name)
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def nonnegative_int(value, name: str) -> int:
    """``value`` as an ``int`` of at least 0, typed as :func:`positive_int`."""
    value = _integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def positive_finite(value, name: str) -> float:
    """``value`` as a ``float`` that is finite and above 0.

    Real numbers pass (NumPy scalars included); ``bool`` and non-numbers
    raise ``TypeError``.  Zero, negatives, ``inf`` and ``nan`` raise
    ``ValueError``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value

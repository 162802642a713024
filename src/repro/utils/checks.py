"""Argument checks shared by public entry points."""

import operator


def positive_int(value, name: str) -> int:
    """``value`` as an ``int`` of at least 1.

    Integers and objects with ``__index__`` (NumPy integers) pass; anything
    else raises ``TypeError``, ``bool`` included, so ``2.5`` or ``"2"`` is
    never rounded or parsed into a count.  Below 1 raises ``ValueError``.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value

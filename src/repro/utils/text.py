"""Small helpers for error messages."""

from difflib import get_close_matches


def did_you_mean(word, known) -> str:
    """``"; did you mean 'x'?"`` for the closest of ``known`` — empty if none is close."""
    close = get_close_matches(str(word), sorted(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""

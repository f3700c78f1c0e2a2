"""Desk-scale guards for combinatorially explosive operations."""

from __future__ import annotations


def _shown(value: int) -> str:
    """value itself, or its digit count when it has more than 20 digits."""
    if value < 10**20:
        return str(value)
    digits = int(value.bit_length() * 0.30103)  # at most the count below 2**(10**8)
    while 10**digits <= value:
        digits += 1
    return f"a {digits}-digit number"


class GuardExceeded(Exception):
    """A size guard was hit before starting an expensive enumeration."""

    def __init__(self, what: str, value: int, limit: int):
        self.what = what
        self.value = value
        self.limit = limit
        super().__init__(f"{what} = {_shown(value)} exceeds guard limit {limit}")


def ensure_within(what: str, value: int, limit: int, unsafe: bool = False) -> None:
    if not unsafe and value > limit:
        raise GuardExceeded(what, value, limit)

"""The base class of every relfork domain error.

A domain error is a request relfork refuses (malformed text or data, a
cap exceeded, an undecidable comparison); the CLI reports it and exits 2.
Broken internal invariants keep their built-in exception types.
"""


class RelforkError(ValueError):
    """Base class of every error relfork raises on a refused request."""


class PositionedError(RelforkError):
    """A syntax error that carries the offending position as ``pos``."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# How deep parsed text may nest (parentheses, operators, tree nodes); deeper
# text is refused with a PositionedError rather than overflowing the stack.
MAX_NESTING = 200

"""The base class of every relfork domain error, and the shared caps.

A domain error is a request relfork refuses (malformed text or data, a
cap exceeded, an undecidable comparison); the CLI reports it and exits 2.
Broken internal invariants keep their built-in exception types.  The
caps and suite names shared by several modules live here too, so that
the CLI can check a request against them without importing the code
they guard.
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

# The largest window [0, n) a lazy relation is restricted to, read by
# forkmodel.window and by the CLI's eval before any pairing is built.
WINDOW_CAP = 4096

# The longest scan of N through a pairing: the CLI's fix window, checked before
# any pairing is built.
SCAN_CAP = 1 << 20

# The names of the axiom suites, in sorted order: the keys of
# terms.AXIOM_TEXTS and the CLI's --suite choices.
SUITES = ("cfa", "cfau", "cr_equational", "cr_tarski")

"""Nonempty sequences over the projection alphabet {pi, rho}.

Sequences control chains of first/second projection steps.  A ``Seq``
holds its steps as one non-empty tuple of ``PI``/``RHO`` symbols, head
first, in ``symbols``: ``len``, indexing and slicing of that tuple give
a sequence's length, its steps and its suffixes, and
``Seq(tuple(...))`` builds one.  A sequence prints as its dotted text,
such as ``pi.rho``.

``ll_rel(s, t)`` relates a sequence to a binary tree when the sequence
spells a root-to-nil path of the tree (pi descends left, rho right).
"""

from __future__ import annotations

from .errors import PositionedError, RelforkError
from .node import Node

PI = "pi"
RHO = "rho"
_SYMBOLS = (PI, RHO)


class SeqSyntaxError(PositionedError):
    """Raised on malformed sequence text; carries the offending position."""


class Seq(Node):
    __slots__ = ("symbols",)

    def _check(self) -> None:
        if not isinstance(self.symbols, tuple):
            raise RelforkError(
                f"sequence symbols must be a tuple, got {type(self.symbols).__name__}"
            )
        if not self.symbols:
            raise RelforkError("a sequence needs at least one symbol")
        for symbol in self.symbols:
            if symbol not in _SYMBOLS:
                raise RelforkError(f"projection symbol must be 'pi' or 'rho', got {symbol!r}")

    def __repr__(self) -> str:
        return format_seq(self)


def seq_concat(a: Seq, b: Seq) -> Seq:
    return Seq(a.symbols + b.symbols)


def ll_rel(s: Seq, t) -> bool:
    """True when s spells a root-to-nil path of tree t."""
    from .btree import Bin, Nil

    for symbol in s.symbols:
        if not isinstance(t, Bin):
            return False
        t = t.left if symbol == PI else t.right
    return isinstance(t, Nil)


def format_seq(s: Seq) -> str:
    return ".".join(s.symbols)


def parse_seq(text: str) -> Seq:
    """Parse dot-separated sequence text such as ``pi.rho.pi``."""
    stripped = text.strip()
    if not stripped:
        raise SeqSyntaxError("empty sequence", 0)
    parts = stripped.split(".")
    pos = 0
    symbols = []
    for part in parts:
        word = part.strip()
        if word not in _SYMBOLS:
            raise SeqSyntaxError(f"unknown projection symbol {word!r}", text.find(part, pos))
        symbols.append(word)
        pos = text.find(part, pos) + len(part)
    return Seq(tuple(symbols))

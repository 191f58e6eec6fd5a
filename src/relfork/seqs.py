"""Nonempty sequences over the projection alphabet {pi, rho}.

Sequences control chains of first/second projection steps: ``elem *``
is a one-step sequence and ``cons * s`` prepends a step.  Positions are
1-based from the head.  ``seq_suffix(s, i)`` is the length-i tail of s,
so ``seq_suffix(s, seq_long(s)) = s`` and ``seq_suffix(s, 1)`` is the
final step.

``ll_rel(s, t)`` relates a sequence to a binary tree when the sequence
spells a root-to-nil path of the tree (pi descends left, rho right).
"""

from __future__ import annotations

from typing import Tuple, Union

from .errors import PositionedError, RelforkError
from .node import Node

PI = "pi"
RHO = "rho"
_SYMBOLS = (PI, RHO)


class SeqSyntaxError(PositionedError):
    """Raised on malformed sequence text; carries the offending position."""


def _check_symbol(star: str) -> None:
    if star not in _SYMBOLS:
        raise RelforkError(f"projection symbol must be 'pi' or 'rho', got {star!r}")


class Elem(Node):
    __slots__ = ("star",)

    def _check(self) -> None:
        _check_symbol(self.star)

    def __repr__(self) -> str:
        return self.star


class Cons(Node):
    __slots__ = ("star", "rest")

    def _check(self) -> None:
        _check_symbol(self.star)

    def __repr__(self) -> str:
        return f"{self.star}.{self.rest!r}"


Seq = Union[Elem, Cons]


def seq_long(s: Seq) -> int:
    n = 1
    while isinstance(s, Cons):
        n += 1
        s = s.rest
    return n


def seq_index(s: Seq, i: int) -> str:
    """Symbol at 1-based position i counted from the head."""
    if i < 1:
        raise IndexError(f"sequence position must be >= 1, got {i}")
    while isinstance(s, Cons):
        if i == 1:
            return s.star
        i -= 1
        s = s.rest
    if i == 1:
        return s.star
    raise IndexError("sequence position out of range")


def seq_suffix(s: Seq, i: int) -> Seq:
    """The length-i tail of s, for 1 <= i <= seq_long(s)."""
    n = seq_long(s)
    if not 1 <= i <= n:
        raise IndexError(f"suffix length {i} out of range for sequence of length {n}")
    while n > i:
        assert isinstance(s, Cons)
        s = s.rest
        n -= 1
    return s


def seq_concat(a: Seq, b: Seq) -> Seq:
    if isinstance(a, Elem):
        return Cons(a.star, b)
    return Cons(a.star, seq_concat(a.rest, b))


def seq_symbols(s: Seq) -> Tuple[str, ...]:
    out = []
    while isinstance(s, Cons):
        out.append(s.star)
        s = s.rest
    out.append(s.star)
    return tuple(out)


def seq_from_symbols(symbols) -> Seq:
    symbols = tuple(symbols)
    if not symbols:
        raise RelforkError("a sequence needs at least one symbol")
    s: Seq = Elem(symbols[-1])
    for star in reversed(symbols[:-1]):
        s = Cons(star, s)
    return s


def ll_rel(s: Seq, t) -> bool:
    """True when s spells a root-to-nil path of tree t."""
    from .btree import Bin, Nil

    if isinstance(s, Elem):
        if not isinstance(t, Bin):
            return False
        if s.star == PI:
            return isinstance(t.left, Nil)
        return isinstance(t.right, Nil)
    if not isinstance(t, Bin):
        return False
    if s.star == PI:
        return ll_rel(s.rest, t.left)
    return ll_rel(s.rest, t.right)


def format_seq(s: Seq) -> str:
    return ".".join(seq_symbols(s))


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
    return seq_from_symbols(symbols)

"""Binary trees and binary tree contexts.

Trees are the control syntax for tree-indexed fixpoints of a pairing
function: ``nil`` is a leaf and ``(bin l r)`` an internal node.  A tree
context may additionally contain holes; substituting a tree into a
context fills every hole.  A context without holes is itself a tree.

A tree lies strictly below every tree that contains it: ``a < b`` iff
``b = (bin l r)`` and ``a`` equals or lies below ``l`` or ``r``.
``strict_subtrees(b)``, the set of every such ``a``, indexes the
families used by the tree-controlled construction.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Tuple, TypeVar, Union

from .errors import MAX_NESTING, PositionedError, RelforkError
from .node import Node


class TreeSyntaxError(PositionedError):
    """Raised on malformed tree text; carries the offending position."""


class Nil(Node):
    __slots__ = ()

    def __repr__(self) -> str:
        return "nil"


class Hole(Node):
    __slots__ = ()

    def __repr__(self) -> str:
        return "_"


class Bin(Node):
    __slots__ = ("left", "right")

    def __repr__(self) -> str:
        return f"(bin {self.left!r} {self.right!r})"


BT = Union[Nil, Bin]
BTC = Union[Nil, Hole, Bin]

NIL = Nil()
HOLE = Hole()

U = TypeVar("U")


def is_tree(t: BTC) -> bool:
    """True when t contains no holes."""
    if isinstance(t, Bin):
        return is_tree(t.left) and is_tree(t.right)
    return isinstance(t, Nil)


def node_count(t: BTC) -> int:
    if isinstance(t, Bin):
        return 1 + node_count(t.left) + node_count(t.right)
    return 1


def strict_subtrees(t: BT) -> FrozenSet[BT]:
    """All trees strictly below t, i.e. every subtree of a child of t."""
    found: set = set()

    def collect(x: BT) -> None:
        if x in found:
            return
        found.add(x)
        if isinstance(x, Bin):
            collect(x.left)
            collect(x.right)

    if isinstance(t, Bin):
        collect(t.left)
        collect(t.right)
    return frozenset(found)


def tree_map(t: BT, f: Callable[[U, U], U], u: U) -> U:
    """Fold f over the shape of t starting from u at every leaf."""
    if isinstance(t, Nil):
        return u
    if isinstance(t, Bin):
        return f(tree_map(t.left, f, u), tree_map(t.right, f, u))
    raise TypeError(f"not a tree: {t!r}")


def substitute(ctx: BTC, t: BTC) -> BTC:
    """Fill every hole of ctx with t."""
    if isinstance(ctx, Hole):
        return t
    if isinstance(ctx, Bin):
        return Bin(substitute(ctx.left, t), substitute(ctx.right, t))
    return ctx


VARIANT_NODE_CAP = 15


def variants(t: BT) -> FrozenSet[BTC]:
    """All contexts that yield t when nil is substituted for their holes.

    Only nil leaves can be opened into holes, so the result has
    2**(number of nil leaves) elements.  Guarded by a node-count cap.
    """
    if not is_tree(t):
        raise RelforkError("variants expects a tree without holes")
    if node_count(t) > VARIANT_NODE_CAP:
        raise RelforkError(
            f"tree too large for variant enumeration: {node_count(t)} nodes "
            f"(cap {VARIANT_NODE_CAP})"
        )

    def gen(x: BT) -> Tuple[BTC, ...]:
        if isinstance(x, Nil):
            return (NIL, HOLE)
        return tuple(
            Bin(l, r) for l in gen(x.left) for r in gen(x.right)
        )

    return frozenset(gen(t))


def _format_child(t: BTC) -> str:
    text = format_tree(t)
    return f"({text})" if isinstance(t, Bin) else text


def format_tree(t: BTC) -> str:
    if isinstance(t, Nil):
        return "nil"
    if isinstance(t, Hole):
        return "_"
    if isinstance(t, Bin):
        return f"bin {_format_child(t.left)} {_format_child(t.right)}"
    raise TypeError(f"not a tree or context: {t!r}")


def parse_tree(text: str) -> BTC:
    """Parse tree text: ``nil``, ``_``, ``bin <t> <t>`` or ``(<t>)``.

    Neither ``bin`` nodes nor parentheses may nest deeper than
    ``MAX_NESTING``.  They are bounded apart, not summed, because
    ``format_tree`` parenthesises every ``bin`` child.
    """
    tokens = _tokenize_tree(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_node(bins: int, parens: int) -> BTC:
        tok = peek()
        if tok is None:
            raise TreeSyntaxError("unexpected end of input", len(text))
        if max(bins, parens) > MAX_NESTING:
            raise TreeSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok[2])
        kind, value, at = advance()
        if kind == "nil":
            return NIL
        if kind == "hole":
            return HOLE
        if kind == "bin":
            left = parse_node(bins + 1, parens)
            right = parse_node(bins + 1, parens)
            return Bin(left, right)
        if kind == "lparen":
            node = parse_node(bins, parens + 1)
            tok = peek()
            if tok is None or tok[0] != "rparen":
                raise TreeSyntaxError("expected ')'", tok[2] if tok else len(text))
            advance()
            return node
        raise TreeSyntaxError(f"unexpected token {value!r}", at)

    node = parse_node(0, 0)
    if pos != len(tokens):
        raise TreeSyntaxError(f"trailing input {tokens[pos][1]!r}", tokens[pos][2])
    return node


def _tokenize_tree(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "(":
            tokens.append(("lparen", "(", i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", ")", i))
            i += 1
        elif c == "_":
            tokens.append(("hole", "_", i))
            i += 1
        elif c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "nil":
                tokens.append(("nil", word, i))
            elif word == "bin":
                tokens.append(("bin", word, i))
            else:
                raise TreeSyntaxError(f"unknown word {word!r}", i)
            i = j
        else:
            raise TreeSyntaxError(f"unexpected character {c!r}", i)
    return tokens

"""Relational terms, formulas, parsing, evaluation and axiom suites.

Grammar: an expression is an atom, ``( expr )``, a prefix operator and
its operand, or operands joined by an infix or postfix operator.  Atoms
are variables (``[a-z][a-z0-9_]*``), the constants ``0``, ``1``, ``1'``,
``0'``, ``pi``, ``rho`` and ``1u`` (the partial identity on urelements),
and ``rsum(a, b)``, which abbreviates ``~(~a;~b)`` as ``0'`` does ``~1'``.
Each operator's precedence, associativity, sorts and spelling are in the
table ``_OPERATORS``, which the scanner (with ``_CONST_TOKENS``, longest
spelling first), the parser and the printer ``pretty`` read.  Text may
nest at most ``errors.MAX_NESTING`` levels.

One walk, ``compile_term``/``compile_formula``, turns a term or formula
into closures over a model's operations: ``const``, ``union``, ``meet``,
``complement``, ``compose``, ``converse``, ``fork``, ``equal`` and
``below``.  Over a finite :class:`~relfork.relcore.AlgebraModel` they are
bitsliced (see ``_Sliced``).  A carrier is a Boolean algebra of 2**m
elements, and index i is the mask of the atoms below its element, so a
term's value over a batch of assignments is m atom planes, whose bit i
says whether the atom is below the value under assignment i, and a
formula's value is one int with a bit per assignment.  ``check_suite``
runs whole batches, exhaustive or seeded; the formulas of one arity
share each batch.  A batch is its width and its variables' planes, and
nothing else: a failing formula's counterexample is bit i of each
variable's planes, read back by ``_Sliced.relation``, the one decoder.
An exhaustive arity counts: assignment t gives its variables the m-bit
digits of t, and a batch is an aligned block of 2**w numbers t.  A
sampled arity draws its atom planes: bit p of variable j's index under
trial t is bit t of stream (j, p), seeded from the arity's
``random.Random(seed)``.  ``check_formula`` is a suite of one, and
``eval_term``/``eval_formula`` run a batch of one.  Over a pairing
function the operations are ``ForkBackend``'s, always a batch of one.
"""

from __future__ import annotations

import random
import struct
from functools import reduce
from operator import and_, invert, or_, xor
from typing import Callable, Dict, List, Optional, Tuple

from .errors import MAX_NESTING, SUITES, PositionedError, RelforkError
from .node import Node, Scope
from .relcore import AlgebraModel, FiniteRelation, RelationError


class ParseError(PositionedError):
    """Raised on malformed term or formula text; carries the offending position."""


class EvalError(RelforkError):
    pass


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound-variable: {name}")
        self.name = name


class NoForkStructureError(EvalError):
    def __init__(self, what: str):
        super().__init__(f"no-fork-structure: {what} needs a fork backend")


# ---------------------------------------------------------------------------
# Abstract syntax


class Var(Node):
    __slots__ = ("name",)


class Const(Node):
    __slots__ = ("kind",)  # zero | one | id | pi | rho | urid


class Union(Node):
    __slots__ = ("left", "right")


class Meet(Node):
    __slots__ = ("left", "right")


class Complement(Node):
    __slots__ = ("arg",)


class Compose(Node):
    __slots__ = ("left", "right")


class Converse(Node):
    __slots__ = ("arg",)


class Fork(Node):
    __slots__ = ("left", "right")


class Eq(Node):
    __slots__ = ("left", "right")


class Leq(Node):
    __slots__ = ("left", "right")


class Not(Node):
    __slots__ = ("arg",)


class And(Node):
    __slots__ = ("left", "right")


class Or(Node):
    __slots__ = ("left", "right")


class Implies(Node):
    __slots__ = ("left", "right")


_CONST_TOKENS = {"0": "zero", "1": "one", "1'": "id", "pi": "pi", "rho": "rho", "1u": "urid"}
_CONST_TEXT = {kind: text for text, kind in _CONST_TOKENS.items()}

_TERM, _FORMULA = "term", "formula"


class _Op(Node):
    __slots__ = (
        "node",
        "level",
        "fixity",  # prefix | postfix | left | right (associativity of a binary operator)
        "spelling",  # as printed; without spaces it is the token
        "takes",  # sort of the operands
        "gives",  # sort of the result
    )


# Every operator, loosest first.  An operand binds at the operator's level or
# tighter, and one level tighter on the side the operator does not associate
# to.  A comparison takes terms and gives a formula, so comparisons cannot chain.
_OPERATORS = (
    _Op(Implies, 1, "right", " -> ", _FORMULA, _FORMULA),
    _Op(Or, 2, "left", " \\/ ", _FORMULA, _FORMULA),
    _Op(And, 3, "left", " /\\ ", _FORMULA, _FORMULA),
    _Op(Not, 4, "prefix", "!", _FORMULA, _FORMULA),
    _Op(Eq, 5, "left", " = ", _TERM, _FORMULA),
    _Op(Leq, 5, "left", " <= ", _TERM, _FORMULA),
    _Op(Union, 6, "left", " + ", _TERM, _TERM),
    _Op(Meet, 7, "left", " & ", _TERM, _TERM),
    _Op(Compose, 8, "left", ";", _TERM, _TERM),
    _Op(Fork, 8, "left", " # ", _TERM, _TERM),
    _Op(Complement, 9, "prefix", "~", _TERM, _TERM),
    _Op(Converse, 10, "postfix", "^", _TERM, _TERM),
)
_ATOM_LEVEL = 11
_BY_NODE = {op.node: op for op in _OPERATORS}
_PREFIX = {op.spelling: op for op in _OPERATORS if op.fixity == "prefix"}
_INFIX = {op.spelling.strip(): op for op in _OPERATORS if op.fixity != "prefix"}


def _op_of(node) -> Optional[_Op]:
    """The table row of node's operator, or None for a variable or constant."""
    op = _BY_NODE.get(type(node))
    if op is None and not isinstance(node, (Var, Const)):
        raise TypeError(f"not a term or formula: {node!r}")
    return op


def _sort(node) -> str:
    op = _op_of(node)
    return _TERM if op is None else op.gives


# ---------------------------------------------------------------------------
# Tokenizer


# Names are ASCII: [a-z][a-z0-9_]*.
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyz")
_NAME_CHARS = _NAME_START | frozenset("0123456789_")

# Every spelling but a variable's, with its token kind: "const" or itself.
_TOKEN_KINDS = {text: "const" for text in (*_CONST_TOKENS, "0'")}
_TOKEN_KINDS.update((text, text) for text in ("(", ")", ",", "rsum", *_PREFIX, *_INFIX))
# The spellings that do not start a name, by first character, longest first.
_MARKS = {
    c: sorted((text for text in _TOKEN_KINDS if text[0] == c), key=len, reverse=True)
    for c in {text[0] for text in _TOKEN_KINDS} - _NAME_START
}


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, text, position) of each token: a whole name, else the longest mark."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _NAME_START:
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
        else:
            for mark in _MARKS.get(c, ()):
                if text.startswith(mark, i):
                    j = i + len(mark)
                    break
            else:
                raise ParseError(f"unknown token {c!r}", i)
        word = text[i:j]
        tokens.append((_TOKEN_KINDS.get(word, "var"), word, i))
        i = j
    return tokens


# ---------------------------------------------------------------------------
# Parser: precedence climbing over _OPERATORS, with nesting counted


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expect(self, kind: str) -> None:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {kind!r} but input ended", len(self.text))
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1

    @staticmethod
    def bounded(nesting: int, at: int) -> int:
        if nesting > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", at)
        return nesting

    @staticmethod
    def check_sort(node, sort: str, tok: Tuple[str, str, int]) -> None:
        if _sort(node) != sort:
            raise ParseError(f"{tok[1]!r} takes {sort}s, found a {_sort(node)}", tok[2])

    def expr(self, level: int, depth: int):
        """Parse operators binding at ``level`` or tighter; return (node, nesting).

        ``depth`` counts the levels enclosing this expression.  Its nesting
        is ``depth`` plus its height, where each operator and each pair of
        parentheses is one level; past ``MAX_NESTING`` it is refused.
        """
        node, nesting = self.operand(depth)
        while True:
            tok = self.peek()
            op = _INFIX.get(tok[0]) if tok else None
            if op is None or op.level < level:
                return node, nesting
            self.pos += 1
            self.check_sort(node, op.takes, tok)
            if op.fixity == "postfix":
                node, nesting = op.node(node), nesting + 1
            else:
                right, right_nesting = self.expr(op.level + (op.fixity == "left"), depth + 1)
                self.check_sort(right, op.takes, tok)
                node, nesting = op.node(node, right), max(nesting + 1, right_nesting)
            self.bounded(nesting, tok[2])

    def operand(self, depth: int):
        """An atom, a parenthesised expression or a prefix operator with its operand."""
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term or formula but input ended", len(self.text))
        kind, value, at = tok
        self.pos += 1
        self.bounded(depth, at)
        if kind == "var":
            return Var(value), depth
        if kind == "const":
            if value == "0'":
                return Complement(Const("id")), self.bounded(depth + 1, at)
            return Const(_CONST_TOKENS[value]), depth
        if kind == "(":
            node, nesting = self.expr(0, depth + 1)
            self.expect(")")
            return node, nesting
        if kind == "rsum":
            # rsum(a, b) prints as ~(~a;~b): up to five levels around a and b.
            self.expect("(")
            left, left_nesting = self.expr(0, depth + 5)
            self.check_sort(left, _TERM, tok)
            self.expect(",")
            right, right_nesting = self.expr(0, depth + 5)
            self.check_sort(right, _TERM, tok)
            self.expect(")")
            rsum = Complement(Compose(Complement(left), Complement(right)))
            return rsum, max(left_nesting, right_nesting)
        op = _PREFIX.get(kind)
        if op is None:
            raise ParseError(f"expected a term or formula, found {value!r}", at)
        arg, nesting = self.expr(op.level, depth + 1)
        self.check_sort(arg, op.takes, tok)
        return op.node(arg), nesting


def parse(text: str):
    """Parse a term or a formula, whichever the text is."""
    parser = _Parser(text)
    node, _ = parser.expr(0, 0)
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input, found {tok[1]!r}", tok[2])
    return node


def _parse_sort(text: str, sort: str):
    node = parse(text)
    if _sort(node) != sort:
        raise ParseError(f"expected a {sort}, found a {_sort(node)}", 0)
    return node


def parse_term(text: str):
    return _parse_sort(text, _TERM)


def parse_formula(text: str):
    return _parse_sort(text, _FORMULA)


# ---------------------------------------------------------------------------
# Pretty printer


def pretty(node) -> str:
    """Print a term or formula with the parentheses ``_OPERATORS`` requires."""
    op = _op_of(node)
    if op is None:
        return node.name if isinstance(node, Var) else _CONST_TEXT[node.kind]
    if op.fixity == "prefix":
        return op.spelling + _operand_text(node.arg, op.level)
    if op.fixity == "postfix":
        return _operand_text(node.arg, op.level) + op.spelling
    left, right = (op.level + 1, op.level) if op.fixity == "right" else (op.level, op.level + 1)
    return _operand_text(node.left, left) + op.spelling + _operand_text(node.right, right)


def _operand_text(node, level: int) -> str:
    op = _op_of(node)
    text = pretty(node)
    return f"({text})" if (_ATOM_LEVEL if op is None else op.level) < level else text


def _nodes(node):
    """node and every node below it, in pre-order."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        op = _op_of(node)
        if op is None:
            continue
        unary = op.fixity in ("prefix", "postfix")
        stack.extend((node.arg,) if unary else (node.right, node.left))


def free_variables(node) -> Tuple[str, ...]:
    return tuple(sorted({x.name for x in _nodes(node) if isinstance(x, Var)}))


# ---------------------------------------------------------------------------
# Evaluation: one walk, over the operations of either kind of model


def compile_term(t, ops) -> Callable[[Dict[str, object]], object]:
    """Closure env -> value of t, computed by the operations ``ops``.

    ``ops`` is ``_Sliced`` for a finite model or ``ForkBackend``.  A
    constant the model lacks is refused here, before any evaluation.
    """
    if isinstance(t, Var):
        name = t.name

        def run_var(env):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariableError(name) from None

        return run_var
    if isinstance(t, Const):
        kind, const = t.kind, ops.const
        const(kind)  # raises for a constant the model lacks
        return lambda env: const(kind)
    if isinstance(t, (Complement, Converse)):
        arg = compile_term(t.arg, ops)
        op = ops.complement if isinstance(t, Complement) else ops.converse
        return lambda env: op(arg(env))
    binops = {Union: ops.union, Meet: ops.meet, Compose: ops.compose, Fork: ops.fork}
    op = binops.get(type(t))
    if op is None:
        raise TypeError(f"not a term: {t!r}")
    left, right = compile_term(t.left, ops), compile_term(t.right, ops)
    return lambda env: op(left(env), right(env))


def compile_formula(f, ops) -> Callable[[Dict[str, object]], int]:
    """Closure env -> truth of f: bit i is its truth under assignment i of
    the batch whose mask is ``ops.full`` (1 for a batch of one)."""
    if isinstance(f, (Eq, Leq)):
        left, right = compile_term(f.left, ops), compile_term(f.right, ops)
        test = ops.equal if isinstance(f, Eq) else ops.below
        return lambda env: test(left(env), right(env))
    if isinstance(f, Not):
        arg = compile_formula(f.arg, ops)
        return lambda env: ops.full ^ arg(env)
    if not isinstance(f, (And, Or, Implies)):
        raise TypeError(f"not a formula: {f!r}")
    left, right = compile_formula(f.left, ops), compile_formula(f.right, ops)
    # The right operand runs only where the left one leaves the batch
    # undecided, so a batch of one short-circuits as Python does.
    if isinstance(f, And):
        return lambda env: (m := left(env)) and m & right(env)
    if isinstance(f, Or):
        return lambda env: m if (m := left(env)) == ops.full else m | right(env)
    return lambda env: (ops.full ^ m) | right(env) if (m := left(env)) else ops.full


# ---------------------------------------------------------------------------
# Bitsliced operations over a finite model

# A batch's term values take at most this many bits: width * m.
SLICE_BITS = 1 << 22


class _Sliced:
    """The operations of a finite model over a batch of assignments.

    A term's value is m ints, the planes of the model's atoms: bit i of
    plane p says whether ``atoms[p]`` is below the value under assignment
    i.  A carrier index is an atom mask, so a variable enters as its
    planes, drawn (sampled) or read with ``planes`` (exhaustive), and no
    carrier is listed.  ``equal`` and ``below`` give one int whose bit i
    is the comparison under assignment i.  ``full`` has one bit per
    assignment of the current batch; ``check_suite`` sets it from the
    batch's width before the batch runs.

    Every atom lies under the unit, so the Boolean operations act plane
    by plane, and converse permutes the atoms.  Plane c of x;y is the OR
    of x[a] & y[b] over ``table[c]``, the atom pairs with c <= a;b (the
    atom structure of Jonsson and Tarski).  Each a;b is a union of atoms,
    so c <= a;b iff a holds (x, y) and b holds (y, z) for some y, where
    (x, z) is one cell of c; c's converse is the atom holding (z, x).
    """

    # _BITS[k] maps a byte to b"1" where its bit k is set, else to b"0".
    _BITS = [bytes(b"01"[x >> k & 1] for x in range(256)) for k in range(8)]

    def __init__(self, model: AlgebraModel):
        self.model = model
        self.full = 1
        self.m = m = len(model.atoms)
        atom_at = {cell: p for p, atom in enumerate(model.atoms) for cell in atom.pairs()}
        self.table, self.converses = [], []
        for atom in model.atoms:
            x, z = atom.pairs()[0]
            ys = (y for y in range(model.base_size) if (x, y) in atom_at and (y, z) in atom_at)
            self.table.append(sorted({(atom_at[x, y], atom_at[y, z]) for y in ys}))
            self.converses.append(atom_at[z, x])
        self.consts = {"zero": 0, "one": (1 << m) - 1, "id": model.index(model.identity)}
        self.width_cap = max(1, SLICE_BITS // max(1, m))

    def const(self, kind: str) -> List[int]:
        index = self.consts.get(kind)
        if index is None:
            raise NoForkStructureError(f"constant {_CONST_TEXT[kind]!r}")
        return self.constant(index)

    def constant(self, index: int) -> List[int]:
        """carrier[index] under every assignment of the batch."""
        full = self.full
        return [full if index >> p & 1 else 0 for p in range(self.m)]

    def planes(self, data: bytes, bits: range) -> List[int]:
        """One int per b in bits, whose bit i is bit b of the little-endian
        32-bit word i of data, read off its bytes as text."""
        last = len(data) - 4
        return [int(data[last + b // 8 :: -4].translate(self._BITS[b % 8]), 2) for b in bits]

    @staticmethod
    def union(v: List[int], w: List[int]) -> List[int]:
        return list(map(or_, v, w))

    @staticmethod
    def meet(v: List[int], w: List[int]) -> List[int]:
        return list(map(and_, v, w))

    def complement(self, v: List[int]) -> List[int]:
        full = self.full
        return [full ^ x for x in v]

    def compose(self, v: List[int], w: List[int]) -> List[int]:
        return [reduce(or_, [v[a] & w[b] for a, b in pairs], 0) for pairs in self.table]

    def converse(self, v: List[int]) -> List[int]:
        return list(map(v.__getitem__, self.converses))

    def fork(self, v: List[int], w: List[int]):
        raise NoForkStructureError("fork")

    def equal(self, v: List[int], w: List[int]) -> int:
        return self.full ^ reduce(or_, map(xor, v, w), 0)

    def below(self, v: List[int], w: List[int]) -> int:
        return self.full ^ reduce(or_, map(and_, v, map(invert, w)), 0)

    def relation(self, planes: List[int]) -> FiniteRelation:
        """The relation of a width-1 value."""
        return self.model.element(sum(bit << p for p, bit in enumerate(planes)))

    def env(self, env: Dict[str, FiniteRelation]) -> Dict[str, List[int]]:
        """A width-1 batch of one assignment of relations."""
        n = self.model.base_size
        batch = {}
        for name, rel in env.items():
            if rel.base_size != n:
                raise RelationError(f"base-size mismatch: {rel.base_size} vs {n}")
            index = self.model.index(rel)
            if index is None:
                raise RelationError(f"binding {name!r} is not an element of the model")
            batch[name] = self.constant(index)
        return batch


def eval_term(t, env: Dict[str, object], model):
    """Evaluate a term against a finite model or a fork backend."""
    if isinstance(model, AlgebraModel):
        sliced = _Sliced(model)
        return sliced.relation(compile_term(t, sliced)(sliced.env(env)))
    return compile_term(t, model)(env)


def eval_formula(f, env: Dict[str, object], model) -> bool:
    if isinstance(model, AlgebraModel):
        sliced = _Sliced(model)
        return compile_formula(f, sliced)(sliced.env(env)) == 1
    return compile_formula(f, model)(env) == 1


# ---------------------------------------------------------------------------
# Formula checking over finite models


class CheckReport(Node):
    """The verdict on one formula: ``scope`` is ``Scope("exhaustive", None)``
    or ``Scope("sampled", K)``, ``checked`` counts the assignments evaluated,
    and ``counterexample`` is the first failing one or None."""

    __slots__ = ("formula", "scope", "valid", "checked", "counterexample")

    def counterexample_text(self) -> Optional[Dict[str, list]]:
        if self.counterexample is None:
            return None
        return {
            name: sorted(rel.pairs()) for name, rel in self.counterexample.items()
        }


DEFAULT_ASSIGNMENT_CAP = 1 << 27


def sample_count(strategy) -> Optional[int]:
    """The trial count of ``("sampled", count)``, or None for ``"exhaustive"``.

    Refuses, before any work, an unknown strategy, a count that is not
    an ``int`` (bools included) and a count below 1 or above
    ``DEFAULT_ASSIGNMENT_CAP``.
    """
    if strategy == "exhaustive":
        return None
    if not (isinstance(strategy, tuple) and len(strategy) == 2 and strategy[0] == "sampled"):
        raise EvalError(f"unknown strategy {strategy!r}")
    count = strategy[1]
    if type(count) is not int:
        raise EvalError(f"sampled count must be an integer, got {count!r}")
    if count < 1:
        raise EvalError(f"sampled count must be at least 1, got {count}")
    if count > DEFAULT_ASSIGNMENT_CAP:
        raise EvalError(f"sampled count {count} exceeds cap {DEFAULT_ASSIGNMENT_CAP}")
    return count


def _first_failure(mask: int, full: int) -> Optional[int]:
    failing = full ^ mask
    return (failing & -failing).bit_length() - 1 if failing else None


# A batch source yields (width, columns): columns[j] is the value of a
# formula's j-th variable over the batch's width assignments, each plane
# below 1 << width.  ``check_suite`` sets ``full`` from width and reads a
# counterexample off bit i of the columns with ``_Sliced.relation``.


def _exhaustive_batches(sliced: _Sliced, nvars: int):
    """Batches covering carrier**nvars in itertools.product order.

    That order is counting: under assignment t, variable j's index is the
    m-bit digit of t at bit m * (nvars - 1 - j), so atom p of variable j
    holds where bit m * (nvars - 1 - j) + p of t is set.  A batch is an
    aligned block [lo, lo + 2**w) of assignments, 2**w the largest power of
    two within ``width_cap`` and the space.  A bit below w of lo + i is bit
    i's own, the same plane in every batch, read once off the counting
    words 0, 1, ..., 2**w - 1; a bit from w up is lo's, ``full`` or 0.
    """
    m, span = sliced.m, sliced.m * nvars  # span: the bits of an assignment number
    w = min(sliced.width_cap.bit_length() - 1, span)
    width = 1 << w
    full = (1 << width) - 1
    step = min(width, 4096)  # words packed at a time, so no 2**w-int tuple is made
    # The 2**w-word buffer is kept, though the planes could be built without
    # it: freeing it (1 MiB at w = 18) raises glibc's dynamic trim threshold,
    # and the exhaustive checks' wall time and page faults depend on that.
    words = (struct.pack(f"<{step}I", *range(s, s + step)) for s in range(0, width, step))
    low = sliced.planes(b"".join(words), range(w))
    for lo in range(0, 1 << span, width):
        bits = low + [full if lo >> b & 1 else 0 for b in range(w, span)]
        yield width, [bits[m * j : m * j + m] for j in reversed(range(nvars))]


def _sampled_batches(sliced: _Sliced, nvars: int, count: int, seed: int):
    """Batches of ``count`` seeded trials of nvars carrier indices each.

    The group's ``random.Random(seed)`` seeds, with 64 bits each, one
    ``random.Random`` stream per variable and atom, in that order.  Bit p
    of variable j's index under trial t is bit t of stream (j, p), and a
    batch's planes are one ``getrandbits(width)`` per stream.  Each batch
    but the last is ``width_cap`` in whole 32-bit words (at least one), so
    a stream's bits are one ``getrandbits(count)``'s, at any ``SLICE_BITS``.
    """
    rng = random.Random(seed)
    atoms = range(sliced.m)
    streams = [[random.Random(rng.getrandbits(64)) for _ in atoms] for _ in range(nvars)]
    cap = max(32, sliced.width_cap & -32)
    done = 0
    while done < count:
        width = min(count - done, cap)
        yield width, [[stream.getrandbits(width) for stream in row] for row in streams]
        done += width


def check_suite(
    formulas,
    model: AlgebraModel,
    strategy="exhaustive",
    seed: int = 0,
) -> List[CheckReport]:
    """Check each formula over all (or sampled) assignments of carrier elements.

    ``strategy`` is ``"exhaustive"`` or ``("sampled", count)``.  A formula's
    variables are enumerated in sorted name order, assignments in the
    carrier's canonical order or in seeded draw order, and its first
    failing assignment is reported.  Formulas with the same number of
    variables share each batch: it is enumerated or drawn, and its
    columns built, once, and every formula that has not yet failed
    runs on it (see ``_Sliced``).  A group stops at its last batch or
    once all its formulas have failed.  A sampled group draws from its own
    generator (see ``_sampled_batches``), so each report is the one the
    formula would get if checked alone.  Before any formula is compiled,
    the exhaustive strategy refuses the whole list if one formula has more
    than ``DEFAULT_ASSIGNMENT_CAP`` assignments, and the sampled one a
    count above that cap.  First of all, a seed that is not an int is refused.
    """
    if type(seed) is not int:
        raise EvalError(f"seed must be an integer, got {seed!r}")
    formulas = [parse_formula(f) if isinstance(f, str) else f for f in formulas]
    count = sample_count(strategy)
    names = [free_variables(f) for f in formulas]
    size = 1 << len(model.atoms)
    for nvars in map(len, names):
        if count is None and size**nvars > DEFAULT_ASSIGNMENT_CAP:
            raise EvalError(
                f"assignment space {size}**{nvars} exceeds cap {DEFAULT_ASSIGNMENT_CAP}; "
                "use a sampled strategy"
            )
    scope = Scope("exhaustive", None) if count is None else Scope("sampled", count)
    texts = [pretty(f) for f in formulas]
    sliced = _Sliced(model)
    runs = [compile_formula(f, sliced) for f in formulas]
    reports: List[Optional[CheckReport]] = [None] * len(formulas)
    groups: Dict[int, List[int]] = {}
    for k, formula_names in enumerate(names):
        groups.setdefault(len(formula_names), []).append(k)
    for nvars, live in groups.items():
        if count is None:
            batches = _exhaustive_batches(sliced, nvars)
        else:
            batches = _sampled_batches(sliced, nvars, count, seed)
        checked = 0
        for width, columns in batches:
            sliced.full = (1 << width) - 1
            passing = []
            for k in live:
                failure = _first_failure(runs[k](dict(zip(names[k], columns))), sliced.full)
                if failure is None:
                    passing.append(k)
                    continue
                counterexample = {
                    name: sliced.relation([plane >> failure & 1 for plane in column])
                    for name, column in zip(names[k], columns)
                }
                reports[k] = CheckReport(
                    texts[k], scope, False, checked + failure + 1, counterexample
                )
            live = passing
            checked += width
            if not live:
                break
        for k in live:
            reports[k] = CheckReport(texts[k], scope, True, checked, None)
    return reports


def check_formula(
    formula,
    model: AlgebraModel,
    strategy="exhaustive",
    seed: int = 0,
) -> CheckReport:
    """Check one formula: ``check_suite([formula], ...)[0]``."""
    return check_suite([formula], model, strategy, seed)[0]


# ---------------------------------------------------------------------------
# Axiom suites

_HUNTINGTON = (
    "x + y = y + x",
    "x + (y + z) = (x + y) + z",
    "~(~x + ~y) + ~(~x + y) = x",
)

_TARSKI_RELATIONAL = (
    "(x = y /\\ x = z) -> y = z",
    "x = y -> (x + z = y + z /\\ x & z = y & z)",
    "x + y = y + x /\\ x & y = y & x",
    "x + (y & z) = (x + y) & (x + z) /\\ x & (y + z) = (x & y) + (x & z)",
    "x + 0 = x /\\ x & 1 = x",
    "x + ~x = 1 /\\ x & ~x = 0",
    "~1 = 0",
    "x^^ = x",
    "(x;y)^ = y^;x^",
    "x;(y;z) = (x;y);z",
    "x;1' = x",
    "x;1 = 1 \\/ 1;~x = 1",
    "(x;y) & z^ = 0 -> (y;z) & x^ = 0",
)

_EQUATIONAL = (
    "x;(y;z) = (x;y);z",
    "(x + y);z = x;z + y;z",
    "(x + y)^ = x^ + y^",
    "x^^ = x",
    "x;1' = x",
    "(x;y)^ = y^;x^",
    "(x;y) & z <= (x & (z;y^));(y & (x^;z))",
)

_FORK = (
    "x # y = (x;(1' # 1)) & (y;(1 # 1'))",
    "(x # y);(z # w)^ = (x;z^) & (y;w^)",
    "(1' # 1)^ # (1 # 1')^ <= 1'",
)

_URELEMENT = ("1;(~(1 # 1) & 1');1 = 1",)

AXIOM_TEXTS: Dict[str, Tuple[str, ...]] = {
    "cr_tarski": _HUNTINGTON + _TARSKI_RELATIONAL,
    "cr_equational": _EQUATIONAL,
    "cfa": _EQUATIONAL + _FORK,
    "cfau": _EQUATIONAL + _FORK + _URELEMENT,
}
assert tuple(sorted(AXIOM_TEXTS)) == SUITES, "errors.SUITES names the suites"

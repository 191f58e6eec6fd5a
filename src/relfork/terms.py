"""Relational terms, formulas, parsing, evaluation and axiom suites.

Grammar: an expression is an atom, ``( expr )``, a prefix operator and
its operand, or operands joined by an infix or postfix operator.  Atoms
are variables (``[a-z][a-z0-9_]*``), the constants ``0``, ``1``, ``1'``,
``0'``, ``pi``, ``rho`` and ``1u`` (the partial identity on urelements),
and ``rsum(a, b)``, which abbreviates ``~(~a;~b)`` as ``0'`` does ``~1'``.
Each operator's precedence, associativity, sorts and spelling are in the
table ``_OPERATORS``, which both the parser and the printer read.  Text
may nest at most ``errors.MAX_NESTING`` levels.

Evaluation works against a finite :class:`~relfork.relcore.AlgebraModel`
or against any backend object exposing ``const``, ``union``, ``meet``,
``complement``, ``compose``, ``converse`` and ``fork``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import MAX_NESTING, PositionedError, RelforkError
from .relcore import AlgebraModel, FiniteRelation


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


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    kind: str  # zero | one | id | pi | rho | urid


@dataclass(frozen=True)
class Union:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Meet:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Complement:
    arg: "Term"


@dataclass(frozen=True)
class Compose:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Converse:
    arg: "Term"


@dataclass(frozen=True)
class Fork:
    left: "Term"
    right: "Term"


Term = "Var | Const | Union | Meet | Complement | Compose | Converse | Fork"


@dataclass(frozen=True)
class Eq:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Leq:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = "Eq | Leq | Not | And | Or | Implies"

_CONST_TOKENS = {"0": "zero", "1": "one", "1'": "id", "pi": "pi", "rho": "rho", "1u": "urid"}
_CONST_TEXT = {kind: text for text, kind in _CONST_TOKENS.items()}

_TERM, _FORMULA = "term", "formula"


@dataclass(frozen=True)
class _Op:
    node: type
    level: int
    fixity: str  # prefix | postfix | left | right (associativity of a binary operator)
    spelling: str  # as printed; without spaces it is the token
    takes: str  # sort of the operands
    gives: str  # sort of the result


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
_SYMBOLS = {"(", ")", ","} | {op.spelling.strip() for op in _OPERATORS}


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


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "01":
            word = text[i : i + 2] if text[i : i + 2] in ("0'", "1'", "1u") else c
            tokens.append(("const", word, i))
            i += len(word)
            continue
        if c.isalpha() and c.islower():
            j = i
            while j < n and (text[j].islower() or text[j].isdigit() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in ("pi", "rho"):
                tokens.append(("const", word, i))
            elif word == "rsum":
                tokens.append(("rsum", word, i))
            else:
                tokens.append(("var", word, i))
            i = j
            continue
        symbol = text[i : i + 2] if text[i : i + 2] in _SYMBOLS else c
        if symbol in _SYMBOLS:
            tokens.append((symbol, symbol, i))
            i += len(symbol)
            continue
        raise ParseError(f"unknown token {c!r}", i)
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


def _pretty_sort(node, sort: str) -> str:
    if _sort(node) != sort:
        raise TypeError(f"not a {sort}: {node!r}")
    return pretty(node)


def pretty_term(t) -> str:
    return _pretty_sort(t, _TERM)


def pretty_formula(f) -> str:
    return _pretty_sort(f, _FORMULA)


def free_variables(node) -> Tuple[str, ...]:
    names: set = set()

    def walk(x) -> None:
        if isinstance(x, Var):
            names.add(x.name)
        elif isinstance(x, (Const,)):
            return
        elif isinstance(x, (Complement, Converse, Not)):
            walk(x.arg)
        else:
            walk(x.left)
            walk(x.right)

    walk(node)
    return tuple(sorted(names))


# ---------------------------------------------------------------------------
# Evaluation


class _FiniteOps:
    """Term operations over a finite algebra model."""

    def __init__(self, model: AlgebraModel):
        self.model = model

    def const(self, kind: str):
        if kind == "zero":
            return self.model.empty
        if kind == "one":
            return self.model.unit
        if kind == "id":
            return self.model.identity
        raise NoForkStructureError(f"constant {_CONST_TEXT[kind]!r}")

    def union(self, r, s):
        return r.union(s)

    def meet(self, r, s):
        return r.meet(s)

    def complement(self, r):
        return r.complement_in(self.model.unit)

    def compose(self, r, s):
        return r.compose(s)

    def converse(self, r):
        return r.converse()

    def fork(self, r, s):
        raise NoForkStructureError("fork")

    def equal(self, r, s) -> bool:
        return r == s

    def below(self, r, s) -> bool:
        return r.is_subset(s)


def _ops_for(model):
    if isinstance(model, AlgebraModel):
        return _FiniteOps(model)
    if all(
        hasattr(model, name)
        for name in ("const", "union", "meet", "complement", "compose", "converse", "fork")
    ):
        return model
    raise TypeError(f"not an evaluation backend: {model!r}")


def compile_term(t, ops) -> Callable[[Dict[str, object]], object]:
    if isinstance(t, Var):
        name = t.name

        def run_var(env):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariableError(name) from None

        return run_var
    if isinstance(t, Const):
        value = ops.const(t.kind)
        return lambda env: value
    if isinstance(t, Complement):
        arg = compile_term(t.arg, ops)
        op = ops.complement
        return lambda env: op(arg(env))
    if isinstance(t, Converse):
        arg = compile_term(t.arg, ops)
        op = ops.converse
        return lambda env: op(arg(env))
    binops = {Union: ops.union, Meet: ops.meet, Compose: ops.compose, Fork: ops.fork}
    for node_type, op in binops.items():
        if isinstance(t, node_type):
            left = compile_term(t.left, ops)
            right = compile_term(t.right, ops)
            return lambda env, op=op, left=left, right=right: op(left(env), right(env))
    raise TypeError(f"not a term: {t!r}")


def compile_formula(f, ops) -> Callable[[Dict[str, object]], bool]:
    if isinstance(f, Eq):
        left = compile_term(f.left, ops)
        right = compile_term(f.right, ops)
        eq = ops.equal
        return lambda env: eq(left(env), right(env))
    if isinstance(f, Leq):
        left = compile_term(f.left, ops)
        right = compile_term(f.right, ops)
        below = ops.below
        return lambda env: below(left(env), right(env))
    if isinstance(f, Not):
        arg = compile_formula(f.arg, ops)
        return lambda env: not arg(env)
    if isinstance(f, And):
        left = compile_formula(f.left, ops)
        right = compile_formula(f.right, ops)
        return lambda env: left(env) and right(env)
    if isinstance(f, Or):
        left = compile_formula(f.left, ops)
        right = compile_formula(f.right, ops)
        return lambda env: left(env) or right(env)
    if isinstance(f, Implies):
        left = compile_formula(f.left, ops)
        right = compile_formula(f.right, ops)
        return lambda env: (not left(env)) or right(env)
    raise TypeError(f"not a formula: {f!r}")


def eval_term(t, env: Dict[str, object], model):
    """Evaluate a term against a model or fork backend."""
    return compile_term(t, _ops_for(model))(env)


def eval_formula(f, env: Dict[str, object], model) -> bool:
    return compile_formula(f, _ops_for(model))(env)


# ---------------------------------------------------------------------------
# Formula checking over finite models


@dataclass
class CheckReport:
    formula: str
    strategy: str
    valid: bool
    checked: int
    counterexample: Optional[Dict[str, FiniteRelation]]

    def counterexample_text(self) -> Optional[Dict[str, list]]:
        if self.counterexample is None:
            return None
        return {
            name: sorted(rel.pairs()) for name, rel in self.counterexample.items()
        }


DEFAULT_ASSIGNMENT_CAP = 1 << 22


def check_formula(
    formula,
    model: AlgebraModel,
    strategy="exhaustive",
    seed: int = 0,
    assignment_cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> CheckReport:
    """Check a formula over all (or sampled) assignments of carrier elements.

    ``strategy`` is ``"exhaustive"`` or ``("sampled", count)``.  Variables
    are enumerated in sorted name order, assignments in the carrier's
    canonical order, and the first failing assignment is reported.
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    names = free_variables(formula)
    ops = _FiniteOps(model)
    run = compile_formula(formula, ops)
    carrier = model.carrier

    if strategy == "exhaustive":
        total = len(carrier) ** len(names)
        if total > assignment_cap:
            raise EvalError(
                f"assignment space {len(carrier)}**{len(names)} exceeds cap {assignment_cap}; "
                "use a sampled strategy"
            )
        checked = 0
        for combo in itertools.product(carrier, repeat=len(names)):
            env = dict(zip(names, combo))
            checked += 1
            if not run(env):
                return CheckReport(pretty_formula(formula), "exhaustive", False, checked, env)
        return CheckReport(pretty_formula(formula), "exhaustive", True, checked, None)

    if isinstance(strategy, tuple) and len(strategy) == 2 and strategy[0] == "sampled":
        count = int(strategy[1])
        if count < 1:
            raise EvalError(f"sampled count must be at least 1, got {count}")
        rng = random.Random(seed)
        for checked in range(1, count + 1):
            env = {name: carrier[rng.randrange(len(carrier))] for name in names}
            if not run(env):
                return CheckReport(
                    pretty_formula(formula), f"sampled({count})", False, checked, env
                )
        return CheckReport(pretty_formula(formula), f"sampled({count})", True, count, None)

    raise EvalError(f"unknown strategy {strategy!r}")


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


def axiom_suite(name: str) -> List[object]:
    """Parsed formulas of the named suite."""
    try:
        texts = AXIOM_TEXTS[name]
    except KeyError:
        raise EvalError(
            f"unknown suite {name!r}; expected one of {sorted(AXIOM_TEXTS)}"
        ) from None
    return [parse_formula(text) for text in texts]

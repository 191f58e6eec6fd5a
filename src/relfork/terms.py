"""Relational terms, formulas, parsing, evaluation and axiom suites.

Term grammar (tightest first): prefix ``~`` and postfix ``^`` bind the
strongest, then ``;`` and ``#`` (left associative, same level), then
``&``, then ``+``.  Constants are ``0``, ``1``, ``1'``, ``0'``, ``pi``,
``rho`` and ``1u`` (the partial identity on urelements); variables
match ``[a-z][a-z0-9_]*``.  ``rsum(a, b)`` abbreviates ``~(~a;~b)`` and
``0'`` abbreviates ``~1'``; both are expanded while parsing.

Formulas compare terms with ``=`` or ``<=`` and combine comparisons
with ``!``, ``/\\``, ``\\/`` and ``->``.

Evaluation works against a finite :class:`~relfork.relcore.AlgebraModel`
or against any backend object exposing ``const``, ``union``, ``meet``,
``complement``, ``compose``, ``converse`` and ``fork``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import PositionedError, RelforkError
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
_FORMULA_TOKEN_KINDS = {"=", "<=", "!", "/\\", "\\/", "->"}


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
            if text[i : i + 2] == f"{c}'":
                tokens.append(("const", f"{c}'", i))
                i += 2
            elif c == "1" and text[i : i + 2] == "1u":
                tokens.append(("const", "1u", i))
                i += 2
            else:
                tokens.append(("const", c, i))
                i += 1
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
        two = text[i : i + 2]
        if two in ("<=", "/\\", "\\/", "->"):
            tokens.append((two, two, i))
            i += 2
            continue
        if c in "+&~;^#(),=!":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unknown token {c!r}", i)
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {kind!r} but input ended", len(self.text))
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    def at_end(self) -> bool:
        return self.pos == len(self.tokens)

    def fail_here(self, message: str) -> ParseError:
        tok = self.peek()
        pos = tok[2] if tok else len(self.text)
        found = f", found {tok[1]!r}" if tok else " but input ended"
        return ParseError(message + found, pos)

    # Terms, loosest level first.

    def parse_term(self):
        term = self.parse_meet()
        while self.peek() and self.peek()[0] == "+":
            self.advance()
            term = Union(term, self.parse_meet())
        return term

    def parse_meet(self):
        term = self.parse_compose()
        while self.peek() and self.peek()[0] == "&":
            self.advance()
            term = Meet(term, self.parse_compose())
        return term

    def parse_compose(self):
        term = self.parse_unary()
        while self.peek() and self.peek()[0] in (";", "#"):
            op = self.advance()[0]
            right = self.parse_unary()
            term = Compose(term, right) if op == ";" else Fork(term, right)
        return term

    def parse_unary(self):
        tok = self.peek()
        if tok and tok[0] == "~":
            self.advance()
            return Complement(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self):
        term = self.parse_atom()
        while self.peek() and self.peek()[0] == "^":
            self.advance()
            term = Converse(term)
        return term

    def parse_atom(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term but input ended", len(self.text))
        kind, value, at = tok
        if kind == "var":
            self.advance()
            return Var(value)
        if kind == "const":
            self.advance()
            if value == "0'":
                return Complement(Const("id"))
            return Const(_CONST_TOKENS[value])
        if kind == "rsum":
            self.advance()
            self.expect("(")
            left = self.parse_term()
            self.expect(",")
            right = self.parse_term()
            self.expect(")")
            return Complement(Compose(Complement(left), Complement(right)))
        if kind == "(":
            self.advance()
            term = self.parse_term()
            self.expect(")")
            return term
        raise ParseError(f"expected a term, found {value!r}", at)

    # Formulas.

    def parse_formula(self):
        formula = self.parse_or()
        if self.peek() and self.peek()[0] == "->":
            self.advance()
            return Implies(formula, self.parse_formula())
        return formula

    def parse_or(self):
        formula = self.parse_and()
        while self.peek() and self.peek()[0] == "\\/":
            self.advance()
            formula = Or(formula, self.parse_and())
        return formula

    def parse_and(self):
        formula = self.parse_not()
        while self.peek() and self.peek()[0] == "/\\":
            self.advance()
            formula = And(formula, self.parse_not())
        return formula

    def parse_not(self):
        tok = self.peek()
        if tok and tok[0] == "!":
            self.advance()
            return Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self):
        tok = self.peek()
        if tok and tok[0] == "(":
            saved = self.pos
            self.advance()
            try:
                inner = self.parse_formula()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = saved
        left = self.parse_term()
        tok = self.peek()
        if tok is None:
            raise ParseError("expected '=' or '<=' but input ended", len(self.text))
        if tok[0] == "=":
            self.advance()
            return Eq(left, self.parse_term())
        if tok[0] == "<=":
            self.advance()
            return Leq(left, self.parse_term())
        raise ParseError(f"expected '=' or '<=', found {tok[1]!r}", tok[2])


def parse_term(text: str):
    parser = _Parser(text)
    term = parser.parse_term()
    if not parser.at_end():
        raise parser.fail_here("trailing input")
    return term


def parse_formula(text: str):
    parser = _Parser(text)
    formula = parser.parse_formula()
    if not parser.at_end():
        raise parser.fail_here("trailing input")
    return formula


def parse(text: str):
    """Parse a formula when a formula operator occurs, else a term."""
    if any(tok[0] in _FORMULA_TOKEN_KINDS for tok in _tokenize(text)):
        return parse_formula(text)
    return parse_term(text)


# ---------------------------------------------------------------------------
# Pretty printer.  Levels: union 1, meet 2, compose/fork 3, unary 4, atom 5.

_CONST_TEXT = {"zero": "0", "one": "1", "id": "1'", "pi": "pi", "rho": "rho", "urid": "1u"}


def _term_level(t) -> int:
    if isinstance(t, (Var, Const)):
        return 5
    if isinstance(t, (Complement, Converse)):
        return 4
    if isinstance(t, (Compose, Fork)):
        return 3
    if isinstance(t, Meet):
        return 2
    if isinstance(t, Union):
        return 1
    raise TypeError(f"not a term: {t!r}")


def _wrap(t, minimum: int) -> str:
    text = pretty_term(t)
    return f"({text})" if _term_level(t) < minimum else text


def pretty_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return _CONST_TEXT[t.kind]
    if isinstance(t, Union):
        return f"{_wrap(t.left, 1)} + {_wrap(t.right, 2)}"
    if isinstance(t, Meet):
        return f"{_wrap(t.left, 2)} & {_wrap(t.right, 3)}"
    if isinstance(t, Compose):
        return f"{_wrap(t.left, 3)};{_wrap(t.right, 4)}"
    if isinstance(t, Fork):
        return f"{_wrap(t.left, 3)} # {_wrap(t.right, 4)}"
    if isinstance(t, Complement):
        return f"~{_wrap(t.arg, 4)}"
    if isinstance(t, Converse):
        arg = t.arg
        if isinstance(arg, (Var, Const)) or isinstance(arg, Converse):
            return f"{pretty_term(arg)}^"
        return f"({pretty_term(arg)})^"
    raise TypeError(f"not a term: {t!r}")


def _formula_level(f) -> int:
    if isinstance(f, (Eq, Leq)):
        return 4
    if isinstance(f, Not):
        return 3
    if isinstance(f, And):
        return 2
    if isinstance(f, Or):
        return 1
    if isinstance(f, Implies):
        return 0
    raise TypeError(f"not a formula: {f!r}")


def _fwrap(f, minimum: int) -> str:
    text = pretty_formula(f)
    return f"({text})" if _formula_level(f) < minimum else text


def pretty_formula(f) -> str:
    if isinstance(f, Eq):
        return f"{pretty_term(f.left)} = {pretty_term(f.right)}"
    if isinstance(f, Leq):
        return f"{pretty_term(f.left)} <= {pretty_term(f.right)}"
    if isinstance(f, Not):
        return f"!{_fwrap(f.arg, 3)}"
    if isinstance(f, And):
        return f"{_fwrap(f.left, 2)} /\\ {_fwrap(f.right, 3)}"
    if isinstance(f, Or):
        return f"{_fwrap(f.left, 1)} \\/ {_fwrap(f.right, 2)}"
    if isinstance(f, Implies):
        return f"{_fwrap(f.left, 1)} -> {_fwrap(f.right, 0)}"
    raise TypeError(f"not a formula: {f!r}")


def pretty(node) -> str:
    try:
        return pretty_term(node)
    except TypeError:
        return pretty_formula(node)


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

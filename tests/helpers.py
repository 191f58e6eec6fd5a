"""Shared oracles and random generators for the test suite.

The oracles here recompute relational operations over plain pair sets,
independent of the bitmask and lazy implementations under test.
"""

from __future__ import annotations

import itertools
import random
from typing import FrozenSet, Iterable, Set, Tuple

from relfork import (
    BT,
    BTC,
    Bin,
    Cons,
    Elem,
    FiniteRelation,
    HOLE,
    NIL,
    PI,
    RHO,
    Seq,
)
from relfork import terms

Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# Pair-set oracles for relational operations


def compose_pairs(r: Iterable[Pair], s: Iterable[Pair]) -> Set[Pair]:
    s = set(s)
    return {(a, d) for a, b in r for c, d in s if b == c}


def converse_pairs(r: Iterable[Pair]) -> Set[Pair]:
    return {(b, a) for a, b in r}


def complement_pairs(r: Iterable[Pair], n: int) -> Set[Pair]:
    r = set(r)
    return {(a, b) for a in range(n) for b in range(n) if (a, b) not in r}


def fork_pairs(r: Iterable[Pair], s: Iterable[Pair], star) -> Set[Pair]:
    s = set(s)
    return {(a, star(x, y)) for a, x in r for a2, y in s if a == a2}


def random_pairs(rng: random.Random, n: int, density: float = 0.4) -> FrozenSet[Pair]:
    return frozenset(
        (a, b) for a in range(n) for b in range(n) if rng.random() < density
    )


def window_by_contains(rel, n: int) -> FiniteRelation:
    """The window of a lazy relation from n^2 membership tests, the reference
    for its witness and recipe paths."""
    return FiniteRelation.from_pairs(
        n, [(a, b) for a in range(n) for b in range(n) if rel.contains(a, b)]
    )


# ---------------------------------------------------------------------------
# Linear residual arithmetic, the reference for ConstructionLayout's bisection


def residual_element_linear(reserved: Tuple[int, ...], j: int) -> int:
    """The j-th natural outside the sorted tuple ``reserved``."""
    u = j
    for r in reserved:
        if r <= u:
            u += 1
    return u


def residual_rank_linear(reserved: Tuple[int, ...], u: int) -> int:
    """How many naturals below u lie outside ``reserved``."""
    if u in reserved:
        raise ValueError(f"{u} is reserved")
    return u - sum(1 for r in reserved if r < u)


def cfa_scan_oracle(pf, grid: int, scan: int) -> dict:
    """The pairing conditions of the fork axioms, by brute force on a finite region.

    star must be injective and inverted by unstar on the pairs of
    [0, grid)², and star must invert unstar on [0, scan); cfau asks for
    an element of [0, scan) outside the range of star.  The reference
    for ``ConstructionLayout.certify``.
    """
    star, unstar = pf.star, pf.unstar
    owners = {}
    injective = inverts = True
    for u in range(grid):
        for v in range(grid):
            w = star(u, v)
            injective = injective and owners.setdefault(w, (u, v)) == (u, v)
            inverts = inverts and unstar(w) == (u, v)
    decoded = [(w, unstar(w)) for w in range(scan)]
    star_inverts = all(star(*pair) == w for w, pair in decoded if pair is not None)
    return {
        "cfa1": inverts and star_inverts,
        "cfa2": injective,
        "cfa3": star_inverts,
        "cfau": any(pair is None for _, pair in decoded),
    }


# ---------------------------------------------------------------------------
# Pairwise closure, the reference for AlgebraModel's and generate_subalgebra's
# atom refinement


def closure_failure_pairwise(carrier, unit):
    """The first operation the carrier is not closed under, or None.

    Checks converse and complement of every element, then union, meet and
    composition of every pair: O(c^2) operations.  ``carrier`` is a
    sequence of FiniteRelation below ``unit``.
    """
    rows = {rel.rows for rel in carrier}
    for r in carrier:
        if r.converse().rows not in rows:
            return "converse"
        if r.complement_in(unit).rows not in rows:
            return "complement"
    for r in carrier:
        for s in carrier:
            if r.union(s).rows not in rows:
                return "union"
            if r.meet(s).rows not in rows:
                return "meet"
            if r.compose(s).rows not in rows:
                return "composition"
    return None


def generate_subalgebra_rounds(base_size: int, generators, carrier_cap: int):
    """Rows of the subalgebra generated by H over the full unit, or None above the cap.

    Adds converse, complement, union, meet and composition over every pair
    of the current elements, round after round, until a round adds nothing.
    """
    unit = FiniteRelation.full(base_size)
    current = {rel.rows: rel for rel in generators}
    for rel in (FiniteRelation.empty(base_size), unit, FiniteRelation.identity(base_size)):
        current[rel.rows] = rel
    while True:
        elems = list(current.values())
        before = len(current)
        for r in elems:
            for rel in (r.converse(), r.complement_in(unit)):
                current[rel.rows] = rel
        for r in elems:
            for s in elems:
                for rel in (r.union(s), r.meet(s), r.compose(s)):
                    current[rel.rows] = rel
        if len(current) > carrier_cap:
            return None
        if len(current) == before:
            return frozenset(current)


# ---------------------------------------------------------------------------
# Random control structures


def random_tree(rng: random.Random, depth: int = 3) -> BT:
    if depth == 0 or rng.random() < 0.35:
        return NIL
    return Bin(random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def random_nonnil_tree(rng: random.Random, depth: int = 3) -> BT:
    return Bin(random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def random_context(rng: random.Random, depth: int = 3) -> BTC:
    if depth == 0 or rng.random() < 0.3:
        return HOLE if rng.random() < 0.5 else NIL
    return Bin(random_context(rng, depth - 1), random_context(rng, depth - 1))


def random_seq(rng: random.Random, max_len: int = 4) -> Seq:
    length = rng.randrange(1, max_len + 1)
    seq: Seq = Elem(rng.choice((PI, RHO)))
    for _ in range(length - 1):
        seq = Cons(rng.choice((PI, RHO)), seq)
    return seq


# ---------------------------------------------------------------------------
# Random terms and formulas


def random_term(rng: random.Random, depth: int, names=("x", "y", "z"), fork: bool = True):
    if depth == 0:
        if rng.random() < 0.6:
            return terms.Var(rng.choice(names))
        kinds = ["zero", "one", "id"] + (["pi", "rho", "urid"] if fork else [])
        return terms.Const(rng.choice(kinds))
    roll = rng.random()
    if roll < 0.15:
        return terms.Complement(random_term(rng, depth - 1, names, fork))
    if roll < 0.3:
        return terms.Converse(random_term(rng, depth - 1, names, fork))
    shapes = [terms.Union, terms.Meet, terms.Compose] + ([terms.Fork] if fork else [])
    shape = rng.choice(shapes)
    return shape(
        random_term(rng, depth - 1, names, fork),
        random_term(rng, depth - 1, names, fork),
    )


def random_formula(rng: random.Random, depth: int, names=("x", "y", "z"), fork: bool = True):
    if depth == 0:
        shape = terms.Eq if rng.random() < 0.5 else terms.Leq
        term_depth = rng.randrange(0, 3)
        return shape(
            random_term(rng, term_depth, names, fork),
            random_term(rng, term_depth, names, fork),
        )
    roll = rng.random()
    if roll < 0.2:
        return terms.Not(random_formula(rng, depth - 1, names, fork))
    shape = rng.choice((terms.And, terms.Or, terms.Implies))
    return shape(
        random_formula(rng, depth - 1, names, fork),
        random_formula(rng, depth - 1, names, fork),
    )


# ---------------------------------------------------------------------------
# Naive term evaluation over pair sets (independent of FiniteRelation)


def eval_term_pairs(t, env, n: int, unit=None) -> Set[Pair]:
    """The pairs of t; ``1`` and complements are relative to unit (default n x n)."""
    if unit is None:
        unit = {(a, b) for a in range(n) for b in range(n)}
    if isinstance(t, terms.Var):
        return set(env[t.name])
    if isinstance(t, terms.Const):
        if t.kind == "zero":
            return set()
        if t.kind == "one":
            return set(unit)
        if t.kind == "id":
            return {(a, a) for a in range(n)}
        raise ValueError(f"constant {t.kind} has no plain-model meaning")
    if isinstance(t, terms.Complement):
        return unit - eval_term_pairs(t.arg, env, n, unit)
    if isinstance(t, terms.Converse):
        return converse_pairs(eval_term_pairs(t.arg, env, n, unit))
    left = eval_term_pairs(t.left, env, n, unit)
    right = eval_term_pairs(t.right, env, n, unit)
    if isinstance(t, terms.Union):
        return left | right
    if isinstance(t, terms.Meet):
        return left & right
    if isinstance(t, terms.Compose):
        return compose_pairs(left, right)
    raise TypeError(f"unexpected term {t!r}")


def eval_formula_pairs(f, env, n: int, unit=None) -> bool:
    if isinstance(f, (terms.Eq, terms.Leq)):
        left = eval_term_pairs(f.left, env, n, unit)
        right = eval_term_pairs(f.right, env, n, unit)
        return left == right if isinstance(f, terms.Eq) else left <= right
    if isinstance(f, terms.Not):
        return not eval_formula_pairs(f.arg, env, n, unit)
    left = eval_formula_pairs(f.left, env, n, unit)
    right = eval_formula_pairs(f.right, env, n, unit)
    if isinstance(f, terms.And):
        return left and right
    if isinstance(f, terms.Or):
        return left or right
    if isinstance(f, terms.Implies):
        return not left or right
    raise TypeError(f"unexpected formula {f!r}")


def check_formula_pairs(formula, model, strategy="exhaustive", seed: int = 0):
    """Reference for ``terms.check_formula``, one assignment at a time over pair sets.

    Returns (strategy label, valid, checked, counterexample) with the same
    assignment order: ``itertools.product`` over the carrier, or per trial
    one seeded draw per variable in name order.
    """
    names = terms.free_variables(formula)
    carrier = model.carrier
    unit = set(model.unit.pairs())
    if strategy == "exhaustive":
        label, assignments = "exhaustive", itertools.product(carrier, repeat=len(names))
    else:
        count = strategy[1]
        rng = random.Random(seed)
        label = f"sampled({count})"
        assignments = (
            tuple(carrier[rng.randrange(len(carrier))] for _ in names) for _ in range(count)
        )
    checked = 0
    for combo in assignments:
        checked += 1
        env = {name: set(rel.pairs()) for name, rel in zip(names, combo)}
        if not eval_formula_pairs(formula, env, model.base_size, unit):
            return label, False, checked, dict(zip(names, combo))
    return label, True, checked, None

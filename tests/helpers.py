"""Shared oracles and random generators for the test suite.

The oracles here recompute relational operations over plain pair sets,
independent of the bitmask and lazy implementations under test.
"""

from __future__ import annotations

import argparse
import itertools
import random
from bisect import bisect_left, bisect_right
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from relfork import (
    BT,
    Bin,
    FiniteRelation,
    LazyRelation,
    NIL,
    PI,
    RHO,
    RelforkError,
    Seq,
)
from relfork import terms
from relfork.cli import _cmd_build, _cmd_check, _cmd_eval, _cmd_export, _cmd_fix
from relfork.errors import SCAN_CAP, SUITES

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


def si_member(a, bound_rel) -> bool:
    """True when the lazy relation a is a subidentity below bound_rel.

    Acceptance criterion 09 checks through it that ``transport`` keeps
    subidentities.  A relation without finite support is refused.
    """
    if a.support_hint is None:
        raise RelforkError("subidentity test needs a finitely supported relation")
    return all(u == v and bound_rel.contains(u, u) for u, v in a.support_hint)


def transport(rel, perm: dict):
    """The image of a lazy relation under a finite-support permutation on both coordinates.

    Acceptance criterion 09 checks through it that conjugating a pairing
    moves its underlines and keeps subidentities.  A support moves pair
    by pair and witnesses move with it; the image is not carried over.
    """
    if set(perm) != set(perm.values()):
        raise RelforkError("permutation must be a bijection on its finite support")
    inverse = {v: k for k, v in perm.items()}
    fwd = lambda x: perm.get(x, x)
    bwd = lambda x: inverse.get(x, x)
    if rel.support_hint is not None:
        return LazyRelation.from_support((fwd(a), fwd(b)) for a, b in rel.support_hint)
    witnesses = None
    if rel.witnesses is not None:
        rw = rel.witnesses
        witnesses = lambda a: tuple(fwd(b) for b in rw(bwd(a)))
    return LazyRelation(contains=lambda a, b: rel.contains(bwd(a), bwd(b)), witnesses=witnesses)


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


def _triangle(d: int) -> int:
    return d * (d + 1) // 2


def pair_ref(a: int, b: int) -> int:
    """The Cantor pairing: the pairs before diagonal a + b, plus b."""
    return _triangle(a + b) + b


def unpair_ref(m: int) -> Pair:
    """The inverse of ``pair_ref``: the diagonal found by bisection, not by a square root."""
    lo, hi = 0, 1
    while _triangle(hi) <= m:
        hi *= 2
    while hi - lo > 1:  # the last diagonal starting at or below m lies in [lo, hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _triangle(mid) <= m else (lo, mid)
    b = m - _triangle(lo)
    return (lo - b, b)


class ChainArithmetic:
    """A layout's pairing computed step by step, the reference for the library's arithmetic.

    Each cell goes through separate Cantor and residual steps: the
    Cantor steps by ``pair_ref`` and ``unpair_ref``, independent of the
    library's, the residual element and rank by bisection, or by the
    linear scans above when ``linear``, then block, offset, default cell
    and pinned table.
    """

    def __init__(self, layout, linear: bool = False):
        self.layout = layout
        self.reserved = layout.reserved
        self.reserved_set = frozenset(layout.reserved)
        self.gaps = tuple(r - i for i, r in enumerate(layout.reserved))
        self.inverse = {w: cell for cell, w in layout.table.items()}
        self.linear = linear

    def residual_element(self, j: int) -> int:
        if self.linear:
            return residual_element_linear(self.reserved, j)
        return j + bisect_right(self.gaps, j)

    def residual_rank(self, u: int) -> int:
        if self.linear:
            return residual_rank_linear(self.reserved, u)
        return u - bisect_left(self.reserved, u)

    def block_element(self, i: int, k: int) -> int:
        return self.residual_element(pair_ref(i, k))

    def block_of(self, u: int) -> Optional[Pair]:
        """Block index and offset of a residual element, None on reserved."""
        if u in self.reserved_set:
            return None
        return unpair_ref(self.residual_rank(u))

    def encode_rest(self, u: int, v: int) -> int:
        return self.block_element(0, pair_ref(u, v) + 1)

    def decode_rest(self, w: int) -> Optional[Pair]:
        place = self.block_of(w)
        if place is None or place[0] != 0 or place[1] == 0:
            return None
        return unpair_ref(place[1] - 1)

    def star(self, u: int, v: int) -> int:
        if self.layout.kind == "basic":
            if u != v:
                return self.block_element(0, pair_ref(u, v if v < u else v - 1))
            if u in self.reserved_set:
                return u
            i, k = self.block_of(u)
            return self.block_element(i + 1, k)
        table = self.layout.table
        return table[(u, v)] if (u, v) in table else self.encode_rest(u, v)

    def unstar(self, w: int) -> Optional[Pair]:
        if self.layout.kind == "basic":
            if w in self.reserved_set:
                return (w, w)
            i, k = self.block_of(w)
            if i == 0:
                u, v = unpair_ref(k)
                return (u, v if v < u else v + 1)
            u = self.block_element(i - 1, k)
            return (u, u)
        if w in self.inverse:
            return self.inverse[w]
        pair = self.decode_rest(w)
        return None if pair is None or pair in self.layout.table else pair


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


def ideal_elements_by_definition(model):
    """The elements x of the carrier with 1;x;1 = x, over pair sets, in carrier order."""
    unit = set(model.unit.pairs())
    return tuple(
        x for x in model.carrier
        if compose_pairs(compose_pairs(unit, x.pairs()), unit) == set(x.pairs())
    )


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


def random_seq(rng: random.Random, max_len: int = 4) -> Seq:
    length = rng.randrange(1, max_len + 1)
    return Seq(tuple(rng.choice((PI, RHO)) for _ in range(length)))


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


def sampled_indices(seed, nvars: int, m: int, count: int) -> List[Tuple[int, ...]]:
    """The carrier indices of ``count`` seeded trials of nvars variables
    over 2**m elements.  ``random.Random(seed)`` seeds, from 64 bits each,
    one stream per variable and atom p, in that order; each stream draws
    all ``count`` bits at once, and bit p of variable j's index under trial
    t is bit t of stream (j, p)."""
    rng = random.Random(seed)
    seeds = [[rng.getrandbits(64) for _ in range(m)] for _ in range(nvars)]
    planes = [[random.Random(s).getrandbits(count) for s in row] for row in seeds]
    return [
        tuple(sum((plane >> t & 1) << p for p, plane in enumerate(row)) for row in planes)
        for t in range(count)
    ]


def check_formula_pairs(formula, model, strategy="exhaustive", seed: int = 0):
    """Reference for ``terms.check_formula``, one assignment at a time over pair sets.

    Returns (strategy label, valid, checked, counterexample) with the same
    assignment order: ``itertools.product`` over the carrier, or the
    seeded trials of ``sampled_indices``, variables in name order.
    """
    names = terms.free_variables(formula)
    carrier = model.carrier
    unit = set(model.unit.pairs())
    if strategy == "exhaustive":
        label, assignments = "exhaustive", itertools.product(carrier, repeat=len(names))
    else:
        count = strategy[1]
        m = len(carrier).bit_length() - 1
        label = f"sampled({count})"
        trials = sampled_indices(seed, len(names), m, count)
        assignments = (tuple(carrier[i] for i in trial) for trial in trials)
    checked = 0
    for combo in assignments:
        checked += 1
        env = {name: set(rel.pairs()) for name, rel in zip(names, combo)}
        if not eval_formula_pairs(formula, env, model.base_size, unit):
            return label, False, checked, dict(zip(names, combo))
    return label, True, checked, None


# ---------------------------------------------------------------------------
# The CLI's argparse parser as it was written before the option table, the
# reference for the table and for the parser built from it


def _add_target_args(parser: argparse.ArgumentParser, with_model: bool = True) -> None:
    target = parser.add_mutually_exclusive_group()
    if with_model:
        target.add_argument("--model", help="finite model: full:N or a JSON file path")
    target.add_argument(
        "--star",
        choices=("basic", "tree", "pi", "rho", "seq"),
        help="construction kind for a pairing-function target",
    )
    target.add_argument("--config", help="JSON config file {kind, S, control}")
    parser.add_argument("--S", dest="members", help="members, e.g. 1,2")
    control = parser.add_mutually_exclusive_group()
    control.add_argument("--t", dest="tree", help="control tree, e.g. 'bin (bin nil nil) nil'")
    control.add_argument("--s", dest="seq", help="control sequence, e.g. pi.rho")


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfork",
        description="Verification workbench for relation and fork algebras.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run an axiom suite")
    _add_target_args(p_check)
    p_check.add_argument(
        "--suite",
        required=True,
        choices=SUITES,
        help="axiom suite to run",
    )
    p_check.add_argument(
        "--sampled",
        type=int,
        metavar="K",
        help="check K random assignments (default: every assignment)",
    )
    p_check.add_argument(
        "--seed", type=int, help="seed of --sampled (default 0); a pairing ignores it"
    )
    p_check.add_argument(
        "--trials", type=int, help="a pairing ignores it: its fork axioms are certified exactly"
    )
    p_check.set_defaults(func=_cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate one formula")
    _add_target_args(p_eval)
    p_eval.add_argument("--formula", required=True)
    p_eval.add_argument("--bind", help="JSON file binding variables to pair lists")
    p_eval.add_argument("--window", type=int, help="window over a pairing (default 200)")
    p_eval.set_defaults(func=_cmd_eval)

    p_fix = sub.add_parser("fix", help="enumerate controlled fixpoints")
    _add_target_args(p_fix, with_model=False)
    p_fix.add_argument(
        "--window",
        type=int,
        help=f"scan [0, WINDOW) for fixpoints (default 1000, capped by SCAN_CAP = {SCAN_CAP})",
    )
    p_fix.set_defaults(func=_cmd_fix)

    p_build = sub.add_parser("build", help="build a pairing and report its layout")
    _add_target_args(p_build, with_model=False)
    p_build.set_defaults(func=_cmd_build)

    p_export = sub.add_parser("export", help="write a finite model to JSON")
    p_export.add_argument("--model", required=True)
    p_export.add_argument("--out", help="output path (default stdout)")
    p_export.set_defaults(func=_cmd_export)

    return parser

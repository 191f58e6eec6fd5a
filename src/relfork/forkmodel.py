"""Countable fork-algebra models driven by an injective pairing function.

A :class:`PairingFunction` packages an injective ``star`` on the
naturals together with its partial inverse ``unstar`` (``None`` exactly
on urelements, the values outside the range of ``star``).

Relations over this base are lazy: a membership predicate, optionally
an exact finite support, optionally a complete successor enumerator
(``witnesses``), optionally the partial map u -> v whose graph the
relation is (``image``), and optionally a window ``recipe`` that builds
the restriction to [0, n) from the operands' windows.  Only
``LazyRelation.from_support`` makes a support, always with witnesses,
and a combinator returns it whenever its result is finite.  Only
``LazyRelation.from_image`` makes an image, always with witnesses (its
0- or 1-tuples): the underline of every control (pi and rho among
them), the identity 1' and the partial identity 1u on urelements.  A
fork of two operands with images has the image a -> star(f(a), g(a)),
None where a side is None; no other combinator makes an image.
Otherwise witnesses propagate while the result stays enumerable; a
composition whose left operand offers neither a support nor witnesses
and whose right operand has no support is rejected as undecidable.

``window(rel, n)`` refuses n above ``errors.WINDOW_CAP``, then takes
the first path the relation offers: its image (one map over [0, n), a
row holding at most one bit), its witnesses (n enumerations), its
recipe, and only then n² ``contains`` calls.  A supported relation
takes the witnesses.  The combinators' results with neither a support
nor an image carry recipes, and so does ``UNIVERSAL``, so every term of
the term language is windowed without the n² scan; that scan remains
only for a bare ``LazyRelation(contains)``.  Complement, meet, union
and converse are pointwise in their operands' windows.  Column b of a
fork's recipe window meets column c of r's and column d of s's when
unstar(b) = (c, d) lies in the window, as it does on every default cell
of a built pairing; other columns take n ``contains`` calls.  Row a of
a composition whose left operand has witnesses ORs the right operand's
window rows at a's witnesses.

A control is a binary tree or a projection sequence, and its image is
a partial function on the naturals: a tree t sends u to
``tree_map(t, star, u)`` (folding fork over the shape of t starting
from the identity), a sequence chains its projection steps through
``unstar``.  ``underline(control)`` is the relation of that image, and
``fix_members`` scans a finite region for the image's fixpoints.  Each
compiles the image once per call, not once per element: one
``tree_map`` fold turns a tree into nested closures over ``star``, with
nil as the identity, and a sequence becomes a loop over its coordinate
indices, so an element makes the ``star`` or ``unstar`` calls of the
definition and nothing more.  Plain fixpoints star(u, u) = u are those
of ``bin nil nil``, and projection fixpoints those of the one-step
sequences ``pi`` and ``rho``, whose underlines are the ``projections``.
A fixpoint is a value of ``star`` (a tree's image is one, and a
sequence's chase starts by unstarring it), so ``fix_members`` skips the
elements of a ``range`` region that lie outside a built pairing's range:
a table kind's layout lists a superset of it, about |table| + sqrt(2n)
values below n (see the ``constructions`` docstring), and only those
are scanned.  ``basic``'s star is onto, but its layout tiles a
``range`` into runs on which star(u, u) = u + off, and for ``bin nil
nil`` only the runs with off = 0, its members, are scanned.  Any other
control over ``basic`` is scanned in full, as is any pairing that does
not run its meta's own ``star`` and ``unstar``.  A negative element of
a region raises a ``RelforkError`` on every kind.

The fork axioms hold in such a model exactly when the pairing is an
exact one: cfa2 iff ``star`` is injective, cfa1 and cfa3 iff moreover
``unstar`` is its exact partial inverse, and cfau iff some element lies
outside the range of ``star``.  ``cfa_axiom_check`` therefore decides
them from how the pairing was made.  A built pairing's ``star`` and
``unstar`` are the methods of its construction layout, which it carries
as ``meta``, and the layout's ``certify`` proves those facts exactly
over N from its table (see the ``constructions`` docstring, a module
this one never imports).  A ``conjugate`` carries a ``Conjugate`` as
``meta``, which moves its base's certificate through the permutation.
``cfa_axiom_check`` accepts a pairing only when its ``star`` and
``unstar`` are its meta's own methods, so the certificate speaks of the
functions the pairing runs; it refuses any other pairing.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from .btree import BT, NIL, Bin, Nil, tree_map
from .errors import WINDOW_CAP, RelforkError
from .node import Node, Scope
from .relcore import FiniteRelation
from .seqs import PI, RHO, Seq

Pair = Tuple[int, int]
Control = BT | Seq


class UndecidableCompositionError(RelforkError):
    def __init__(self):
        super().__init__(
            "undecidable-composition: neither operand offers a finite support "
            "or successor enumeration"
        )


class NilControlError(RelforkError):
    def __init__(self):
        super().__init__("control tree must not be nil")


class _DataclassFields:
    """``PairingFunction.__dataclass_fields__``, made on first read.

    ``dataclasses.replace`` and ``dataclasses.fields`` find a class's
    fields under that name.  The first read imports ``dataclasses``,
    takes the ``Field`` objects of a dataclass with the same three fields
    and caches them on the class, so a process that never reads them
    never loads the module.  Only ``perfbench/traced_cli.py`` reads them,
    through ``dataclasses.replace`` on every built pairing; delete this
    hook once it rebuilds the pairing without it.
    """

    def __get__(self, instance, owner):
        import dataclasses

        shape = dataclasses.make_dataclass(
            owner.__name__, ["star", "unstar", ("meta", object, dataclasses.field(default=None))]
        )
        fields = {field.name: field for field in dataclasses.fields(shape)}
        owner.__dataclass_fields__ = fields
        return fields


class PairingFunction(Node):
    """Injective pairing on the naturals with explicit partial inverse."""

    __slots__ = ("star", "unstar", "meta")
    __dataclass_fields__ = _DataclassFields()

    def __init__(
        self,
        star: Callable[[int, int], int],
        unstar: Callable[[int], Optional[Pair]],
        meta: object = None,
    ):
        super().__init__(star, unstar, meta)


def _unwrapped(fn: Callable) -> Callable:
    """fn without the wrappers that name it as ``__wrapped__`` (``functools.wraps``)."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def _own_meta(pf: PairingFunction) -> object:
    """pf's meta when pf runs the meta's own star and unstar, else None.

    Only then does what the meta proves or lists speak of pf's functions.
    """
    meta = pf.meta
    own = (
        _unwrapped(pf.star) == getattr(meta, "star", None)
        and _unwrapped(pf.unstar) == getattr(meta, "unstar", None)
    )
    return meta if own else None


# What a pairing's ``meta.certify()`` proves exactly over N: why star is
# injective, the pairs of cells that star sends to one value, and an element
# outside star's range (None when star is onto).
Certificate = Tuple[str, List[Tuple[Pair, Pair]], Optional[int]]


class LazyRelation(Node):
    """A relation on the naturals given by a membership predicate.

    ``support_hint`` is the exact extension when finite; only
    ``from_support`` sets it, always with ``witnesses``.  ``witnesses``
    enumerates all successors of a left element, sound and complete for
    ``contains``.  ``recipe`` maps n to the exact restriction to [0, n),
    built from other windows.  ``image`` is the partial map u -> v (None
    where undefined) whose graph is the relation; ``from_image`` sets it,
    always with ``witnesses``.  ``window`` tries the image,
    the witnesses, then the recipe, before it falls back to ``contains``.
    """

    __slots__ = ("contains", "support_hint", "witnesses", "recipe", "image")

    def __init__(
        self,
        contains: Callable[[int, int], bool],
        support_hint: Optional[FrozenSet[Pair]] = None,
        witnesses: Optional[Callable[[int], Iterable[int]]] = None,
        recipe: Optional[Callable[[int], FiniteRelation]] = None,
        image: Optional[Callable[[int], Optional[int]]] = None,
    ):
        super().__init__(contains, support_hint, witnesses, recipe, image)

    @classmethod
    def from_support(cls, pairs: Iterable[Pair]) -> "LazyRelation":
        """The finite relation of the (a, b) pairs; each an ``int``, not a bool, >= 0."""
        checked = []
        for pair in pairs:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise RelforkError(f"a support holds (a, b) pairs, got {pair!r}") from None
            for x in (a, b):  # before any hash, which a wrong type could break
                if type(x) is not int or x < 0:
                    raise RelforkError(f"support coordinates must be naturals, got {x!r}")
            checked.append((a, b))
        support = frozenset(checked)
        by_left = _successors(support)
        return cls(
            contains=lambda a, b: (a, b) in support,
            support_hint=support,
            witnesses=lambda a: by_left.get(a, ()),
        )

    @classmethod
    def from_image(
        cls,
        image: Callable[[int], Optional[int]],
        contains: Optional[Callable[[int, int], bool]] = None,
    ) -> "LazyRelation":
        """The graph of a partial map on the naturals, None where it is undefined.

        Its witnesses are the 0- or 1-tuples of the image, and its
        ``contains`` is image(a) == b unless an equivalent test is given.
        """

        def witnesses(a: int) -> Tuple[int, ...]:
            v = image(a)
            return () if v is None else (v,)

        if contains is None:
            contains = lambda a, b: image(a) == b
        return cls(contains, None, witnesses, None, image)


def _successors(pairs: Iterable[Pair]) -> Dict[int, Tuple[int, ...]]:
    """The sorted successors of every left element, keyed in ascending order."""
    by_left: Dict[int, List[int]] = {}
    for a, b in sorted(pairs):
        by_left.setdefault(a, []).append(b)
    return {a: tuple(bs) for a, bs in by_left.items()}


def _bits(n: int, test: Callable[[int], bool]) -> int:
    """The bitmask of the i in [0, n) that pass the test: n calls."""
    return sum(1 << i for i in range(n) if test(i))


EMPTY = LazyRelation.from_support(())
UNIVERSAL = LazyRelation(contains=lambda a, b: True, recipe=FiniteRelation.full)
IDENTITY = LazyRelation.from_image(lambda a: a, contains=lambda a, b: a == b)


def union_rel(r: LazyRelation, s: LazyRelation) -> LazyRelation:
    if r.support_hint is not None and s.support_hint is not None:
        return LazyRelation.from_support(r.support_hint | s.support_hint)
    witnesses = None
    if r.witnesses is not None and s.witnesses is not None:
        rw, sw = r.witnesses, s.witnesses
        witnesses = lambda a: tuple(dict.fromkeys(tuple(rw(a)) + tuple(sw(a))))
    return LazyRelation(
        contains=lambda a, b: r.contains(a, b) or s.contains(a, b),
        witnesses=witnesses,
        recipe=lambda n: window(r, n).union(window(s, n)),
    )


def meet_rel(r: LazyRelation, s: LazyRelation) -> LazyRelation:
    if r.support_hint is not None:
        return LazyRelation.from_support(p for p in r.support_hint if s.contains(*p))
    if s.support_hint is not None:
        return LazyRelation.from_support(p for p in s.support_hint if r.contains(*p))
    witnesses = None
    if r.witnesses is not None:
        rw = r.witnesses
        witnesses = lambda a: tuple(b for b in rw(a) if s.contains(a, b))
    elif s.witnesses is not None:
        sw = s.witnesses
        witnesses = lambda a: tuple(b for b in sw(a) if r.contains(a, b))
    return LazyRelation(
        contains=lambda a, b: r.contains(a, b) and s.contains(a, b),
        witnesses=witnesses,
        recipe=lambda n: window(r, n).meet(window(s, n)),
    )


def complement_rel(r: LazyRelation) -> LazyRelation:
    """Complement relative to the universal relation; always co-infinite."""
    return LazyRelation(
        contains=lambda a, b: not r.contains(a, b),
        recipe=lambda n: window(r, n).complement_in(FiniteRelation.full(n)),
    )


def _compose_pairs(r: FrozenSet[Pair], s: FrozenSet[Pair]) -> FrozenSet[Pair]:
    by_left = _successors(s)
    return frozenset((a, b) for a, x in r for b in by_left.get(x, ()))


def _converse_pairs(r: FrozenSet[Pair]) -> FrozenSet[Pair]:
    return frozenset((b, a) for a, b in r)


def converse_rel(r: LazyRelation) -> LazyRelation:
    if r.support_hint is not None:
        return LazyRelation.from_support(_converse_pairs(r.support_hint))
    return LazyRelation(
        contains=lambda a, b: r.contains(b, a), recipe=lambda n: window(r, n).converse()
    )


def compose_rel(r: LazyRelation, s: LazyRelation) -> LazyRelation:
    """Relational composition; needs one enumerable side to stay decidable."""
    if r.support_hint is not None and s.support_hint is not None:
        return LazyRelation.from_support(_compose_pairs(r.support_hint, s.support_hint))
    if r.witnesses is not None:
        rw = r.witnesses
        contains = lambda a, b: any(s.contains(x, b) for x in rw(a))
        witnesses = None
        if s.witnesses is not None:
            sw = s.witnesses
            witnesses = lambda a: tuple(
                dict.fromkeys(b for x in rw(a) for b in sw(x))
            )

        def recipe(n: int) -> FiniteRelation:
            right = window(s, n).rows
            rows = []
            for a in range(n):
                row = 0
                for x in rw(a):
                    row |= right[x] if x < n else _bits(n, lambda b: s.contains(x, b))
                rows.append(row)
            return FiniteRelation(n, tuple(rows))

        return LazyRelation(contains=contains, witnesses=witnesses, recipe=recipe)
    if s.support_hint is not None:
        s_successors = _successors(s.support_hint)
        s_predecessors = _successors(_converse_pairs(s.support_hint))
        contains = lambda a, b: any(r.contains(a, x) for x in s_predecessors.get(b, ()))
        witnesses = lambda a: tuple(
            dict.fromkeys(
                b for x, bs in s_successors.items() if r.contains(a, x) for b in bs
            )
        )
        return LazyRelation(contains=contains, witnesses=witnesses)
    raise UndecidableCompositionError()


def fork(r: LazyRelation, s: LazyRelation, pf: PairingFunction) -> LazyRelation:
    """The fork of r and s: pairs (a, star(x, y)) with a r x and a s y."""
    unstar = pf.unstar
    star = pf.star
    if r.support_hint is not None and s.support_hint is not None:
        by_left = _successors(s.support_hint)
        return LazyRelation.from_support(
            (a, star(x, y)) for a, x in r.support_hint for y in by_left.get(a, ())
        )

    def contains(a: int, b: int) -> bool:
        decoded = unstar(b)
        if decoded is None:
            return False
        x, y = decoded
        return r.contains(a, x) and s.contains(a, y)

    if r.image is not None and s.image is not None:
        f, g = r.image, s.image

        def image(a: int) -> Optional[int]:
            x = f(a)
            if x is None:
                return None
            y = g(a)
            return None if y is None else star(x, y)

        return LazyRelation.from_image(image, contains)
    witnesses = None
    if r.witnesses is not None and s.witnesses is not None:
        rw, sw = r.witnesses, s.witnesses

        def witnesses(a: int) -> Tuple[int, ...]:
            ys = tuple(sw(a))  # once per row, not once per left witness
            return tuple(dict.fromkeys(star(x, y) for x in rw(a) for y in ys))

    def recipe(n: int) -> FiniteRelation:
        # Transposed, so that column b of the fork is one row of ints.
        r_cols = window(r, n).converse().rows
        s_cols = window(s, n).converse().rows
        cols = []
        for b in range(n):
            decoded = unstar(b)
            if decoded is None:
                cols.append(0)
                continue
            x, y = decoded
            if x < n and y < n:
                cols.append(r_cols[x] & s_cols[y])
            else:
                cols.append(_bits(n, lambda a: r.contains(a, x) and s.contains(a, y)))
        return FiniteRelation(n, tuple(cols)).converse()

    return LazyRelation(contains=contains, witnesses=witnesses, recipe=recipe)


def _identity(u: int) -> int:
    return u


def _fork_image(star: Callable[[int, int], int]):
    """The image of bin l r from the images of l and r."""

    def image(left: Callable[[int], int], right: Callable[[int], int]) -> Callable[[int], int]:
        if left is _identity and right is _identity:  # bin nil nil: fix and its underline
            return lambda u: star(u, u)
        return lambda u: star(left(u), right(u))

    return image


def _image(control: Control, pf: PairingFunction) -> Callable[[int], Optional[int]]:
    """The partial function of a control over pf, compiled once; None where a chase ends.

    A tree folds ``tree_map`` once over its shape into nested closures
    over ``pf.star``; a sequence chases its coordinate indices through
    ``pf.unstar``.  Per element, both make the calls the definition does.
    """
    if isinstance(control, (Nil, Bin)):
        return tree_map(control, _fork_image(pf.star), _identity)
    coordinates = tuple(0 if symbol == PI else 1 for symbol in control.symbols)
    unstar = pf.unstar

    def chase(u: int) -> Optional[int]:
        for i in coordinates:
            decoded = unstar(u)
            if decoded is None:
                return None
            u = decoded[i]
        return u

    return chase


def underline(control: Control, pf: PairingFunction) -> LazyRelation:
    """The relation (u, image(u)) of a control; nil gives the identity."""
    return LazyRelation.from_image(_image(control, pf))


def projections(pf: PairingFunction) -> Tuple[LazyRelation, LazyRelation]:
    """pi and rho: the relations of the one-step sequences ``pi`` and ``rho``."""
    return underline(Seq((PI,)), pf), underline(Seq((RHO,)), pf)


def fix_members(
    pf: PairingFunction, region: Iterable[int], control: Control = Bin(NIL, NIL)
) -> Tuple[int, ...]:
    """Fixpoints image(u) = u of a non-nil control inside the region.

    The default control ``bin nil nil`` gives the plain fixpoints
    star(u, u) = u.  A region ``range(start, stop)`` of step 1 is read
    by its bounds when pf runs its meta's own star and unstar: every
    fixpoint lies in star's range, so only the meta's ``star_values``
    (a superset of that range) are scanned, and for ``bin nil nil`` a
    meta with ``diagonal_runs`` (``basic``) has only the elements of its
    runs with offset 0 scanned.  Any other region, or pairing, is
    scanned element by element.  A negative element raises a
    ``RelforkError``; in a ``range``, before any work.
    """
    if isinstance(control, Nil):
        raise NilControlError()
    if not isinstance(region, range):
        region = _naturals(region)
    elif region and min(region[0], region[-1]) < 0:  # before any work
        raise _negative(min(region[0], region[-1]))
    elif region.step == 1:
        meta = _own_meta(pf)
        star_values = getattr(meta, "star_values", None)
        diagonal_runs = getattr(meta, "diagonal_runs", None)
        if star_values is not None:
            region = star_values(region.start, region.stop)
        elif diagonal_runs is not None and control == Bin(NIL, NIL):
            runs = diagonal_runs(region.start, region.stop)
            region = (u for lo, hi, off in runs if off == 0 for u in range(lo, hi))
    image = _image(control, pf)
    return tuple([u for u in region if image(u) == u])


def _negative(u: int) -> RelforkError:
    return RelforkError(f"a fix region holds naturals only, got {u}")


def _naturals(region: Iterable[int]) -> Iterable[int]:
    """The region's elements in order, refusing the first negative one."""
    for u in region:
        if u < 0:
            raise _negative(u)
        yield u


def fix_tree_members(t: BT, pf: PairingFunction, region: Iterable[int]) -> Tuple[int, ...]:
    return fix_members(pf, region, t)


def fix_proj_members(
    pf: PairingFunction, region: Iterable[int], which: str = PI
) -> Tuple[int, ...]:
    return fix_members(pf, region, Seq((which,)))


def fix_seq_members(s: Seq, pf: PairingFunction, region: Iterable[int]) -> Tuple[int, ...]:
    return fix_members(pf, region, s)


def window(rel: LazyRelation, n: int) -> FiniteRelation:
    """Restriction of rel to [0, n) as a finite relation.

    Refuses n above ``WINDOW_CAP``.  Takes the image, one map pass
    whose row a is bit image(a) when that lies in [0, n) and 0 otherwise;
    else the witnesses, else the recipe, else n² ``contains`` calls.
    """
    if type(n) is not int:
        raise RelforkError(f"window size must be an integer, got {n!r}")
    if n > WINDOW_CAP:
        raise RelforkError(f"window size {n} exceeds cap {WINDOW_CAP}")
    if n < 0:
        raise RelforkError(f"window size must be nonnegative, got {n}")
    image = rel.image
    if image is not None:  # one map pass; a row holds at most one bit
        rows = [1 << v if v is not None and 0 <= v < n else 0 for v in map(image, range(n))]
        return FiniteRelation(n, tuple(rows))
    if rel.witnesses is not None:
        rows = []
        for a in range(n):
            row = 0
            for b in rel.witnesses(a):
                if 0 <= b < n:
                    row |= 1 << b
            rows.append(row)
        return FiniteRelation(n, tuple(rows))
    if rel.recipe is not None:
        return rel.recipe(n)
    contains = rel.contains
    return FiniteRelation(n, tuple(_bits(n, lambda b: contains(a, b)) for a in range(n)))


# ---------------------------------------------------------------------------
# Conjugation by a finite-support permutation


def _inverse_permutation(perm: Dict[int, int]) -> Dict[int, int]:
    """The inverse of a permutation given on its finite support."""
    if set(perm.keys()) != set(perm.values()):
        raise RelforkError("permutation must be a bijection on its finite support")
    return {v: k for k, v in perm.items()}


class Conjugate(Node):
    """The pairing star' = perm . star . (perm^-1 x perm^-1) of a base pairing.

    Conjugation by a finite-support permutation is an isomorphism of the
    proper fork algebras on N, and the fork axioms are equations, so the
    conjugate's certificate is its base's with every element moved by
    the permutation.
    """

    __slots__ = ("base", "perm", "inverse")

    def star(self, x: int, y: int) -> int:
        back = self.inverse
        w = self.base.star(back.get(x, x), back.get(y, y))
        return self.perm.get(w, w)

    def unstar(self, w: int) -> Optional[Pair]:
        decoded = self.base.unstar(self.inverse.get(w, w))
        return None if decoded is None else self._move(decoded)

    def _move(self, pair: Pair) -> Pair:
        perm = self.perm
        return (perm.get(pair[0], pair[0]), perm.get(pair[1], pair[1]))

    def certify(self) -> Certificate:
        injective, collisions, urelement = _certificate(self.base)
        moved = [(self._move(p), self._move(q)) for p, q in collisions]
        return injective, moved, self.perm.get(urelement, urelement)  # None stays None


def conjugate(pf: PairingFunction, perm: Dict[int, int]) -> PairingFunction:
    """The pairing star' = perm . star . (perm^-1 x perm^-1)."""
    meta = Conjugate(pf, dict(perm), _inverse_permutation(perm))
    return PairingFunction(meta.star, meta.unstar, meta)


# ---------------------------------------------------------------------------
# Direct checks of the fork axioms over a pairing function


class AxiomResult(Node):
    """One fork axiom's verdict; ``witness`` is its first failure, or None."""

    __slots__ = ("name", "description", "passed", "detail", "witness")


class CfaReport(Node):
    """The axiom results of one ``cfa_axiom_check``, in check order, and their
    ``Scope``: "exact over N", or "exact over N (conjugate)" for a conjugate."""

    __slots__ = ("results", "scope")

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


_CFA_AXIOMS = (
    ("cfa1", "r # s = (r;pi^) & (s;rho^)"),
    ("cfa2", "(r # s);(t # u)^ = (r;t^) & (s;u^)"),
    ("cfa3", "pi^ # rho^ <= 1' (fork of the projections is a subidentity)"),
    ("cfau", "1;(~(1 # 1) & 1');1 = 1 (some urelement exists)"),
)


def _certificate(pf: PairingFunction) -> Certificate:
    """The certificate of pf's meta, when pf runs the meta's own star and unstar."""
    certify = getattr(_own_meta(pf), "certify", None)
    if certify is None:
        raise RelforkError(
            "the fork axioms are certified only for a pairing whose star and unstar "
            "are its meta's own: a built pairing or a conjugate of one"
        )
    return certify()


def cfa_axiom_check(pf: PairingFunction, include_urelement_axiom: bool = False) -> CfaReport:
    """Decide the fork axioms cfa1 to cfa3, and cfau when asked, exactly over N.

    The verdicts come from ``pf.meta.certify()``; a pairing whose star
    and unstar are not its meta's own raises a ``RelforkError``.  Every
    collision of star fails cfa1 and cfa2, with the first as witness.
    """
    injective, collisions, urelement = _certificate(pf)
    witness = collisions[0] if collisions else None
    outside = f"exact over N: {urelement} lies outside star's range"
    if urelement is None:
        outside = injective
    verdicts = {
        "cfa1": (not collisions, f"{injective}, and unstar is its inverse", witness),
        "cfa2": (not collisions, injective, witness),
        "cfa3": (True, "exact over N: star inverts unstar", None),
        "cfau": (urelement is not None, outside, urelement),
    }
    kind = "exact over N (conjugate)" if isinstance(pf.meta, Conjugate) else "exact over N"
    axioms = _CFA_AXIOMS if include_urelement_axiom else _CFA_AXIOMS[:3]
    results = tuple(AxiomResult(name, text, *verdicts[name]) for name, text in axioms)
    return CfaReport(results, Scope(kind, None))


# ---------------------------------------------------------------------------
# Term-evaluation backend


class ForkBackend:
    """The operations of the term language over a pairing function.

    Equality and containment of lazy relations are undecidable; with a
    window n of at least 1 they compare the restrictions of both sides
    to [0, n), so that no comparison passes on two empty windows.  It
    evaluates one assignment at a time: a batch of one, whose mask
    ``full`` is 1.
    """

    full = 1
    union = staticmethod(union_rel)
    meet = staticmethod(meet_rel)
    complement = staticmethod(complement_rel)
    compose = staticmethod(compose_rel)
    converse = staticmethod(converse_rel)

    def __init__(self, pf: PairingFunction, window: Optional[int] = None):
        if window is not None:
            if type(window) is not int:
                raise RelforkError(f"window must be an integer, got {window!r}")
            if window < 1:
                raise RelforkError(f"window must be at least 1, got {window}")
        self.pf = pf
        self.window_size = window
        pi, rho = projections(pf)
        unstar = pf.unstar
        self._consts = {
            "zero": EMPTY,
            "one": UNIVERSAL,
            "id": IDENTITY,
            "pi": pi,
            "rho": rho,
            "urid": LazyRelation.from_image(  # the partial identity on urelements
                lambda u: u if unstar(u) is None else None,
                contains=lambda u, v: u == v and unstar(u) is None,
            ),
        }

    def const(self, kind: str) -> LazyRelation:
        try:
            return self._consts[kind]
        except KeyError:
            raise ValueError(f"unknown constant kind {kind!r}") from None

    def fork(self, r, s):
        return fork(r, s, self.pf)

    def _windows(self, r, s, relation: str) -> Tuple[FiniteRelation, FiniteRelation]:
        n = self.window_size
        if n is None:
            raise RelforkError(
                f"{relation} of lazy relations is undecidable; compare windows instead"
            )
        return window(r, n), window(s, n)

    def equal(self, r, s) -> bool:
        lhs, rhs = self._windows(r, s, "equality")
        return lhs == rhs

    def below(self, r, s) -> bool:
        lhs, rhs = self._windows(r, s, "containment")
        return lhs.is_subset(rhs)

"""Finite binary relations and proper relation algebras.

A relation on base ``[0, n)`` is stored as a tuple of n row bitmasks, so
membership is one shift and the Boolean operations run word-parallel.
Composition ORs the rows of the right operand selected by the bits of
each left row.  Converse walks the pairs of a sparse relation and reads
the columns of a dense one off a single bit string, so it costs
O(min(pairs, n²)) steps.

An :class:`AlgebraModel` is a Boolean algebra with operators, stored as
its atoms with its unit, identity and empty element; its carrier of 2^k
relations is built only when read.  ``full_pra(n)``, the full algebra
over a base of size n, has the n*n single cells as atoms, and a model is
full (``is_full``) exactly when it has n*n atoms.  Products, generated
subalgebras, ideal elements and the classification into trivial /
simple / prime live here as well.  A carrier from outside is checked, and
subalgebras are generated, by partition refinement of the unit's cells.
"""

from __future__ import annotations

import json
import math
from operator import and_, or_
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import RelforkError
from .node import Node

MAX_BASE = 16
MAX_CARRIER = 1 << 16


class RelationError(RelforkError):
    """Base-size mismatches, cap violations and malformed inputs."""


Pair = Tuple[int, int]


class FiniteRelation(Node):
    """An immutable binary relation on the base [0, base_size)."""

    __slots__ = ("base_size", "rows")

    @classmethod
    def from_pairs(cls, base_size: int, pairs: Iterable[Pair]) -> "FiniteRelation":
        if base_size < 0:
            raise RelationError(f"base size must be nonnegative, got {base_size}")
        rows = [0] * base_size
        for a, b in pairs:
            if not (0 <= a < base_size and 0 <= b < base_size):
                raise RelationError(
                    f"pair ({a}, {b}) out of range for base size {base_size}"
                )
            rows[a] |= 1 << b
        return cls(base_size, tuple(rows))

    @classmethod
    def empty(cls, base_size: int) -> "FiniteRelation":
        return cls(base_size, (0,) * base_size)

    @classmethod
    def identity(cls, base_size: int) -> "FiniteRelation":
        return cls(base_size, tuple(1 << a for a in range(base_size)))

    @classmethod
    def full(cls, base_size: int) -> "FiniteRelation":
        mask = (1 << base_size) - 1
        return cls(base_size, (mask,) * base_size)

    def contains(self, a: int, b: int) -> bool:
        return 0 <= a < self.base_size and 0 <= b < self.base_size and (
            self.rows[a] >> b
        ) & 1 == 1

    def pairs(self) -> Tuple[Pair, ...]:
        out: List[Pair] = []
        for a, row in enumerate(self.rows):
            while row:
                low = row & -row
                out.append((a, low.bit_length() - 1))
                row ^= low
        return tuple(out)

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def _check_same_base(self, other: "FiniteRelation") -> None:
        if self.base_size != other.base_size:
            raise RelationError(
                f"base-size mismatch: {self.base_size} vs {other.base_size}"
            )

    def _rowwise(self, op: Callable[[int, int], int], other: "FiniteRelation"):
        """The relation whose row a is op(self's row a, other's row a)."""
        self._check_same_base(other)
        return FiniteRelation(self.base_size, tuple(map(op, self.rows, other.rows)))

    def union(self, other: "FiniteRelation") -> "FiniteRelation":
        return self._rowwise(or_, other)

    def meet(self, other: "FiniteRelation") -> "FiniteRelation":
        return self._rowwise(and_, other)

    def complement_in(self, unit: "FiniteRelation") -> "FiniteRelation":
        """Complement relative to the given unit."""
        return self._rowwise(lambda a, u: u & ~a, unit)

    def compose(self, other: "FiniteRelation") -> "FiniteRelation":
        self._check_same_base(other)
        rows_s = other.rows
        out = []
        for row in self.rows:
            acc = 0
            while row:
                low = row & -row
                acc |= rows_s[low.bit_length() - 1]
                row ^= low
            out.append(acc)
        return FiniteRelation(self.base_size, tuple(out))

    def converse(self) -> "FiniteRelation":
        n = self.base_size
        if self.count() * 32 > n * n:
            # Dense: lay the rows out as one bit string, last row first, so the
            # stride-n slices are the columns, most significant bit first.
            cells = "".join(format(row, f"0{n}b") for row in reversed(self.rows))
            return FiniteRelation(n, tuple(int(cells[i::n], 2) for i in range(n - 1, -1, -1)))
        out = [0] * n
        for a, row in enumerate(self.rows):
            bit = 1 << a
            while row:
                low = row & -row
                out[low.bit_length() - 1] |= bit
                row ^= low
        return FiniteRelation(n, tuple(out))

    def is_subset(self, other: "FiniteRelation") -> bool:
        self._check_same_base(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def __repr__(self) -> str:
        return f"FiniteRelation({self.base_size}, {sorted(self.pairs())})"


def _code(rel: FiniteRelation) -> int:
    """The relation's cells as one n*n-bit int; row a holds bits [n*a, n*a + n)."""
    n = rel.base_size
    return sum(row << (n * a) for a, row in enumerate(rel.rows))


def _relation(n: int, code: int) -> FiniteRelation:
    """The relation on [0, n) whose cells are the bits of ``code``."""
    mask = (1 << n) - 1
    return FiniteRelation(n, tuple((code >> (n * a)) & mask for a in range(n)))


def _refine(blocks: List[int], splitters: Iterable[int], limit: int) -> List[int]:
    """Split every block by every splitter, stopping once there are over limit blocks."""
    for s in splitters:
        out = []
        for b in blocks:
            inside = b & s
            if inside and inside != b:
                out += (inside, b ^ inside)
            else:
                out.append(b)
        blocks = out
        if len(blocks) > limit:
            break
    return blocks


class AlgebraModel:
    """A finite proper relation algebra stored as its atoms, sorted by ``rows``.

    ``element(i)`` is the union of the atoms at the set bits of i, and
    ``index(rel)`` is rel's atom mask, or None when rel is not an element.
    Of two unions of atoms the greater by ``rows`` holds the largest atom
    they do not share, so ``carrier``, every element in index order and
    built on first read, is sorted by ``rows``.  The constructor checks a
    carrier from outside; ``of_atoms`` takes atoms closed by construction.
    """

    __slots__ = ("base_size", "unit", "identity", "empty", "is_full", "atoms", "_carrier")

    def __init__(
        self,
        base_size: int,
        carrier: Sequence[FiniteRelation],
        unit: FiniteRelation,
        identity: FiniteRelation,
    ):
        if base_size > MAX_BASE:
            raise RelationError(f"base size {base_size} exceeds cap {MAX_BASE}")
        if len(carrier) > MAX_CARRIER:
            raise RelationError(
                f"carrier size {len(carrier)} exceeds cap {MAX_CARRIER}"
            )
        elements = {rel.rows: rel for rel in carrier}
        empty = FiniteRelation.empty(base_size)
        for name, rel in (("unit", unit), ("identity", identity), ("empty", empty)):
            if rel.base_size != base_size:
                raise RelationError(f"{name} has base size {rel.base_size}, expected {base_size}")
            if rel.rows not in elements:
                raise RelationError(f"distinguished element {name} not in carrier")
        for rel in elements.values():
            if not rel.is_subset(unit):
                raise RelationError("carrier element not contained in the unit")
        if len(elements) == 1 << (base_size * base_size):
            atoms = full_pra(base_size).atoms
        else:
            atoms = _closed_atoms(elements, unit)
        self._adopt(base_size, atoms, unit, identity)

    @classmethod
    def of_atoms(cls, base_size: int, atoms, unit, identity) -> "AlgebraModel":
        """The model of ``atoms``, which are closed by how they were built."""
        model = cls.__new__(cls)
        model._adopt(base_size, atoms, unit, identity)
        return model

    def _adopt(self, base_size, atoms, unit, identity) -> None:
        self.base_size = base_size
        self.atoms = tuple(sorted(atoms, key=lambda rel: rel.rows))
        self.unit = unit
        self.identity = identity
        self.empty = FiniteRelation.empty(base_size)
        self.is_full = len(self.atoms) == base_size * base_size
        self._carrier = None

    def element(self, i: int) -> FiniteRelation:
        """The union of the atoms at the set bits of i."""
        cells = (_code(atom) for p, atom in enumerate(self.atoms) if i >> p & 1)
        return _relation(self.base_size, sum(cells))

    def index(self, rel: FiniteRelation) -> Optional[int]:
        """rel's atom mask, or None when rel is not a union of atoms."""
        if rel.base_size != self.base_size:
            return None
        code, mask = _code(rel), 0
        for p, cells in enumerate(map(_code, self.atoms)):
            if code & cells == cells:
                code ^= cells
                mask |= 1 << p
        return None if code else mask

    def __contains__(self, rel: FiniteRelation) -> bool:
        return self.index(rel) is not None

    @property
    def carrier(self) -> Tuple[FiniteRelation, ...]:
        """Every element in index order: ``carrier[i] == element(i)``."""
        if self._carrier is None:
            codes = [0]
            for cells in map(_code, self.atoms):
                codes += [code | cells for code in codes]
            self._carrier = tuple(_relation(self.base_size, code) for code in codes)
        return self._carrier

    def __repr__(self) -> str:
        shape = "full" if self.is_full else "proper"
        return (
            f"AlgebraModel(base={self.base_size}, carrier={1 << len(self.atoms)}, {shape})"
        )


def _closed_atoms(elements: Dict[Tuple[int, ...], FiniteRelation], unit: FiniteRelation):
    """The atoms of ``elements``, keyed by rows; RelationError unless a subalgebra.

    The carrier is a Boolean algebra under the unit iff its 2^k elements
    are the unions of the k blocks its elements split the unit into.  A
    Boolean algebra with operators is closed under them iff its atoms
    are (Jonsson and Tarski 1951), so O(c.k + k^2) work replaces O(c^2).
    """
    size = len(elements)
    k = size.bit_length() - 1
    not_boolean = "carrier is not a Boolean algebra under the unit: "
    if size != 1 << k:
        raise RelationError(not_boolean + f"its size {size} is not a power of two")
    cells = _code(unit)
    blocks = _refine([cells] if cells else [], map(_code, elements.values()), k)
    if len(blocks) > k:
        raise RelationError(not_boolean + f"its elements split the unit into more than {k} atoms")
    atoms = [_relation(unit.base_size, b) for b in blocks]
    if any(_code(a.converse()) not in blocks for a in atoms):
        raise RelationError("carrier not closed under converse")
    if any(a.compose(b).rows not in elements for a in atoms for b in atoms):
        raise RelationError("carrier not closed under composition")
    return atoms


def full_pra(n: int) -> AlgebraModel:
    """The full proper relation algebra over a base of n elements."""
    if n < 0:
        raise RelationError("base size must be nonnegative")
    cap = math.isqrt(MAX_CARRIER.bit_length() - 1)  # the largest n with 2**(n*n) <= MAX_CARRIER
    if n > cap:
        raise RelationError(
            f"full_pra base {n} exceeds cap {cap} "
            f"(carrier would have 2**{n * n} elements)"
        )
    return AlgebraModel.of_atoms(
        n,
        [_relation(n, 1 << q) for q in range(n * n)],
        unit=FiniteRelation.full(n),
        identity=FiniteRelation.identity(n),
    )


def ideal_elements(model: AlgebraModel) -> Tuple[FiniteRelation, ...]:
    """Elements x with 1;x;1 = x, sorted by ``rows``.

    x is the union of 1;a;1 over the atoms a below it, and two such
    minimal ideals are equal or disjoint, so the ideal elements are the
    unions of the distinct 1;a;1.
    """
    unit = model.unit
    codes = [0]
    for cells in {_code(unit.compose(a).compose(unit)) for a in model.atoms}:
        codes += [code | cells for code in codes]
    ideals = (_relation(model.base_size, code) for code in codes)
    return tuple(sorted(ideals, key=lambda rel: rel.rows))


class Classification:
    __slots__ = ("ideal_count", "carrier_size", "simple", "trivial", "prime")

    def __init__(self, ideal_count: int, carrier_size: int):
        self.ideal_count = ideal_count
        self.carrier_size = carrier_size
        self.simple = ideal_count <= 2
        self.trivial = carrier_size <= 2
        self.prime = self.simple and not self.trivial

    @property
    def label(self) -> str:
        if self.trivial:
            return "trivial"
        if self.prime:
            return "prime"
        return "not simple"

    def __repr__(self) -> str:
        return (
            f"Classification(ideals={self.ideal_count}, carrier={self.carrier_size}, "
            f"label={self.label!r})"
        )


def classify(model: AlgebraModel) -> Classification:
    return Classification(len(ideal_elements(model)), 1 << len(model.atoms))


def direct_product(m1: AlgebraModel, m2: AlgebraModel) -> AlgebraModel:
    """Direct product realized on the disjoint union of the two bases.

    Its atoms are m1's atoms and m2's atoms shifted by m1's base, and its
    unit is the union of the two units, so the product is full only when
    one factor has base 0 and the other is full.
    """
    n1, n2 = m1.base_size, m2.base_size
    n = n1 + n2
    if n > MAX_BASE:
        raise RelationError(f"product base size {n} exceeds cap {MAX_BASE}")
    if 1 << (len(m1.atoms) + len(m2.atoms)) > MAX_CARRIER:
        raise RelationError("product carrier exceeds size cap")

    def combine(r1: FiniteRelation, r2: FiniteRelation) -> FiniteRelation:
        return FiniteRelation(n, r1.rows + tuple(row << n1 for row in r2.rows))

    atoms = [combine(a, m2.empty) for a in m1.atoms] + [combine(m1.empty, a) for a in m2.atoms]
    return AlgebraModel.of_atoms(
        n,
        atoms,
        unit=combine(m1.unit, m2.unit),
        identity=combine(m1.identity, m2.identity),
    )


def power(model: AlgebraModel, exponent: int) -> AlgebraModel:
    """Iterated direct product; exponent 0 gives the one-element algebra."""
    if exponent < 0:
        raise RelationError("exponent must be nonnegative")
    result = full_pra(0)
    for _ in range(exponent):
        result = direct_product(result, model)
    return result


def generate_subalgebra(base_size: int, generators: Iterable[FiniteRelation]) -> AlgebraModel:
    """Subalgebra of the full algebra over [0, base_size) generated by H.

    Its atoms are the blocks of the coarsest partition of the unit that
    the generators and the identity split, and that converses and
    compositions of its own blocks split no further.  The model is made
    from its k atoms only once 2^k is known to fit ``MAX_CARRIER``.
    """
    if base_size > MAX_BASE:
        raise RelationError(f"base size {base_size} exceeds cap {MAX_BASE}")
    unit = FiniteRelation.full(base_size)
    identity = FiniteRelation.identity(base_size)
    splitters = [_code(identity)]
    for g in generators:
        if g.base_size != base_size:
            raise RelationError("generator has wrong base size")
        splitters.append(_code(g))
    limit = MAX_CARRIER.bit_length() - 1
    blocks = _refine([_code(unit)] if base_size else [], splitters, limit)
    while len(blocks) <= limit:
        atoms = [_relation(base_size, b) for b in blocks]
        splitters = [_code(a.converse()) for a in atoms]
        splitters += [_code(a.compose(b)) for a in atoms for b in atoms]
        refined = _refine(blocks, splitters, limit)
        if len(refined) == len(blocks):
            break
        blocks = refined
    if len(blocks) > limit:
        raise RelationError(
            f"generated carrier of at least 2**{len(blocks)} elements exceeds cap {MAX_CARRIER}"
        )
    return AlgebraModel.of_atoms(base_size, atoms, unit=unit, identity=identity)


def _pairs_to_json(rel: FiniteRelation) -> List[List[int]]:
    return [[a, b] for a, b in sorted(rel.pairs())]


def model_to_dict(model: AlgebraModel) -> dict:
    return {
        "base_size": model.base_size,
        "full": model.is_full,
        "carrier": [_pairs_to_json(rel) for rel in model.carrier],
        "unit": _pairs_to_json(model.unit),
        "identity": "auto"
        if model.identity == FiniteRelation.identity(model.base_size)
        else _pairs_to_json(model.identity),
    }


def pairs_from_json(data) -> List[Pair]:
    """The int pairs of a JSON list of [a, b] pairs of naturals."""
    if not isinstance(data, (list, tuple)):
        raise RelationError(f"expected a list of [a, b] pairs, got {data!r}")
    for item in data:
        if not isinstance(item, (list, tuple)) or len(item) != 2 or not all(
            type(x) is int and x >= 0 for x in item
        ):
            raise RelationError(f"expected an [a, b] pair of naturals, got {item!r}")
    return [(a, b) for a, b in data]


def model_from_dict(data: dict) -> AlgebraModel:
    try:
        base_size = data["base_size"]
        full = data.get("full", False)
    except (KeyError, TypeError) as exc:
        raise RelationError(f"malformed model data: {exc}") from exc
    if type(base_size) is not int:
        raise RelationError(f"base_size must be an integer, got {base_size!r}")
    if type(full) is not bool:
        raise RelationError(f"full must be true or false, got {full!r}")
    if full and "carrier" not in data:
        return full_pra(base_size)
    if not 0 <= base_size <= MAX_BASE:
        raise RelationError(f"base size {base_size} outside [0, {MAX_BASE}]")
    try:
        if not isinstance(data["carrier"], (list, tuple)):
            raise RelationError("carrier must be a list of pair lists")
        if len(data["carrier"]) > MAX_CARRIER:
            raise RelationError(f"carrier size {len(data['carrier'])} exceeds cap {MAX_CARRIER}")
        carrier = [
            FiniteRelation.from_pairs(base_size, pairs_from_json(rel))
            for rel in data["carrier"]
        ]
        unit = FiniteRelation.from_pairs(base_size, pairs_from_json(data["unit"]))
        identity_field = data.get("identity", "auto")
        if identity_field == "auto":
            identity = FiniteRelation.identity(base_size)
        else:
            identity = FiniteRelation.from_pairs(base_size, pairs_from_json(identity_field))
    except (KeyError, TypeError) as exc:
        raise RelationError(f"malformed model data: {exc}") from exc
    model = AlgebraModel(base_size, carrier, unit=unit, identity=identity)
    if full and not model.is_full:
        raise RelationError("full model must contain every subset of the unit")
    return model


def save_model(model: AlgebraModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path: str, what: str):
    """The JSON value in the named file; RelationError on invalid or too deeply nested text."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise RelationError(f"invalid {what} file {path}: {exc}") from exc


def load_model(path: str) -> AlgebraModel:
    return model_from_dict(read_json(path, "model"))

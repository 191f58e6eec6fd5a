"""Concrete injective pairings on the naturals with pinned fixpoints.

Every builder here partitions the naturals into a finite reserved set
and an infinite residual, splits the residual into countably many
disjoint infinite blocks through the Cantor pairing, and then defines
``star`` by a finite table of pinned cells plus a default encoder on
all remaining pairs.  Every kind but ``basic`` shares that one
table-driven pairing; ``unstar`` inverts the table.

The default encoder sends (u, v) to an element of block 0 strictly
above max(u, v), so no pair outside the table can close a fixpoint
equation: every controlled fixpoint is forced through the table, and
the table pins exactly the designated members.

Kinds:

* ``basic``: self-pairing fixpoints.  star(u, u) = u exactly on the
  designated members; other diagonal values shift one block up and
  off-diagonal pairs fill block 0 bijectively, so star is a bijection.
* ``tree``: fixpoints of the map folding star over a control tree.
  Each non-nil strict subtree owns a block of scaffolding images; the
  table lifts scaffolding level by level and closes at the root.
* ``pi`` / ``rho``: fixpoints of the named projection.  Each member is
  paired with a reserved partner on the named side; partners stay
  outside the range of star.
* ``seq``: fixpoints of the projection chain named by a control
  sequence over {pi, rho}.  Levels own blocks; a reserved-block partner
  sits on the silent side of every chain step.

A control that is a power of a shorter one, such as ``pi.pi`` or
``bin (bin nil nil) (bin nil nil)`` (``bin nil nil`` substituted into
its own leaves), has as image a power of the shorter control's image,
whose periodic points are all fixpoints of the power.  The tree and seq
tables therefore pin the shortest root of their control; every other
control keeps its own table.

Each layout carries the control whose fixpoints its table pins, in the
form ``forkmodel.fix_members`` scans: ``bin nil nil`` for ``basic``,
the control tree for ``tree``, the one-step sequence ``pi`` or ``rho``
for the projection kinds and the control sequence for ``seq``.

The fork axioms, exactly over N.  In a proper fork algebra cfa2 holds
iff ``star`` is injective, and cfa1 and cfa3 hold iff, in addition,
``unstar`` is its exact partial inverse: ``unstar(star(u, v)) = (u, v)``
everywhere, ``star(unstar(w)) = w`` wherever ``unstar`` is defined and
``None`` off the range of ``star``.  ``ConstructionLayout.certify``
proves these facts from the layout's table alone;
``forkmodel.cfa_axiom_check`` calls it as ``pf.meta.certify``, so only
this module imports the other.

* Lemma.  The residual element of rank j is j plus the number of
  reserved values at or below it, and ``rank(u)``, the rank of a
  residual element u, is u minus the number of reserved values below
  it.  These are inverse bijections between N and the residual,
  ``cantor_pair`` is a bijection N x N -> N with inverse
  ``cantor_unpair``, and ``block_element(i, k)`` is the residual
  element of rank ``cantor_pair(i, k)``.  ``encode_rest`` takes these
  steps forward, ``decode_rest`` takes them back from ``rank``, so
  ``decode_rest(encode_rest(u, v)) = (u, v)`` and
  ``encode_rest(decode_rest(w)) = w`` wherever ``decode_rest`` is
  defined, which is exactly on block 0 at offsets >= 1.  The offset is
  ``cantor_pair(u, v) + 1 > max(u, v)``, so the cell lies above u and v.
* Table kinds (``tree``, ``pi``, ``rho``, ``seq``).  Suppose the table's
  values are distinct and no value is the default cell of an unpinned
  pair.  Then ``star`` is injective: two pinned cells differ by the
  first fact, two default cells by the lemma, and a pinned value equal
  to ``encode_rest(q)`` would decode to the unpinned q.  ``unstar``
  returns the pinned cell on a table value and otherwise decodes a
  default cell unless the table pins it, so by the lemma it inverts
  ``star`` both ways and is ``None`` exactly off its range.
* ``basic``.  The off-diagonal code ``cantor_pair(u, v')``, where v'
  is v below u and v - 1 above it, maps the off-diagonal pairs
  bijectively onto N, so off-diagonal pairs fill block 0.  The diagonal
  sends S to itself and every other u, at block i and offset k, to
  block i + 1 at offset k, so it fills the blocks above 0.  S, block 0
  and the higher blocks partition N, so ``star`` is a bijection, its
  inverse is ``unstar`` and there is no urelement.
* The certificate.  ``ConstructionLayout.certify`` reads only the
  table: it reports every table cell whose value is already taken, by
  an earlier cell or by the default cell of an unpinned pair, as a
  collision.  With no collision, the two facts above hold, so ``star``
  is injective and ``unstar`` its exact partial inverse.  The first
  urelement is the least w with ``unstar(w)`` None.  No table value
  and no default cell is the first residual element, block 0 at
  offset 0, so the walk up from 0 ends there at the latest, after at
  most |reserved| + 1 steps.
* The tie.  A layout computes its pairing: the ``star`` and ``unstar``
  of a built pairing are the layout's own methods, and
  ``forkmodel.cfa_axiom_check`` accepts a pairing only when they are.
  So the certificate speaks of the very functions the pairing runs,
  and no scan of N is needed to tie the two together.
* The range.  For any non-nil control over a table kind, every
  fixpoint u of the control's image lies in the range of ``star``, and
  that range lies inside the table's values and block 0's cells at
  offsets >= 1.  A tree's image at u is a ``star`` value, and ``star``
  returns a table value or ``encode_rest(...)``, a block-0 cell at
  offset >= 1 by the lemma.  A sequence's chase begins with
  ``unstar(u)``, which is ``None`` unless u is a table value or
  ``rank(u)`` unpairs to block 0 at an offset >= 1 (``decode_rest``).
  ``ConstructionLayout.star_values`` lists that set in an interval,
  about |table| + sqrt(2n) values below n, and
  ``forkmodel.fix_members`` evaluates the image only there when the
  pairing runs the layout's own ``star`` and ``unstar`` (the tie).
* The diagonal runs.  ``basic``'s ``star`` is onto, so no range narrows
  its scan; its diagonal does.  Let u < u' be consecutive with no
  reserved value between them, ranks j and j + 1 on one Cantor
  diagonal d.  Their targets have ranks j + d + 1 and j + d + 2, and
  the residual elements of consecutive ranks are consecutive unless a
  reserved value lies between them.  So star(u, u) - u is constant on
  every run that contains no reserved element, stays on one diagonal
  and whose target passes no reserved value, and
  ``BasicLayout.diagonal_runs`` tiles an interval with such runs and
  the reserved elements, in one walk with O(1) work per run.  The
  offset is 0 exactly on the reserved elements, S, since a residual u
  of block i goes to block i + 1.  ``forkmodel.fix_members`` evaluates
  ``bin nil nil`` only on the runs with offset 0 when the pairing runs
  the layout's own ``star`` (the tie), so its ``star`` checks S within
  the interval and nothing else.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .btree import (
    BT,
    NIL,
    Bin,
    Nil,
    format_tree,
    is_tree,
    node_count,
    parse_tree,
    strict_subtrees,
    tree_map,
)
from .errors import RelforkError
from .forkmodel import Certificate, Control, PairingFunction
from .seqs import PI, RHO, Seq, format_seq, parse_seq

Pair = Tuple[int, int]

MAX_MEMBERS = 512
MAX_CONTROL_NODES = 64
# The side of the star grid that layout_report samples.
REPORT_GRID = 12


class ConstructionError(RelforkError):
    pass


def cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def cantor_unpair(m: int) -> Pair:
    w = (math.isqrt(8 * m + 1) - 1) // 2
    b = m - w * (w + 1) // 2
    return (w - b, b)


def _checked_members(s_members: Iterable[int]) -> Tuple[int, ...]:
    """The sorted distinct members; each must be an ``int``, not a bool, and >= 0."""
    try:
        members = tuple(s_members)
    except TypeError:
        raise ConstructionError(f"members must be a list of naturals, got {s_members!r}") from None
    for u in members:  # before any sort or hash, which a wrong type could break
        if type(u) is not int or u < 0:
            raise ConstructionError(f"members must be naturals, got {u!r}")
    values = sorted(set(members))
    if len(values) > MAX_MEMBERS:
        raise ConstructionError(f"at most {MAX_MEMBERS} members supported")
    return tuple(values)


class ConstructionLayout:
    """Reserved set, residual block arithmetic, the pinned table and its control.

    The layout computes its pairing: ``star`` and ``unstar`` are its
    methods, and ``pairing()`` hands them out once the table is filled.
    ``reserved`` must be strictly increasing and non-negative.  ``rank``
    and ``block_element`` bisect it below its top value and shift by
    |reserved| above, so ``star`` and ``unstar`` cost O(log |reserved|)
    per call.  Each method takes the lemma's steps through them except
    ``BasicLayout.star``, which a fork's window calls once per row.
    """

    def __init__(
        self,
        kind: str,
        s_values: Tuple[int, ...],
        reserved: Tuple[int, ...],
        block_names: Tuple[str, ...],
        control: Optional[Control] = None,
        control_text: Optional[str] = None,
        partners: Optional[Tuple[int, ...]] = None,
    ):
        self.kind = kind
        self.s_values = s_values
        self.s_rank = {u: i for i, u in enumerate(s_values)}
        if (reserved and reserved[0] < 0) or any(a >= b for a, b in zip(reserved, reserved[1:])):
            raise ConstructionError("reserved values must be strictly increasing and non-negative")
        self.reserved = reserved
        self.reserved_set = frozenset(reserved)
        # reserved[i] - i counts the residual elements below reserved[i].
        self.gaps = tuple(r - i for i, r in enumerate(reserved))
        # From top up, a residual element is its rank plus |reserved|, so the
        # arithmetic below bisects only under top.
        self.top = reserved[-1] + 1 if reserved else 0
        self.shift = len(reserved)
        self.block_names = block_names
        self.control = control
        self.control_text = control_text
        self.partners = partners
        self.table: Dict[Pair, int] = {}
        self.inverse: Dict[int, Pair] = {}  # the table's, set by pairing()

    def block_element(self, i: int, k: int) -> int:
        """The element of block i at offset k: residual element cantor_pair(i, k)."""
        j = cantor_pair(i, k)
        w = j + self.shift
        return w if w >= self.top else j + bisect_right(self.gaps, j)

    def rank(self, w: int) -> int:
        """The rank of a residual element w: w minus the reserved values below it."""
        return w - (self.shift if w >= self.top else bisect_left(self.reserved, w))

    def encode_rest(self, u: int, v: int) -> int:
        """Default cell: block 0 at offset cantor_pair(u, v) + 1, above both coordinates."""
        return self.block_element(0, cantor_pair(u, v) + 1)

    def decode_rest(self, w: int) -> Optional[Pair]:
        """The pair whose default cell is w; None off block 0's offsets >= 1."""
        if w in self.reserved_set:
            return None
        i, k = cantor_unpair(self.rank(w))
        return cantor_unpair(k - 1) if i == 0 and k >= 1 else None

    def pairing(self) -> PairingFunction:
        """The pairing this layout computes, once its table is filled."""
        self.inverse = {w: pair for pair, w in self.table.items()}
        return PairingFunction(self.star, self.unstar, self)

    def star(self, u: int, v: int) -> int:
        """The pinned table on its cells, the default encoder everywhere else."""
        pinned = self.table.get((u, v))
        if pinned is not None:
            return pinned
        return self.encode_rest(u, v)

    def unstar(self, w: int) -> Optional[Pair]:
        """The pinned cell of a table value, else the unpinned pair of a default cell."""
        pinned = self.inverse.get(w)
        if pinned is not None:
            return pinned
        pair = self.decode_rest(w)
        if pair is None or pair in self.table:
            return None
        return pair

    def star_values(self, start: int, stop: int) -> List[int]:
        """A sorted superset of star's range in [start, stop): table values and default cells.

        The default cells are block 0 at offsets >= 1; those in
        [start, stop) are found from a lower bound on their first offset,
        so the cost is |table| plus the cells in the interval.
        """
        values = {w for w in self.table.values() if start <= w < stop}
        # The cell at offset k is the residual element of rank k(k + 3) / 2, at
        # most |reserved| above its rank: start at the last offset whose rank is
        # at most start - |reserved|.
        k = max(1, (math.isqrt(8 * max(0, start - self.shift) + 9) - 3) // 2)
        w = self.block_element(0, k)
        while w < stop:
            if w >= start:
                values.add(w)
            k += 1
            w = self.block_element(0, k)
        return sorted(values)

    def certify(self) -> Certificate:
        """Why star is injective, its collisions and its first urelement, from the table.

        A collision pairs a table cell, in table order, with what first
        took its value: an earlier cell, or the unpinned pair whose
        default cell it is.  The proof is in the module docstring.
        """
        collisions = []
        owners: Dict[int, Pair] = {}
        for cell, w in self.table.items():
            pair = self.decode_rest(w)
            unpinned = None if pair in self.table else pair  # whose default cell is w
            owner = owners.get(w) or unpinned
            if owner is not None:
                collisions.append((owner, cell))
            owners[w] = cell
        urelement = next(w for w in itertools.count() if self.unstar(w) is None)
        injective = "exact over N: star is injective (table values distinct, off default cells)"
        return injective, collisions, urelement


# ---------------------------------------------------------------------------
# basic: star(u, u) = u exactly on S; bijective


class BasicLayout(ConstructionLayout):
    """The layout of ``basic``: no table, and star a bijection by construction."""

    star_values = None  # star is onto N: no element is outside its range

    def star(self, u: int, v: int) -> int:
        """The lemma's steps fused in one body: a fork's window calls it once per row."""
        if u != v:
            if v > u:
                v -= 1
            d = u + v
            k = d * (d + 1) // 2 + v  # the off-diagonal code
            j = k * (k + 3) // 2  # block 0 at offset k
        elif u in self.reserved_set:
            return u
        else:
            j = u - (self.shift if u >= self.top else bisect_left(self.reserved, u))
            j += (math.isqrt(8 * j + 1) + 1) // 2  # from block i to i + 1 at offset k
        w = j + self.shift
        return w if w >= self.top else j + bisect_right(self.gaps, j)

    def diagonal_runs(self, start: int, stop: int) -> Iterator[Tuple[int, int, int]]:
        """Runs (lo, hi, off) that tile [start, stop), with star(u, u) = u + off on each.

        One walk of the lemma's steps: the rank j of u skips the reserved
        values, j lies on Cantor diagonal d, so the target rank
        cantor_pair(i + 1, k) is j + d + 1, and a pointer into ``gaps``
        turns it back into an element.  A run ends at a reserved element
        (a run of one with off 0), at the end of a diagonal and where the
        target passes a reserved value.
        """
        if start >= stop:
            return
        reserved, gaps = self.reserved, self.gaps
        n = len(reserved)
        p = bisect_left(reserved, start)  # the reserved values below u
        j = start - p  # the rank of the first residual element at or above u
        d = (math.isqrt(8 * j + 1) - 1) // 2
        end = (d + 1) * (d + 2) // 2  # the first rank on diagonal d + 1
        t = j + d + 1
        q = bisect_right(gaps, t)  # the reserved values at or below the target
        u = start
        while u < stop:
            if p < n and reserved[p] == u:
                yield u, u + 1, 0
                u += 1
                p += 1
                continue
            length = min(stop - u, end - j)
            if p < n:
                length = min(length, reserved[p] - u)
            if q < n:
                length = min(length, gaps[q] - t)
            yield u, u + length, d + 1 + q - p
            u += length
            j += length
            t += length
            if j == end:
                d += 1
                end += d + 1
                t += 1
            while q < n and gaps[q] <= t:
                q += 1

    def unstar(self, w: int) -> Optional[Pair]:
        if w in self.reserved_set:
            return (w, w)
        i, k = cantor_unpair(self.rank(w))
        if i == 0:  # k is the off-diagonal code
            u, v = cantor_unpair(k)
            return (u, v if v < u else v + 1)
        u = self.block_element(i - 1, k)
        return (u, u)

    def certify(self) -> Certificate:
        return "exact over N: star is a bijection", [], None


def build_star_basic(s_members: Iterable[int]) -> PairingFunction:
    s_values = _checked_members(s_members)
    return BasicLayout(
        kind="basic",
        s_values=s_values,
        reserved=s_values,
        block_names=("offdiag", "diag-shift-0"),
        control=Bin(NIL, NIL),
    ).pairing()


# ---------------------------------------------------------------------------
# tree: fixpoints of folding star over a control tree


def _tree_root(t: BT) -> BT:
    """The smallest r whose substitution power r[nil := r[nil := ...]] is t."""
    for r in sorted(strict_subtrees(t) - {NIL}, key=node_count):
        power = r
        while node_count(power) < node_count(t):
            power = tree_map(r, Bin, power)
        if power == t:
            return r
    return t


def build_star_tree(t: BT, s_members: Iterable[int]) -> PairingFunction:
    if not is_tree(t):
        raise ConstructionError("control tree must not contain holes")
    if isinstance(t, Nil):
        raise ConstructionError("control tree must not be nil")
    if node_count(t) > MAX_CONTROL_NODES:
        raise ConstructionError(f"control tree exceeds {MAX_CONTROL_NODES} nodes")
    s_values = _checked_members(s_members)
    if not s_values:
        raise ConstructionError("tree construction needs at least one member")

    root = _tree_root(t)
    families: List[BT] = sorted(
        (c for c in strict_subtrees(root) if not isinstance(c, Nil)),
        key=lambda c: (node_count(c), format_tree(c)),
    )
    fam_block = {c: 1 + j for j, c in enumerate(families)}
    layout = ConstructionLayout(
        kind="tree",
        s_values=s_values,
        reserved=s_values,
        block_names=("rest",) + tuple(f"scaffold[{format_tree(c)}]" for c in families),
        control=t,
        control_text=format_tree(t),
    )

    def block(c: BT) -> int:
        return 0 if isinstance(c, Nil) else fam_block[c]

    # Each cell as blocks, each tree hashed once; 0 stands for nil, so
    # at[0] is w itself, and so is the root's value.
    cells = [(block(c.left), block(c.right), fam_block[c]) for c in families]
    cells.append((block(root.left), block(root.right), 0))
    for k, w in enumerate(s_values):  # k is w's rank in S
        at = [w] + [layout.block_element(b, k) for b in range(1, len(families) + 1)]
        for left, right, value in cells:
            layout.table[(at[left], at[right])] = at[value]
    return layout.pairing()


# ---------------------------------------------------------------------------
# pi / rho: fixpoints of one projection


def build_star_proj(s_members: Iterable[int], which: str = PI) -> PairingFunction:
    if which not in (PI, RHO):
        raise ConstructionError(f"projection kind must be {PI!r} or {RHO!r}")
    s_values = _checked_members(s_members)
    s_set = set(s_values)
    partners: List[int] = []
    candidate = 0
    while len(partners) < len(s_values):
        if candidate not in s_set:
            partners.append(candidate)
        candidate += 1

    layout = ConstructionLayout(
        kind=which,
        s_values=s_values,
        reserved=tuple(sorted(s_set | set(partners))),
        block_names=("rest",),
        control=Seq((which,)),
        partners=tuple(partners),
    )
    for w, p in zip(s_values, partners):
        key = (w, p) if which == PI else (p, w)
        layout.table[key] = w
    return layout.pairing()


# ---------------------------------------------------------------------------
# seq: fixpoints of a projection chain


def build_star_seq(s: Seq, s_members: Iterable[int]) -> PairingFunction:
    symbols = s.symbols
    if len(symbols) > MAX_CONTROL_NODES:
        raise ConstructionError(f"control sequence exceeds {MAX_CONTROL_NODES} steps")
    # The chain follows the shortest period of the sequence (see above).
    length = next(
        p for p in range(1, len(symbols) + 1) if symbols[:p] * (len(symbols) // p) == symbols
    )
    s_values = _checked_members(s_members)
    if not s_values:
        raise ConstructionError("sequence construction needs at least one member")

    level_names = tuple(f"level-{i}" for i in range(1, length))
    layout = ConstructionLayout(
        kind="seq",
        s_values=s_values,
        reserved=s_values,
        block_names=("rest",) + level_names + ("partners",),
        control=s,
        control_text=format_seq(s),
    )
    s_rank = layout.s_rank

    def chain_value(j: int, w: int) -> int:
        """j-th value on the chain of w; ends of the chain are w itself."""
        if j == 0 or j == length:
            return w
        return layout.block_element(j, s_rank[w])

    for w in s_values:
        partner = layout.block_element(length, s_rank[w])
        for i in range(1, length + 1):
            key = chain_value(i, w)
            pair = (key, partner) if symbols[i - 1] == PI else (partner, key)
            layout.table[pair] = chain_value(i - 1, w)
    return layout.pairing()


# ---------------------------------------------------------------------------
# Config entry point and reporting


def build_from_config(config: Mapping) -> PairingFunction:
    """Build a pairing from {"kind", "S", "control"}.

    "control" carries the tree text for kind "tree" and the sequence
    text for kind "seq"; the other kinds take no control.
    """
    if not isinstance(config, Mapping):
        raise ConstructionError("config must be a mapping")
    allowed = {"kind", "S", "control"}
    unknown = set(config) - allowed
    if unknown:
        raise ConstructionError(f"unknown config keys: {sorted(unknown)}")
    kind = config.get("kind")
    members = config.get("S", [])
    if not isinstance(members, list):
        raise ConstructionError(f"S must be a list of naturals, got {members!r}")
    control = config.get("control")
    if kind == "basic":
        if control is not None:
            raise ConstructionError("basic construction takes no control")
        return build_star_basic(members)
    if kind in (PI, RHO):
        if control is not None:
            raise ConstructionError("projection construction takes no control")
        return build_star_proj(members, which=kind)
    if kind == "tree":
        if not isinstance(control, str):
            raise ConstructionError("tree construction needs a control tree text")
        return build_star_tree(parse_tree(control), members)
    if kind == "seq":
        if not isinstance(control, str):
            raise ConstructionError("sequence construction needs a control sequence text")
        return build_star_seq(parse_seq(control), members)
    raise ConstructionError(f"unknown construction kind {kind!r}")


def layout_report(pf: PairingFunction) -> Dict:
    """Inspectable summary of a built pairing: blocks, table, ``REPORT_GRID`` star grid."""
    layout = pf.meta
    if not isinstance(layout, ConstructionLayout):
        raise ConstructionError("pairing function carries no construction layout")
    blocks = [
        {
            "index": i,
            "name": name,
            "first_elements": [layout.block_element(i, k) for k in range(6)],
        }
        for i, name in enumerate(layout.block_names)
    ]
    table = [
        {"u": u, "v": v, "value": w}
        for (u, v), w in sorted(layout.table.items())
    ]
    report = {
        "kind": layout.kind,
        "members": list(layout.s_values),
        "control": layout.control_text,
        "reserved": list(layout.reserved),
        "fix_candidates": list(layout.s_values),
        "blocks": blocks,
        "table": table,
        "star_grid": [[pf.star(u, v) for v in range(REPORT_GRID)] for u in range(REPORT_GRID)],
    }
    if layout.partners is not None:
        report["partners"] = list(layout.partners)
    return report

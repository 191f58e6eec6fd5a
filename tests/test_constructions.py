"""Star constructions: block layout arithmetic and pinned fixpoint sets."""

import functools
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from relfork import (
    Bin,
    ConstructionError,
    ConstructionLayout,
    NIL,
    PI,
    RHO,
    PairingFunction,
    RelforkError,
    Scope,
    Seq,
    build_from_config,
    build_star_basic,
    build_star_proj,
    build_star_seq,
    build_star_tree,
    cantor_pair,
    cantor_unpair,
    cfa_axiom_check,
    conjugate,
    fix_members,
    fix_proj_members,
    fix_seq_members,
    fix_tree_members,
    layout_report,
    parse_seq,
    parse_tree,
    tree_map,
)
from relfork import constructions
from relfork.constructions import MAX_MEMBERS, BasicLayout
from relfork.errors import SCAN_CAP

from helpers import (
    ChainArithmetic,
    cfa_scan_oracle,
    residual_element_linear,
    residual_rank_linear,
    unpair_ref,
)


def assert_injective_on_grid(star, n: int) -> None:
    seen = {}
    for u in range(n):
        for v in range(n):
            w = star(u, v)
            assert w not in seen, f"star({u},{v}) == star{seen[w]} == {w}"
            seen[w] = (u, v)


def assert_unstar_inverts(pf, n: int) -> None:
    for u in range(n):
        for v in range(n):
            assert pf.unstar(pf.star(u, v)) == (u, v)


class TestCantor:
    def test_known_values(self):
        assert [cantor_pair(a, b) for a, b in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]] == [
            0, 1, 2, 3, 4, 5,
        ]
        assert [unpair_ref(m) for m in range(6)] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_round_trip(self, a, b):
        assert cantor_unpair(cantor_pair(a, b)) == (a, b)

    @given(st.integers(0, 10**9))
    def test_surjective(self, m):
        a, b = cantor_unpair(m)
        assert cantor_pair(a, b) == m

    @given(st.one_of(st.integers(0, 10**4), st.integers(0, 10**45)))
    def test_unpair_matches_bisection(self, m):
        # The layout decodes through cantor_unpair; the test chain has its own.
        assert cantor_unpair(m) == unpair_ref(m)


class TestLayoutArithmetic:
    LAYOUT = ConstructionLayout(
        kind="basic",
        s_values=(3, 4),
        reserved=(0, 1, 3, 4),
        block_names=("rest",),
    )

    def test_residual_enumeration(self):
        # Residual element j sits in block i at offset k, where (i, k) = cantor_unpair(j).
        got = [self.LAYOUT.block_element(*cantor_unpair(j)) for j in range(6)]
        assert got == [2, 5, 6, 7, 8, 9]
        for j, u in enumerate(got):
            assert residual_rank_linear(self.LAYOUT.reserved, u) == j

    def test_decode_rest_rejects_reserved(self):
        for r in self.LAYOUT.reserved:
            assert self.LAYOUT.decode_rest(r) is None

    def test_block_partition(self):
        seen = set()
        for i in range(5):
            for k in range(5):
                u = self.LAYOUT.block_element(i, k)
                assert u not in self.LAYOUT.reserved_set
                assert cantor_unpair(residual_rank_linear(self.LAYOUT.reserved, u)) == (i, k)
                seen.add(u)
        assert len(seen) == 25

    def test_encode_rest_strictly_dominates(self):
        for u in range(30):
            for v in range(30):
                w = self.LAYOUT.encode_rest(u, v)
                assert w > u and w > v
                assert self.LAYOUT.decode_rest(w) == (u, v)

    def test_decode_rest_rejects_other_cells(self):
        assert self.LAYOUT.decode_rest(self.LAYOUT.block_element(0, 0)) is None
        assert self.LAYOUT.decode_rest(self.LAYOUT.block_element(1, 2)) is None
        assert self.LAYOUT.decode_rest(3) is None

    def test_members_validation(self):
        with pytest.raises(ConstructionError):
            build_star_basic([-1, 2])
        with pytest.raises(ConstructionError):
            build_star_basic(range(MAX_MEMBERS + 1))

    @pytest.mark.parametrize("members", [[1.7], [True], ["1"], [1, "a"], [[1]], "12", 5])
    def test_members_must_be_naturals(self, members):
        # Each member's type is checked before any sort or hash of the list.
        with pytest.raises(ConstructionError, match="members must be"):
            build_star_basic(members)

    @pytest.mark.parametrize("reserved", [(4, 0), (3, 3), (0, 2, 2, 5), (-1, 2)])
    def test_reserved_must_be_strictly_increasing_and_non_negative(self, reserved):
        with pytest.raises(ConstructionError, match="strictly increasing"):
            ConstructionLayout("basic", (), reserved, ("rest",))


@st.composite
def reserved_tuples(draw):
    """Sorted reserved sets of 0 to 1,024 values, scattered or in consecutive runs."""
    values = set(draw(st.lists(st.integers(0, 4096), max_size=64)))
    runs = draw(st.lists(st.tuples(st.integers(0, 4096), st.integers(1, 512)), max_size=4))
    for start, length in runs:
        values.update(range(start, start + length))
    return tuple(sorted(values)[:1024])


class TestLayoutMatchesLinearArithmetic:
    """The flattened arithmetic against the linear scans, up to the 2|S| = 1,024 of pi/rho."""

    @settings(max_examples=60, deadline=None)
    @given(
        reserved=reserved_tuples(),
        ranks=st.lists(st.integers(0, 6000), max_size=40),
        blocks=st.lists(st.tuples(st.integers(0, 100), st.integers(0, 5000)), max_size=20),
    )
    @example(reserved=(), ranks=[], blocks=[])
    @example(reserved=(0,), ranks=[], blocks=[])
    @example(reserved=tuple(range(1024)), ranks=[], blocks=[])
    @example(reserved=tuple(range(0, 2048, 2)), ranks=[], blocks=[])
    def test_agrees_with_linear_scan(self, reserved, ranks, blocks):
        # reserved is all the basic layout reads, so any tuple is a layout.
        layout = BasicLayout("basic", (), reserved, ("rest",))
        linear = ChainArithmetic(layout, linear=True)
        # Residual ranks where the count of reserved values below steps up.
        edges = {r - i + d for i, r in enumerate(reserved) for d in (-1, 0, 1)}
        probes = sorted(x for x in edges | {0, 1, 4100, 10**6} if x >= 0) + ranks
        elements = []
        for j in probes:
            u = layout.block_element(*cantor_unpair(j))
            assert u == residual_element_linear(reserved, j)
            assert residual_rank_linear(reserved, u) == j
            elements.append(u)
        for i, k in [(i, k) for i in (0, 1, 7) for k in (0, 1, 50, 3000)] + blocks:
            u = layout.block_element(i, k)
            assert cantor_unpair(residual_rank_linear(reserved, u)) == (i, k)
        for w in elements + list(reserved) + probes:
            assert layout.decode_rest(w) == linear.decode_rest(w)
            assert layout.unstar(w) == linear.unstar(w)
        coords = sorted(set(reserved[:3] + reserved[-3:] + (0, 1, 2047, 2048, 5000)))
        for u in coords:
            for v in coords:
                w = layout.encode_rest(u, v)
                assert w == linear.encode_rest(u, v)
                assert w > max(u, v)
                assert layout.decode_rest(w) == (u, v)
                assert layout.star(u, v) == linear.star(u, v)


class TestBasicStar:
    PF = build_star_basic([1, 5, 17])

    def test_fix_is_exactly_s(self):
        assert fix_members(self.PF, range(2000)) == (1, 5, 17)

    def test_bijective_on_window(self):
        assert_injective_on_grid(self.PF.star, 40)
        assert_unstar_inverts(self.PF, 40)

    def test_unstar_total(self):
        for w in range(800):
            decoded = self.PF.unstar(w)
            assert decoded is not None
            assert self.PF.star(*decoded) == w

    def test_empty_members(self):
        pf = build_star_basic([])
        assert fix_members(pf, range(300)) == ()
        assert_unstar_inverts(pf, 20)

    def test_diagonal_off_s_lands_off_diagonal_code(self):
        pf = self.PF
        for u in range(30):
            if u in (1, 5, 17):
                assert pf.star(u, u) == u
            else:
                assert pf.star(u, u) != u


class TestTreeStar:
    T = parse_tree("bin (bin nil nil) nil")
    PF = build_star_tree(T, range(5))

    def test_fix_is_exactly_s(self):
        assert fix_tree_members(self.T, self.PF, range(3000)) == (0, 1, 2, 3, 4)

    def test_gapped_members(self):
        pf = build_star_tree(self.T, [2, 9])
        assert fix_tree_members(self.T, pf, range(3000)) == (2, 9)

    def test_injective_and_invertible_on_window(self):
        assert_injective_on_grid(self.PF.star, 50)
        assert_unstar_inverts(self.PF, 50)

    def test_scaffold_elements_are_not_fixpoints(self):
        layout = self.PF.meta
        scaffold = [layout.block_element(1, k) for k in range(5)]
        fixed = set(fix_tree_members(self.T, self.PF, scaffold))
        assert not fixed

    def test_plain_diagonal_never_fixes(self):
        assert fix_members(self.PF, range(1500)) == ()

    def test_other_control_tree(self):
        t = parse_tree("bin nil (bin nil nil)")
        pf = build_star_tree(t, [0, 7])
        assert fix_tree_members(t, pf, range(2500)) == (0, 7)

    def test_rejects_nil_control(self):
        with pytest.raises(ConstructionError):
            build_star_tree(NIL, [0])

    def test_rejects_empty_members(self):
        with pytest.raises(ConstructionError):
            build_star_tree(self.T, [])

    def test_rejects_oversized_control(self):
        t = NIL
        for _ in range(33):
            t = Bin(t, NIL)
        with pytest.raises(ConstructionError):
            build_star_tree(t, [0])


class TestProjStar:
    PF_PI = build_star_proj([3, 4])
    PF_RHO = build_star_proj([3, 4], which=RHO)

    def test_partners_are_first_free_naturals(self):
        layout = self.PF_PI.meta
        assert layout.partners == (0, 1)
        assert layout.reserved == (0, 1, 3, 4)

    def test_pi_fix_is_exactly_s(self):
        assert fix_proj_members(self.PF_PI, range(2000), which=PI) == (3, 4)
        assert fix_proj_members(self.PF_PI, range(2000), which=RHO) == ()

    def test_rho_fix_is_exactly_s(self):
        assert fix_proj_members(self.PF_RHO, range(2000), which=RHO) == (3, 4)
        assert fix_proj_members(self.PF_RHO, range(2000), which=PI) == ()

    def test_partners_are_urelements(self):
        for p in self.PF_PI.meta.partners:
            assert self.PF_PI.unstar(p) is None

    def test_injective_and_invertible_on_window(self):
        assert_injective_on_grid(self.PF_PI.star, 50)
        assert_unstar_inverts(self.PF_PI, 50)
        assert_unstar_inverts(self.PF_RHO, 50)

    def test_pinned_cells(self):
        assert self.PF_PI.star(3, 0) == 3
        assert self.PF_PI.star(4, 1) == 4
        assert self.PF_RHO.star(0, 3) == 3

    def test_rejects_unknown_projection(self):
        with pytest.raises(ConstructionError):
            build_star_proj([1], which="sigma")


class TestSeqStar:
    S = parse_seq("pi.rho")
    PF = build_star_seq(S, [0, 1, 2])

    def test_fix_is_exactly_s(self):
        assert fix_seq_members(self.S, self.PF, range(1500)) == (0, 1, 2)

    def test_level_elements_are_not_fixpoints(self):
        layout = self.PF.meta
        levels = [layout.block_element(1, k) for k in range(3)]
        assert fix_seq_members(self.S, self.PF, levels) == ()

    def test_partner_elements_are_urelements(self):
        layout = self.PF.meta
        partners = [layout.block_element(2, k) for k in range(3)]
        for p in partners:
            assert self.PF.unstar(p) is None

    def test_injective_and_invertible_on_window(self):
        assert_injective_on_grid(self.PF.star, 50)
        assert_unstar_inverts(self.PF, 50)

    def test_single_step_sequence(self):
        s = parse_seq("rho")
        pf = build_star_seq(s, [5])
        assert fix_seq_members(s, pf, range(1200)) == (5,)

    def test_longer_mixed_sequence(self):
        s = parse_seq("rho.pi.pi")
        pf = build_star_seq(s, [0, 6])
        assert fix_seq_members(s, pf, range(1200)) == (0, 6)
        assert_unstar_inverts(pf, 30)

    def test_rejects_empty_members(self):
        with pytest.raises(ConstructionError):
            build_star_seq(self.S, [])

    def test_rejects_oversized_control(self):
        long_seq = Seq((PI,) * 65)
        with pytest.raises(ConstructionError):
            build_star_seq(long_seq, [0])


CONTROL_TREES = st.builds(
    Bin,
    *[st.recursive(st.just(NIL), lambda kids: st.builds(Bin, kids, kids), max_leaves=4)] * 2,
)
CONTROL_SEQS = st.lists(st.sampled_from([PI, RHO]), min_size=1, max_size=5).map(
    lambda symbols: Seq(tuple(symbols))
)
BUILDERS = {
    "basic": lambda s_members, data: build_star_basic(s_members),
    "tree": lambda s_members, data: build_star_tree(data.draw(CONTROL_TREES), s_members),
    "pi": lambda s_members, data: build_star_proj(s_members, which=PI),
    "rho": lambda s_members, data: build_star_proj(s_members, which=RHO),
    "seq": lambda s_members, data: build_star_seq(data.draw(CONTROL_SEQS), s_members),
}


class TestEveryKind:
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @settings(max_examples=40, deadline=None)
    @given(
        s_members=st.lists(st.integers(0, 39), min_size=1, max_size=12, unique=True),
        data=st.data(),
    )
    def test_injective_pairing_pinning_exactly_s(self, kind, s_members, data):
        pf = BUILDERS[kind](s_members, data)
        assert_injective_on_grid(pf.star, 25)
        assert_unstar_inverts(pf, 25)
        for w in range(1500):
            decoded = pf.unstar(w)
            assert decoded is None or pf.star(*decoded) == w
        region = range(max(s_members) + 1)
        assert fix_members(pf, region, pf.meta.control) == tuple(sorted(s_members))

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "tree", "S": [0, 1, 2, 3, 4], "control": "bin (bin nil nil) (bin nil nil)"},
            {"kind": "seq", "S": [2, 9], "control": "pi.pi"},
            {"kind": "seq", "S": [2, 9], "control": "rho.pi.rho.pi"},
        ],
    )
    def test_power_controls_pin_exactly_s(self, config):
        # The image of a power is a power of its root's image, so a table
        # built for the power itself makes the root's periodic points fixed.
        pf = build_from_config(config)
        assert fix_members(pf, range(1000), pf.meta.control) == tuple(config["S"])


# The power controls next to random ones: their tables pin the shortest root.
CERTIFY_TREES = st.one_of(st.just(parse_tree("bin (bin nil nil) (bin nil nil)")), CONTROL_TREES)
CERTIFY_SEQS = st.one_of(st.just(parse_seq("pi.pi")), CONTROL_SEQS)


@st.composite
def built_pairings(draw, max_members: int, max_value: int):
    """A built pairing of any kind on random members."""
    kind = draw(st.sampled_from(sorted(BUILDERS)))
    members = draw(
        st.lists(st.integers(0, max_value), min_size=1, max_size=max_members, unique=True)
    )
    if kind == "tree":
        return build_star_tree(draw(CERTIFY_TREES), members)
    if kind == "seq":
        return build_star_seq(draw(CERTIFY_SEQS), members)
    return BUILDERS[kind](members, None)


def scan_top(layout) -> int:
    """M + 1: one above every reserved element, table coordinate and table value."""
    cells = [c for cell in layout.table for c in cell]
    return 1 + max([*layout.reserved, *layout.table.values(), *cells], default=0)


def passed(report) -> dict:
    return {r.name: r.passed for r in report.results}


class TestCertificateLemma:
    """The identities that carry the fork-axiom certificate above its scan."""

    @settings(max_examples=30, deadline=None)
    @given(
        pf=built_pairings(max_members=MAX_MEMBERS, max_value=2047),
        pairs=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=20),
        points=st.lists(st.integers(0, 10**6), max_size=20),
        offsets=st.lists(st.integers(0, 2000), max_size=20),
    )
    def test_default_encoder_inverts_both_ways(self, pf, pairs, points, offsets):
        layout = pf.meta
        for u, v in pairs:
            w = layout.encode_rest(u, v)
            assert layout.decode_rest(w) == (u, v)
            assert w > max(u, v)
            block, offset = ChainArithmetic(layout, linear=True).block_of(w)
            assert block == 0 and offset >= 1
        block0 = [layout.block_element(0, k) for k in offsets]
        for w in points + block0:
            pair = layout.decode_rest(w)
            if pair is not None:
                assert layout.encode_rest(*pair) == w
        if layout.kind == "basic":
            for u, v in pairs:
                assert pf.unstar(pf.star(u, v)) == (u, v)
            for w in points + block0:
                assert pf.star(*pf.unstar(w)) == w


def probe_cells(layout):
    """Pairs and points on both sides of the layout's top reserved value.

    Below it the arithmetic bisects; from it up it shifts by |reserved|.
    The points take in every reserved value, every table value and
    coordinate, the first cells of every block and the first urelements.
    """
    top = layout.reserved[-1] + 1
    near = {0, 1, 2, top - 1, top, top + 1, 10**22}
    near |= {r + d for r in layout.reserved[:4] + layout.reserved[-4:] for d in (-1, 0, 1)}
    near.discard(-1)
    pairs = [(u, v) for u in range(10) for v in range(10)]
    pairs += [(u, v) for u in sorted(near) for v in (u, 0, 3)] + list(layout.table)
    points = set(range(300)) | near | {c for cell in layout.table for c in cell}
    points |= set(layout.table.values()) | set(layout.reserved)
    points |= {layout.block_element(i, k) for i in range(len(layout.block_names)) for k in range(8)}
    return pairs, sorted(points)


def assert_matches_chain(pf):
    """star, unstar, encode_rest and decode_rest equal the step-by-step arithmetic."""
    layout = pf.meta
    chains = (ChainArithmetic(layout), ChainArithmetic(layout, linear=True))
    pairs, points = probe_cells(layout)
    for u, v in pairs:
        want = {(c.star(u, v), c.encode_rest(u, v)) for c in chains}
        assert want == {(pf.star(u, v), layout.encode_rest(u, v))}, (u, v)
    for w in points:
        want = {(c.unstar(w), c.decode_rest(w)) for c in chains}
        assert want == {(pf.unstar(w), layout.decode_rest(w))}, w
    return pairs, points


class TestFlattenedArithmetic:
    """Every kind's cells against the step-by-step chain of ``tests/helpers.py``.

    The chain has its own Cantor steps, so it checks ``rank``,
    ``block_element``, ``cantor_unpair`` and ``basic``'s one-body ``star``
    alike.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(sorted(BUILDERS)),
        s_members=st.lists(st.integers(0, 5000), min_size=1, max_size=40, unique=True),
        data=st.data(),
    )
    def test_agrees_with_helper_chain(self, kind, s_members, data):
        pf = BUILDERS[kind](s_members, data)
        assert_matches_chain(pf)
        # The certificate still speaks of what the flattened bodies compute.
        report = cfa_axiom_check(pf, include_urelement_axiom=True)
        assert passed(report) == cfa_scan_oracle(pf, 30, 1500)

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "basic"},
            {"kind": "pi"},
            {"kind": "rho"},
            {"kind": "tree", "control": "bin (bin nil nil) nil"},
            {"kind": "seq", "control": "pi.rho"},
        ],
    )
    def test_probes_reach_both_branches(self, config):
        # 512 members up to 1,022: pinned cells, default cells of small pairs,
        # urelements and the first cells of each block lie below the top
        # reserved value, where the arithmetic bisects.
        pf = build_from_config({**config, "S": list(range(0, 1024, 2))})
        top = pf.meta.reserved[-1] + 1
        pairs, points = assert_matches_chain(pf)
        stars = [pf.star(u, v) for u, v in pairs]
        assert min(stars) < top <= max(stars)
        assert min(points) < top <= max(points)
        urelements = [w for w in points if pf.unstar(w) is None]
        assert (min(urelements) < top) if config["kind"] != "basic" else not urelements
        report = cfa_axiom_check(pf, include_urelement_axiom=True)
        assert passed(report) == cfa_scan_oracle(pf, 30, 1500)


def traced(pf):
    """pf behind counting wrappers that name its star and unstar as ``__wrapped__``,
    as a tracer's do, so the pairing still runs its layout's own methods."""
    calls = {"star": 0, "unstar": 0}

    def star(u, v):
        calls["star"] += 1
        return pf.star(u, v)

    def unstar(w):
        calls["unstar"] += 1
        return pf.unstar(w)

    star.__wrapped__, unstar.__wrapped__ = pf.star, pf.unstar
    return PairingFunction(star, unstar, pf.meta), calls


def untied(pf) -> PairingFunction:
    """pf's functions behind plain wrappers: no longer its meta's own, so scanned in full."""
    return PairingFunction(lambda u, v: pf.star(u, v), lambda w: pf.unstar(w), pf.meta)


def squared(control):
    """The control's image composed with itself: a doubled sequence, or t[nil := t]."""
    if isinstance(control, Seq):
        return Seq(control.symbols * 2)
    return tree_map(control, Bin, control)


@st.composite
def regions(draw, layout):
    """A region of every shape fix_members meets, up to 3,000 elements."""
    shape = draw(st.sampled_from(["range(n)", "range(a, b)", "empty", "list", "above"]))
    a, b = sorted(draw(st.lists(st.integers(0, 3000), min_size=2, max_size=2)))
    if shape == "range(n)":
        return range(b)
    if shape == "range(a, b)":
        return range(a, b)
    if shape == "empty":
        return draw(st.sampled_from([range(0), range(a, a), range(b, a)]))
    if shape == "list":
        return draw(st.permutations(list(layout.s_values) + list(range(a, a + 60, 7))))
    top = max(layout.reserved) + 1
    start = draw(st.sampled_from([top, top + a, 10**12 + a]))
    return range(start, start + b - a)


class TestRangeOfStar:
    """fix_members scans a table layout's star values only, with the same result."""

    @settings(max_examples=40, deadline=None)
    @given(pf=built_pairings(max_members=8, max_value=59), data=st.data())
    def test_star_values_are_the_table_values_and_default_cells(self, pf, data):
        layout = pf.meta
        if layout.kind == "basic":
            assert layout.star_values is None  # star is onto: nothing to skip
            return
        start = data.draw(st.sampled_from([0, 1, 5, 100, 2999, 10**12, 10**30]))
        stop = start + data.draw(st.integers(0, 3000))
        want = [
            w
            for w in range(start, stop)
            if w in layout.table.values() or layout.decode_rest(w) is not None
        ]
        assert layout.star_values(start, stop) == want
        assert layout.star_values(stop, start) == []

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "tree", "control": "bin (bin nil nil) nil"},
            {"kind": "tree", "control": "bin (bin nil nil) (bin nil nil)"},
            {"kind": "pi"},
            {"kind": "rho"},
            {"kind": "seq", "control": "pi.rho"},
            {"kind": "seq", "control": "rho.rho"},
        ],
    )
    def test_star_values_hold_every_star_value(self, config):
        pf = build_from_config({**config, "S": [1, 5, 17, 40]})
        grid = [(u, v) for u in range(60) for v in range(60)] + list(pf.meta.table)
        n = 2000
        values = set(pf.meta.star_values(0, n))
        assert {w for w in (pf.star(u, v) for u, v in grid) if w < n} <= values
        assert len(values) < n // 10

    @settings(max_examples=150, deadline=None)
    @given(pf=built_pairings(max_members=8, max_value=59), data=st.data())
    def test_narrowed_scan_equals_the_plain_scan(self, pf, data):
        own = pf.meta.control
        control = data.draw(
            st.one_of(st.just(own), st.just(squared(own)), CONTROL_TREES, CONTROL_SEQS)
        )
        region = data.draw(regions(pf.meta))
        want = fix_members(untied(pf), region, control)  # image(u) == u at every u
        assert fix_members(pf, region, control) == want
        wrapped, _ = traced(pf)
        assert fix_members(wrapped, region, control) == want

    MEMBERS = list(range(0, 1024, 2))

    @pytest.mark.parametrize(
        "config",
        [{"kind": "tree", "control": "bin (bin nil nil) nil"}, {"kind": "seq", "control": "pi.rho"}],
    )
    def test_scan_evaluates_the_star_values_only(self, config):
        # A traced pairing still runs its layout's methods, so it is narrowed.
        pf = build_from_config({**config, "S": self.MEMBERS})
        wrapped, calls = traced(pf)
        n = 1 << 14
        assert fix_members(wrapped, range(n), pf.meta.control) == tuple(self.MEMBERS)
        values = pf.meta.star_values(0, n)
        # Each scanned element makes two star calls, or one or two unstar calls.
        assert len(values) <= calls["star"] + calls["unstar"] <= 2 * len(values)
        assert len(values) < n // 10

    def test_basic_runs_star_on_its_members_in_the_region_only(self):
        # A tied basic pairing is narrowed to its diagonal runs with offset 0.
        pf = build_star_basic(self.MEMBERS)
        seen = []

        def star(u, v):
            seen.append((u, v))
            return pf.star(u, v)

        star.__wrapped__ = pf.star
        region = range(101, 4096)
        want = tuple(u for u in self.MEMBERS if u in region)
        assert fix_members(untied(pf), region) == want
        assert fix_members(PairingFunction(star, pf.unstar, pf.meta), region) == want
        assert seen == [(u, u) for u in want]

    def test_basic_narrows_bin_nil_nil_only(self):
        # pi's fixpoints over basic include 0, outside S: the runs do not apply.
        pf = build_star_basic([1, 5])
        pi = Seq((PI,))
        assert fix_members(pf, range(100), pi) == fix_members(untied(pf), range(100), pi) == (0, 1, 5)

    def test_a_layout_meta_with_another_star_is_scanned_in_full(self):
        pf = build_star_tree(parse_tree("bin nil nil"), [1, 5])
        layout = pf.meta
        outside = next(u for u in range(100) if u not in layout.star_values(0, 100))
        star = lambda u, v: u if u == v == outside else layout.star(u, v)
        other = PairingFunction(star, layout.unstar, layout)
        assert fix_members(other, range(100)) == tuple(sorted([1, 5, outside]))
        assert fix_members(pf, range(100)) == (1, 5)


class TestDiagonalRuns:
    """BasicLayout.diagonal_runs against star(u, u) element by element."""

    @settings(max_examples=300, deadline=None)
    @given(
        members=st.lists(st.integers(0, 80), max_size=10, unique=True),
        start=st.sampled_from(["0", "below", "top", "above", "10**12"]),
        shift=st.integers(0, 200),
        length=st.integers(-3, 1200),
    )
    @example(members=[], start="0", shift=0, length=100)
    @example(members=[0, 1, 2], start="0", shift=0, length=-1)
    def test_runs_tile_the_range_with_star_on_the_diagonal(self, members, start, shift, length):
        layout = build_star_basic(members).meta
        top = max(members, default=0)  # the top reserved value
        start = {
            "0": 0, "below": top // 2, "top": top, "above": top + 1 + shift, "10**12": 10**12 + shift
        }[start]
        stop = start + length
        # One more run than elements: a run of length 0 fails, it does not loop.
        runs = list(itertools.islice(layout.diagonal_runs(start, stop), max(0, length) + 1))
        if length <= 0:
            assert runs == []
            return
        assert [lo for lo, _, _ in runs] == [start] + [hi for _, hi, _ in runs[:-1]]
        assert runs[-1][1] == stop and all(lo < hi for lo, hi, _ in runs)
        region = range(start, stop)
        expanded = [u + off for lo, hi, off in runs for u in range(lo, hi)]
        assert expanded == [layout.star(u, u) for u in region]
        # The reference steps: residual_rank_linear, unpair_ref, pair_ref and
        # residual_element_linear.
        chain = ChainArithmetic(layout, linear=True)
        assert expanded == [chain.star(u, u) for u in region]
        # Offset 0 exactly on the members, each a run of its own.
        assert [(lo, hi) for lo, hi, off in runs if off == 0] == [
            (u, u + 1) for u in region if u in layout.reserved_set
        ]

    def test_runs_at_the_cap_are_few_and_lazy(self):
        members = list(range(0, 1024, 2))
        layout = build_star_basic(members).meta
        n = SCAN_CAP
        runs = layout.diagonal_runs(0, n)
        assert iter(runs) is runs  # a generator, not a list of n values
        # A run ends at a member or just before one, at a diagonal's end,
        # where the target passes a member, or at n.
        bound = 3 * len(members) + math.isqrt(2 * n) + 2
        assert len(list(itertools.islice(runs, bound + 1))) <= bound
        assert fix_members(build_star_basic(members), range(n)) == tuple(members)


FIVE_KINDS = [
    {"kind": "basic"},
    {"kind": "tree", "control": "bin (bin nil nil) nil"},
    {"kind": "pi"},
    {"kind": "rho"},
    {"kind": "seq", "control": "pi.rho"},
]


class TestNegativeRegion:
    """A negative element in a fix region raises the same error on every kind."""

    @pytest.mark.parametrize("config", FIVE_KINDS)
    @pytest.mark.parametrize("region", [range(-3, 5), range(5, -4, -1), range(-3, 9, 2)])
    def test_a_range_is_refused_before_any_work(self, config, region):
        pf = build_from_config({**config, "S": [1, 2]})
        for control in (Bin(NIL, NIL), pf.meta.control):
            for pairing in (pf, untied(pf)):
                wrapped, calls = traced(pairing)
                with pytest.raises(RelforkError, match="got -3$"):
                    fix_members(wrapped, region, control)
                assert calls == {"star": 0, "unstar": 0}

    @pytest.mark.parametrize("config", FIVE_KINDS)
    def test_a_list_names_its_negative_element(self, config):
        pf = build_from_config({**config, "S": [1, 2]})
        for control in (Bin(NIL, NIL), pf.meta.control):
            with pytest.raises(RelforkError, match="got -3$"):
                fix_members(pf, [4, 2, -3, 1, -5], control)

    @pytest.mark.parametrize("config", FIVE_KINDS)
    def test_an_empty_range_below_zero_is_empty(self, config):
        pf = build_from_config({**config, "S": [1, 2]})
        assert fix_members(pf, range(-3, -5)) == ()


class TestCfaCertificate:
    TREE = build_star_tree(parse_tree("bin (bin nil nil) nil"), [2, 5, 9])

    @settings(max_examples=25, deadline=None)
    @given(pf=built_pairings(max_members=8, max_value=39))
    def test_agrees_with_scan_oracle(self, pf):
        exact = cfa_axiom_check(pf, include_urelement_axiom=True)
        assert exact.scope == Scope("exact over N", None)
        top = scan_top(pf.meta)
        oracle = cfa_scan_oracle(pf, top + 1, top + 1000)
        assert passed(exact) == oracle
        assert oracle["cfau"] == (pf.meta.kind != "basic")

    def mutant(self, change):
        """A fresh tree pairing whose table ``change`` edits before it is built."""
        layout = build_star_tree(parse_tree("bin (bin nil nil) nil"), [2, 5, 9]).meta
        change(layout.table)
        return layout.pairing()

    def duplicated(self):
        """The pairing whose second table cell takes the first cell's value."""
        first, second = list(self.TREE.meta.table)[:2]

        def duplicate(table):
            table[second] = table[first]

        return first, second, self.mutant(duplicate)

    def assert_fails(self, pf, witnesses):
        """Exactly the named axioms fail, with these witnesses, as on the scan oracle."""
        report = cfa_axiom_check(pf, include_urelement_axiom=True)
        assert report.scope == Scope("exact over N", None)
        assert {r.name: r.witness for r in report.results if not r.passed} == witnesses
        top = scan_top(pf.meta)
        oracle = cfa_scan_oracle(pf, top + 1, top + 1000)
        assert {name for name, ok in oracle.items() if not ok} == set(witnesses)

    def assert_refused(self, pf):
        """The tie refuses a pairing that is not its meta's own, here a broken one."""
        with pytest.raises(RelforkError, match="meta's own"):
            cfa_axiom_check(pf, include_urelement_axiom=True)
        top = scan_top(self.TREE.meta)
        assert not all(cfa_scan_oracle(pf, top + 1, top + 1000).values())

    def test_duplicated_table_value_fails(self):
        first, second, pf = self.duplicated()
        # star sends both cells to one value; unstar can return only one.
        assert pf.star(*first) == pf.star(*second)
        collision = (first, second)
        self.assert_fails(pf, {"cfa1": collision, "cfa2": collision})

    def test_table_value_on_a_default_cell_fails(self):
        layout = self.TREE.meta
        cell = next(iter(layout.table))
        unpinned = next((0, v) for v in range(10) if (0, v) not in layout.table)

        def move(table):
            table[cell] = layout.encode_rest(*unpinned)

        collision = (unpinned, cell)
        self.assert_fails(self.mutant(move), {"cfa1": collision, "cfa2": collision})

    def test_star_disagreeing_at_one_point_fails(self):
        pf = self.TREE
        top = scan_top(pf.meta)
        w = max(u for u in range(top) if pf.unstar(u) is not None)
        pair = pf.unstar(w)
        urelement = next(u for u in range(top) if pf.unstar(u) is None)
        self.assert_refused(
            PairingFunction(
                star=lambda u, v: urelement if (u, v) == pair else pf.star(u, v),
                unstar=pf.unstar,
                meta=pf.meta,
            )
        )

    def test_unstar_missing_one_value_fails(self):
        pf = self.TREE
        w = pf.meta.table[next(iter(pf.meta.table))]
        self.assert_refused(
            PairingFunction(
                star=pf.star, unstar=lambda u: None if u == w else pf.unstar(u), meta=pf.meta
            )
        )

    def test_bijective_basic_has_no_urelement(self):
        report = cfa_axiom_check(build_star_basic([1, 2]), include_urelement_axiom=True)
        assert report.scope == Scope("exact over N", None)
        assert passed(report) == {"cfa1": True, "cfa2": True, "cfa3": True, "cfau": False}
        assert report.results[3].detail == "exact over N: star is a bijection"

    def test_first_urelement_can_lie_just_above_m(self):
        # M = 0 here: the first urelement is M + 1, the first residual element.
        pf = build_star_tree(parse_tree("bin nil nil"), [0])
        assert scan_top(pf.meta) == 1
        cfau = cfa_axiom_check(pf, include_urelement_axiom=True).results[3]
        assert cfau.passed and cfau.witness == 1

    @pytest.mark.parametrize("base", ["intact", "duplicated"])
    def test_conjugate_is_transported(self, base):
        pf = self.TREE if base == "intact" else self.duplicated()[2]
        perm = {0: 30, 30: 7, 7: 0, 2: 3, 3: 2, 5: 40, 40: 5}
        move = lambda x: perm.get(x, x)
        own = cfa_axiom_check(pf, include_urelement_axiom=True)
        moved = cfa_axiom_check(conjugate(pf, perm), include_urelement_axiom=True)
        assert moved.scope.label() == "exact over N (conjugate)"
        assert passed(moved) == passed(own)
        for got, want in zip(moved.results, own.results):
            if want.name == "cfau":
                assert got.witness == move(want.witness)
                assert got.detail == f"exact over N: {move(want.witness)} lies outside star's range"
            elif want.witness is not None:
                (a, b), (c, d) = want.witness
                assert got.witness == ((move(a), move(b)), (move(c), move(d)))
                assert got.detail == want.detail
        # The moved verdicts hold of the conjugate itself.
        oracle = cfa_scan_oracle(conjugate(pf, perm), 60, 1000)
        assert passed(moved) == oracle

    def test_pairing_that_is_not_its_layout_is_refused(self):
        moved = conjugate(self.TREE, {2: 30, 30: 2})
        pf = PairingFunction(moved.star, moved.unstar, meta=self.TREE.meta)
        with pytest.raises(RelforkError, match="meta's own"):
            cfa_axiom_check(pf)

    def test_collision_that_star_does_not_make_is_refused(self):
        # The table sends both cells to one value, but pf's star moves the
        # first cell onto an urelement: star stays injective.
        first, _, collided = self.duplicated()
        urelement = next(u for u in range(100) if collided.unstar(u) is None)
        pf = PairingFunction(
            star=lambda u, v: urelement if (u, v) == first else collided.star(u, v),
            unstar=collided.unstar,
            meta=collided.meta,
        )
        with pytest.raises(RelforkError, match="meta's own"):
            cfa_axiom_check(pf)

    def test_wrapped_methods_are_accepted(self):
        # Wrappers that name the layout's methods as __wrapped__, at any depth.
        def traced(fn):
            return functools.wraps(fn)(lambda *args: fn(*args))

        pf = PairingFunction(
            traced(self.TREE.star), traced(traced(self.TREE.unstar)), self.TREE.meta
        )
        report = cfa_axiom_check(pf, include_urelement_axiom=True)
        assert report == cfa_axiom_check(self.TREE, include_urelement_axiom=True)

    @pytest.mark.parametrize("member", [SCAN_CAP, 10**22])
    @pytest.mark.parametrize("kind", ["basic", "tree"])
    def test_members_past_the_scan_cap_are_exact(self, kind, member):
        config = {"kind": kind, "S": [member]}
        if kind == "tree":
            config["control"] = "bin nil nil"
        pf = build_from_config(config)
        report = cfa_axiom_check(pf, include_urelement_axiom=True)
        assert report.scope == Scope("exact over N", None)
        assert passed(report) == cfa_scan_oracle(pf, 40, 2000)


class TestBuildFromConfig:
    def grid(self, pf, n=25):
        return [[pf.star(u, v) for v in range(n)] for u in range(n)]

    def test_matches_direct_builders(self):
        cases = [
            ({"kind": "basic", "S": [1, 2]}, build_star_basic([1, 2])),
            ({"kind": "pi", "S": [3]}, build_star_proj([3], which=PI)),
            ({"kind": "rho", "S": [3]}, build_star_proj([3], which=RHO)),
            (
                {"kind": "tree", "S": [0, 1], "control": "bin nil nil"},
                build_star_tree(parse_tree("bin nil nil"), [0, 1]),
            ),
            (
                {"kind": "seq", "S": [0], "control": "pi.rho"},
                build_star_seq(parse_seq("pi.rho"), [0]),
            ),
        ]
        for config, direct in cases:
            built = build_from_config(config)
            assert self.grid(built) == self.grid(direct)
            assert built.meta.kind == direct.meta.kind

    def test_defaults(self):
        pf = build_from_config({"kind": "basic"})
        assert pf.meta.s_values == ()

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "boolean"},
            {"kind": "basic", "extra": 1},
            {"kind": "basic", "control": "bin nil nil"},
            {"kind": "pi", "control": "bin nil nil"},
            {"kind": "tree", "S": [0]},
            {"kind": "tree", "S": [0], "control": 7},
            {"kind": "seq", "S": [0]},
            {"kind": "basic", "S": [-2]},
            "basic",
        ],
    )
    def test_rejects(self, config):
        with pytest.raises(ConstructionError):
            build_from_config(config)

    def test_control_text_must_parse(self):
        with pytest.raises(Exception):
            build_from_config({"kind": "tree", "S": [0], "control": "oak"})
        with pytest.raises(Exception):
            build_from_config({"kind": "seq", "S": [0], "control": "sigma"})


class TestLayoutReport:
    def test_report_shape(self, monkeypatch):
        monkeypatch.setattr(constructions, "REPORT_GRID", 8)
        pf = build_from_config({"kind": "tree", "S": [0, 1], "control": "bin nil nil"})
        report = layout_report(pf)
        assert report["kind"] == "tree"
        assert report["members"] == [0, 1]
        assert report["control"] == "bin nil nil"
        assert report["fix_candidates"] == [0, 1]
        assert len(report["star_grid"]) == 8
        for u in range(8):
            for v in range(8):
                assert report["star_grid"][u][v] == pf.star(u, v)
        names = [b["name"] for b in report["blocks"]]
        assert names[0] == "rest"
        entries = [(cell["u"], cell["v"]) for cell in report["table"]]
        assert entries == sorted(entries)

    def test_partners_only_for_projection_kinds(self):
        assert "partners" in layout_report(build_star_proj([2]))
        assert "partners" not in layout_report(build_star_basic([2]))

    def test_rejects_layoutless_pairing(self):
        from relfork import PairingFunction

        pf = PairingFunction(star=cantor_pair, unstar=cantor_unpair)
        with pytest.raises(ConstructionError):
            layout_report(pf)

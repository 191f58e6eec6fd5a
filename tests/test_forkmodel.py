"""Lazy relations over pairing functions: combinators, windows, fork axioms."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from relfork import (
    FiniteRelation,
    ForkBackend,
    LazyRelation,
    NilControlError,
    PairingFunction,
    UndecidableCompositionError,
    NIL,
    Bin,
    Nil,
    PI,
    RHO,
    Scope,
    build_star_basic,
    build_from_config,
    build_star_proj,
    cantor_pair,
    cantor_unpair,
    cfa_axiom_check,
    complement_rel,
    compose_rel,
    conjugate,
    converse_rel,
    eval_formula,
    eval_term,
    fix_members,
    fix_proj_members,
    fix_seq_members,
    fix_tree_members,
    fork,
    meet_rel,
    parse_formula,
    parse_seq,
    parse_term,
    pretty,
    projections,
    tree_map,
    underline,
    union_rel,
    window,
)
from relfork import terms
from relfork.errors import WINDOW_CAP, RelforkError
from relfork.forkmodel import EMPTY, IDENTITY, UNIVERSAL

from helpers import (
    compose_pairs,
    converse_pairs,
    fork_pairs,
    random_pairs,
    random_seq,
    random_term,
    random_tree,
    si_member,
    transport,
    window_by_contains,
)

# The basic star is a bijection (no urelements); the projection-controlled
# star leaves its reserved partner elements outside the range of star.
BASIC = build_star_basic([1, 2])
PROJ = build_star_proj([3, 4])
CANTOR = PairingFunction(star=cantor_pair, unstar=cantor_unpair, meta=None)


def first_urelement(pf: PairingFunction, bound: int = 200) -> int:
    return next(u for u in range(bound) if pf.unstar(u) is None)


def rel_window_pairs(rel: LazyRelation, n: int) -> set:
    return set(window(rel, n).pairs())


class TestLazyRelation:
    def test_from_support(self):
        r = LazyRelation.from_support([(0, 1), (0, 2), (3, 0)])
        assert r.contains(0, 1) and r.contains(3, 0)
        assert not r.contains(1, 0)
        assert r.support_hint == frozenset({(0, 1), (0, 2), (3, 0)})
        assert tuple(r.witnesses(0)) == (1, 2)
        assert tuple(r.witnesses(5)) == ()

    @pytest.mark.parametrize(
        "pairs", [[(1.7, True)], [("3", 2)], [(True, 1)], [(1, -1)], [(0, 1), ([1], 2)], [(0, None)]]
    )
    def test_from_support_takes_naturals_only(self, pairs):
        with pytest.raises(RelforkError, match="support coordinates must be naturals"):
            LazyRelation.from_support(pairs)

    @pytest.mark.parametrize("pairs", [[(1, 2, 3)], [5], [(0, 1), (2,)]])
    def test_from_support_takes_pairs_only(self, pairs):
        with pytest.raises(RelforkError, match="a support holds"):
            LazyRelation.from_support(pairs)

    def test_from_predicate(self):
        r = LazyRelation(lambda a, b: a + b == 4)
        assert r.contains(1, 3) and not r.contains(1, 1)
        assert r.support_hint is None and r.witnesses is None

    def test_keyword_and_positional_fields_make_one_immutable_value(self):
        r = LazyRelation(IDENTITY.contains, witnesses=IDENTITY.witnesses)
        same = LazyRelation(IDENTITY.contains, None, IDENTITY.witnesses, None)
        assert r == same and hash(r) == hash(same)
        assert r.recipe is None
        with pytest.raises(AttributeError):
            r.contains = UNIVERSAL.contains

    def test_constants(self):
        assert EMPTY.support_hint == frozenset()
        assert UNIVERSAL.contains(10**9, 0)
        assert IDENTITY.contains(7, 7) and not IDENTITY.contains(7, 8)
        assert tuple(IDENTITY.witnesses(7)) == (7,)
        assert IDENTITY.image(7) == 7 and EMPTY.image is None and UNIVERSAL.image is None

    def test_from_image(self):
        # The graph of u -> 2u + 1, undefined on the multiples of 3.
        r = LazyRelation.from_image(lambda u: None if u % 3 == 0 else 2 * u + 1)
        assert r.contains(1, 3) and not r.contains(1, 4) and not r.contains(3, 7)
        assert tuple(r.witnesses(1)) == (3,) and tuple(r.witnesses(3)) == ()
        assert r.support_hint is None and r.recipe is None
        explicit = LazyRelation.from_image(r.image, contains=UNIVERSAL.contains)
        assert explicit.contains is UNIVERSAL.contains and explicit.image is r.image


class TestCombinators:
    def test_boolean_ops_match_oracles(self):
        rng = random.Random(2)
        for _ in range(60):
            pr, ps = random_pairs(rng, 10), random_pairs(rng, 10)
            r, s = LazyRelation.from_support(pr), LazyRelation.from_support(ps)
            assert rel_window_pairs(union_rel(r, s), 10) == pr | ps
            assert rel_window_pairs(meet_rel(r, s), 10) == pr & ps
            assert rel_window_pairs(converse_rel(r), 10) == converse_pairs(pr)
            comp = complement_rel(r)
            assert {
                (a, b) for a in range(10) for b in range(10) if comp.contains(a, b)
            } == {(a, b) for a in range(10) for b in range(10)} - pr

    def test_meet_keeps_one_sided_witnesses(self):
        r = LazyRelation.from_support([(0, 0), (0, 3), (1, 1)])
        odd = LazyRelation(lambda a, b: b % 2 == 1)
        m = meet_rel(r, odd)
        assert tuple(m.witnesses(0)) == (3,)
        m2 = meet_rel(odd, r)
        assert tuple(m2.witnesses(1)) == (1,)

    def test_compose_support_support(self):
        rng = random.Random(3)
        for _ in range(60):
            pr, ps = random_pairs(rng, 10), random_pairs(rng, 10)
            got = compose_rel(
                LazyRelation.from_support(pr), LazyRelation.from_support(ps)
            )
            assert got.support_hint == frozenset(compose_pairs(pr, ps))

    def test_compose_witness_left(self):
        r = LazyRelation.from_support([(0, 5), (1, 6)])
        s = IDENTITY
        got = compose_rel(r, s)
        assert got.contains(0, 5) and not got.contains(0, 6)
        assert tuple(got.witnesses(1)) == (6,)

    def test_compose_support_right(self):
        r = LazyRelation(lambda a, b: b == a + 1)
        s = LazyRelation.from_support([(3, 9), (5, 2)])
        got = compose_rel(r, s)
        assert got.contains(2, 9) and got.contains(4, 2)
        assert not got.contains(3, 9)
        assert tuple(got.witnesses(2)) == (9,)

    def test_compose_undecidable(self):
        left = LazyRelation(lambda a, b: a < b)
        right = LazyRelation(lambda a, b: a > b)
        with pytest.raises(UndecidableCompositionError) as exc:
            compose_rel(left, right)
        assert "undecidable-composition" in str(exc.value)

    def test_fork_matches_oracle(self):
        rng = random.Random(4)
        star = BASIC.star
        for _ in range(40):
            pr, ps = random_pairs(rng, 8), random_pairs(rng, 8)
            r, s = LazyRelation.from_support(pr), LazyRelation.from_support(ps)
            got = fork(r, s, BASIC)
            expected = fork_pairs(pr, ps, star)
            assert got.support_hint == frozenset(expected)
            for a, b in expected:
                assert got.contains(a, b)
            assert tuple(got.witnesses(20)) == ()

    def test_fork_contains_decides_through_unstar(self):
        r = LazyRelation(lambda a, b: True)
        s = LazyRelation(lambda a, b: True)
        f = fork(r, s, PROJ)
        assert f.contains(0, PROJ.star(0, 1))
        assert not f.contains(0, first_urelement(PROJ))


class TestWindow:
    def test_three_paths_agree(self):
        pairs = {(0, 1), (2, 3), (4, 4), (9, 0)}
        by_support = LazyRelation.from_support(pairs)
        by_witness = LazyRelation(
            lambda a, b: (a, b) in pairs,
            witnesses=lambda a: tuple(b for x, b in sorted(pairs) if x == a),
        )
        by_scan = LazyRelation(lambda a, b: (a, b) in pairs)
        w = window(by_support, 10)
        assert window(by_witness, 10) == w
        assert window(by_scan, 10) == w
        assert set(w.pairs()) == pairs
        # A combinator's supported result offers witnesses and a recipe as
        # well; its window follows the witnesses and matches its contains.
        forked = fork(by_support, by_support, BASIC)
        assert forked.support_hint is not None and forked.witnesses is not None
        assert window(forked, 10) == window_by_contains(forked, 10)

    def test_fork_takes_the_right_witnesses_once_per_row(self):
        # They used to run once per left witness: 509 calls for one 256-row
        # window of (1' + pi) # rho, doubling with each right-nested fork.
        pi, rho = projections(BASIC)
        calls = []
        counted = LazyRelation(rho.contains, witnesses=lambda a: calls.append(a) or rho.witnesses(a))
        left = union_rel(IDENTITY, pi)
        forked = fork(left, counted, BASIC)
        for rel in (forked, fork(left, forked, BASIC)):
            calls.clear()
            w = window(rel, 256)
            assert calls == list(range(256))
            assert w == window_by_contains(rel, 256)

    def test_window_clips(self):
        r = LazyRelation.from_support([(0, 1), (50, 2), (3, 50)])
        assert rel_window_pairs(r, 10) == {(0, 1)}

    def test_image_window_clips(self):
        # Row u holds bit 2u + 1 only while it lies below n; multiples of 3 map nowhere.
        r = LazyRelation.from_image(lambda u: None if u % 3 == 0 else 2 * u + 1)
        assert rel_window_pairs(r, 10) == {(1, 3), (2, 5), (4, 9)}
        for n in (0, 1, 10, 33):
            assert window(r, n) == window_by_contains(r, n)

    def test_image_path_makes_one_call_per_row(self):
        # The 4096 window of pi # rho: per row pi and rho unstar once each and
        # the fork stars once; no operand's witnesses run.
        pf, calls = counted(BASIC)
        listed = []

        def listening(rel):
            listen = lambda a: listed.append(a) or rel.witnesses(a)
            return LazyRelation(rel.contains, None, listen, None, rel.image)

        pi, rho = projections(pf)
        forked = fork(listening(pi), listening(rho), pf)
        n = WINDOW_CAP
        got = window(forked, n)
        assert calls == {"star": n, "unstar": 2 * n}
        assert listed == []
        assert got == FiniteRelation.identity(n)  # basic's star is onto

    def test_window_cap(self):
        with pytest.raises(ValueError):
            window(IDENTITY, WINDOW_CAP + 1)
        assert window(IDENTITY, WINDOW_CAP).count() == WINDOW_CAP

    @pytest.mark.parametrize("size", [2.5, True, "3"])
    def test_window_size_must_be_an_int(self, size):
        # True used to give a FiniteRelation whose size is True.
        with pytest.raises(RelforkError, match=f"window size must be an integer, got {size!r}"):
            window(IDENTITY, size)


# One pairing of every kind.  The two power controls have their tables built
# from the shorter root; the tree and the rho.pi chain pin cells whose
# coordinates lie above small windows (star(2, 0) = 0 and star(6, 3) = 3 on
# the tree, star(9, 6) = 5 on the chain), so the fork recipe's fallback
# columns run as well as its default ones.
RECIPE_PAIRINGS = {
    "basic": {"kind": "basic", "S": [1, 2]},
    "tree": {"kind": "tree", "S": [0, 3], "control": "bin (bin nil nil) nil"},
    "tree-power": {"kind": "tree", "S": [1, 4], "control": "bin (bin nil nil) (bin nil nil)"},
    "pi": {"kind": "pi", "S": [3, 4]},
    "rho": {"kind": "rho", "S": [2, 5]},
    "seq": {"kind": "seq", "S": [0, 5], "control": "rho.pi"},
    "seq-power": {"kind": "seq", "S": [2], "control": "pi.pi"},
}
BUILT = {name: build_from_config(config) for name, config in RECIPE_PAIRINGS.items()}
BUILT["conjugate"] = conjugate(BUILT["tree"], {0: 7, 7: 0, 3: 4, 4: 3})
# The permutation that ``transport`` moves supported windows through.
MOVE = {0: 5, 5: 0, 2: 9, 9: 2}

fork_terms = st.recursive(
    st.sampled_from([terms.Var("x"), terms.Var("y")])
    | st.sampled_from(["zero", "one", "id", "pi", "rho", "urid"]).map(terms.Const),
    lambda sub: st.one_of(
        sub.map(terms.Complement),
        sub.map(terms.Converse),
        st.builds(terms.Union, sub, sub),
        st.builds(terms.Meet, sub, sub),
        st.builds(terms.Compose, sub, sub),
        st.builds(terms.Fork, sub, sub),
    ),
    max_leaves=6,
)


LEVELS = ("support", "image", "witnesses", "none")


def enumerable(t) -> str:
    """"support", "image", "witnesses" or "none" by the documented propagation rules.

    An image comes with witnesses, so it counts as witnesses wherever a
    rule asks for them; only a fork of two images keeps one.  Raises
    UndecidableCompositionError where compose_rel must refuse.
    """
    if isinstance(t, terms.Var):
        return "support"
    if isinstance(t, terms.Const):
        return {"zero": "support", "one": "none"}.get(t.kind, "image")
    if isinstance(t, terms.Complement):
        enumerable(t.arg)
        return "none"
    if isinstance(t, terms.Converse):
        return "support" if enumerable(t.arg) == "support" else "none"
    left, right = enumerable(t.left), enumerable(t.right)
    if isinstance(t, terms.Meet):
        levels = ("witnesses" if level == "image" else level for level in (left, right))
        return min(levels, key=LEVELS.index)
    if left == right == "support":
        return "support"
    if left == right == "image" and isinstance(t, terms.Fork):
        return "image"
    if isinstance(t, (terms.Union, terms.Fork)):
        return "witnesses" if "none" not in (left, right) else "none"
    if left != "none":
        return "witnesses" if right != "none" else "none"
    if right == "support":
        return "witnesses"
    raise UndecidableCompositionError()


def subterms(t):
    yield t
    for name in ("arg", "left", "right"):
        if hasattr(t, name):
            yield from subterms(getattr(t, name))


def support_pairs(t, env, backend) -> set:
    """The support of a term that ``enumerable`` calls "support", from pair sets.

    A meet keeps the pairs of its supported operand that the other
    operand contains, asked through that operand's own relation.
    """
    if isinstance(t, terms.Var):
        return set(env[t.name].support_hint)
    if isinstance(t, terms.Const):  # zero, the only supported constant
        return set()
    if isinstance(t, terms.Converse):
        return converse_pairs(support_pairs(t.arg, env, backend))
    if isinstance(t, terms.Meet):
        kept, other = (t.left, t.right) if enumerable(t.left) == "support" else (t.right, t.left)
        other = eval_term(other, env, backend)
        return {p for p in support_pairs(kept, env, backend) if other.contains(*p)}
    left, right = support_pairs(t.left, env, backend), support_pairs(t.right, env, backend)
    if isinstance(t, terms.Union):
        return left | right
    if isinstance(t, terms.Compose):
        return compose_pairs(left, right)
    return fork_pairs(left, right, backend.pf.star)


def check_subterm_windows(term, env, backend, n: int) -> None:
    """Every subterm's window against n^2 membership tests.

    A subterm has an image exactly when ``enumerable`` says so; then it
    has witnesses too, and its window equals the witness path's window
    of the same relation without the image.  A subterm has a support
    exactly when ``enumerable`` says so; then the support equals
    ``support_pairs``, comes with witnesses, and ``transport`` keeps it.
    """
    fwd = lambda x: MOVE.get(x, x)
    for sub in subterms(term):
        rel = eval_term(sub, env, backend)
        text = pretty(sub)
        got = window(rel, n)
        assert got == window_by_contains(rel, n), text
        level = enumerable(sub)
        assert (rel.image is not None) == (level == "image"), text
        if rel.image is not None:
            assert rel.witnesses is not None, text
            stripped = LazyRelation(rel.contains, witnesses=rel.witnesses)
            assert window(stripped, n) == got, text
        assert (rel.support_hint is not None) == (level == "support"), text
        if rel.support_hint is None:
            continue
        expected = support_pairs(sub, env, backend)
        assert rel.support_hint == frozenset(expected), text
        assert rel.witnesses is not None, text
        moved = transport(rel, MOVE)
        assert moved.support_hint == frozenset((fwd(a), fwd(b)) for a, b in expected), text
        assert window(moved, n) == window_by_contains(moved, n), text


class TestWindowRecipes:
    """Every window path against n^2 membership tests, on every kind and a conjugate."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(sorted(BUILT)),
        fork_terms,
        st.integers(0, 12),
        st.frozensets(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=10),
        st.frozensets(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=10),
    )
    @example("basic", parse_term("~(pi # rho)"), 12, frozenset(), frozenset())
    @example("tree", parse_term("1u;1"), 12, frozenset(), frozenset())
    @example("tree", parse_term("~(pi;1)"), 12, frozenset(), frozenset())
    @example("basic", parse_term("(~(pi # rho))^"), 12, frozenset(), frozenset())
    @example("tree", parse_term("1 # ~x"), 5, frozenset(), frozenset({(0, 1)}))
    @example("seq", parse_term("1 # 1"), 7, frozenset(), frozenset())
    @example("tree", parse_term("1' # 1"), 5, frozenset(), frozenset())
    @example("tree", parse_term("pi;1"), 5, frozenset(), frozenset())
    def test_window_matches_contains_oracle(self, kind, term, n, x, y):
        env = {"x": LazyRelation.from_support(x), "y": LazyRelation.from_support(y)}
        backend = ForkBackend(BUILT[kind])
        try:
            enumerable(term)
        except UndecidableCompositionError:
            with pytest.raises(UndecidableCompositionError):
                eval_term(term, env, backend)
            return
        check_subterm_windows(term, env, backend, n)

    @pytest.mark.parametrize("kind", sorted(BUILT))
    def test_random_terms_over_supported_variables(self, kind):
        rng = random.Random(19)
        backend = ForkBackend(BUILT[kind])
        for _ in range(60):
            term = random_term(rng, rng.randrange(1, 4))
            env = {v: LazyRelation.from_support(random_pairs(rng, 10, 0.2)) for v in "xyz"}
            try:
                enumerable(term)
            except UndecidableCompositionError:
                with pytest.raises(UndecidableCompositionError):
                    eval_term(term, env, backend)
                continue
            check_subterm_windows(term, env, backend, 12)

    @pytest.mark.parametrize(
        "text", ["~(pi # rho)", "1u;1", "~(pi;1)", "(~(pi # rho))^", "~pi # rho", "1 # 1"]
    )
    def test_recipes_avoid_the_quadratic_scan(self, text):
        calls = []

        def unstar(u):
            calls.append(u)
            return BASIC.unstar(u)

        counted = PairingFunction(star=BASIC.star, unstar=unstar)
        rel = eval_term(parse_term(text), {}, ForkBackend(counted))
        n = 64
        expected = window_by_contains(rel, n)
        calls.clear()
        assert window(rel, n) == expected
        assert len(calls) <= 4 * n

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            window(complement_rel(EMPTY), -1)


class TestProjectionRelations:
    def test_projections_agree_with_unstar(self):
        pi_rel, rho_rel = projections(BASIC)
        for u in range(200):
            decoded = BASIC.unstar(u)
            if decoded is None:
                assert tuple(pi_rel.witnesses(u)) == ()
                assert not pi_rel.contains(u, 0)
            else:
                x, y = decoded
                assert pi_rel.contains(u, x) and tuple(pi_rel.witnesses(u)) == (x,)
                assert rho_rel.contains(u, y) and tuple(rho_rel.witnesses(u)) == (y,)

    def test_urelement_relations(self):
        id_u = ForkBackend(PROJ).const("urid")
        urelements = [u for u in range(100) if PROJ.unstar(u) is None]
        paired = [u for u in range(100) if PROJ.unstar(u) is not None]
        assert urelements and paired
        for u in urelements[:5]:
            assert id_u.contains(u, u)
            assert tuple(id_u.witnesses(u)) == (u,)
        for u in paired[:5]:
            assert not id_u.contains(u, u)

    def test_basic_star_is_total(self):
        assert all(BASIC.unstar(u) is not None for u in range(200))

    def test_projections_on_total_pairing(self):
        pi_rel, rho_rel = projections(CANTOR)
        u = cantor_pair(3, 5)
        assert pi_rel.contains(u, 3) and rho_rel.contains(u, 5)


class TestUnderline:
    def test_underline_tree_is_tree_map_image(self):
        t = Bin(Bin(NIL, NIL), NIL)
        rel = underline(t, CANTOR)
        for u in range(50):
            image = tree_map(t, cantor_pair, u)
            assert rel.contains(u, image)
            assert tuple(rel.witnesses(u)) == (image,)
            assert not rel.contains(u, image + 1)

    def test_underline_seq_chases_projections(self):
        s = parse_seq("pi.rho")
        rel = underline(s, CANTOR)
        u = cantor_pair(cantor_pair(9, 4), 7)
        # Head symbol pi keeps the left component, then rho keeps the right.
        assert tuple(rel.witnesses(u)) == (4,)

    def test_underline_seq_stops_on_urelement(self):
        s = parse_seq("pi")
        rel = underline(s, PROJ)
        urelement = first_urelement(PROJ)
        assert tuple(rel.witnesses(urelement)) == ()
        assert not rel.contains(urelement, urelement)


def counted(pf: PairingFunction):
    """pf behind wrappers that count its star and unstar calls, as a tracer's do."""
    calls = {"star": 0, "unstar": 0}

    def star(u, v):
        calls["star"] += 1
        return pf.star(u, v)

    def unstar(w):
        calls["unstar"] += 1
        return pf.unstar(w)

    return PairingFunction(star, unstar, pf.meta), calls


def image_by_steps(control, pf: PairingFunction, u: int):
    """A control's image by its definition: tree_map for a tree, a step-by-step chase."""
    if not isinstance(control, (Nil, Bin)):
        for symbol in control.symbols:
            decoded = pf.unstar(u)
            if decoded is None:
                return None
            u = decoded[0] if symbol == PI else decoded[1]
        return u
    return tree_map(control, pf.star, u)


@st.composite
def controls_and_pairings(draw):
    """A random tree (nil included) or sequence, and a pairing: built of every kind,
    a conjugate of a built one, or the hand-built Cantor pairing."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    control = random_tree(rng, 4) if rng.random() < 0.6 else random_seq(rng, 5)
    kind = draw(st.sampled_from(["basic", "pi", "rho", "tree", "seq", "conjugate", "cantor"]))
    if kind == "cantor":
        return control, CANTOR
    members = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))
    config = {"kind": "tree" if kind == "conjugate" else kind, "S": members}
    if config["kind"] == "tree":
        config["control"] = "bin (bin nil nil) nil"
    if kind == "seq":
        config["control"] = "rho.pi"
    pf = build_from_config(config)
    if kind == "conjugate":
        pf = conjugate(pf, {members[0]: 100, 100: members[0]})
    return control, pf


class TestCompiledImage:
    """The image compiled once per scan against the definition it folds."""

    REGION = list(range(40)) + [1000, 10**6]

    @settings(max_examples=80, deadline=None)
    @given(case=controls_and_pairings())
    def test_equals_the_definition_with_the_same_calls(self, case):
        control, pf = case
        ref, ref_calls = counted(pf)
        want = [image_by_steps(control, ref, u) for u in self.REGION]
        rel = underline(control, pf)
        assert [tuple(rel.witnesses(u)) for u in self.REGION] == [
            () if v is None else (v,) for v in want
        ]
        if control == NIL:
            assert want == self.REGION
            return
        scanned, calls = counted(pf)
        got = fix_members(scanned, self.REGION, control)
        assert got == tuple(u for u, v in zip(self.REGION, want) if v == u)
        assert calls == ref_calls

    def test_nil_is_the_identity(self):
        pf, calls = counted(PROJ)
        rel = underline(NIL, pf)
        for u in range(30):
            assert rel.contains(u, u) and not rel.contains(u, u + 1)
            assert tuple(rel.witnesses(u)) == (u,)
        assert calls == {"star": 0, "unstar": 0}

    def test_compiles_once_per_scan(self, monkeypatch):
        from relfork import forkmodel

        folds = []
        monkeypatch.setattr(
            forkmodel, "tree_map", lambda *args: folds.append(args) or tree_map(*args)
        )
        assert fix_members(CANTOR, range(500), Bin(Bin(NIL, NIL), NIL)) == (0,)
        assert len(folds) == 1


class TestFixMembers:
    def test_plain_fix_of_built_star(self):
        assert fix_members(BASIC, range(500)) == (1, 2)

    def test_plain_fix_of_cantor(self):
        assert fix_members(CANTOR, range(500)) == (0,)

    def test_tree_fix_rejects_nil_control(self):
        with pytest.raises(NilControlError):
            fix_tree_members(NIL, BASIC, range(10))

    def test_proj_fix_on_cantor(self):
        # cantor_pair(u, 0) == u at u in {0, 1}; cantor_pair(x, u) == u only at 0.
        assert fix_proj_members(CANTOR, range(300), which=PI) == (0, 1)
        assert fix_proj_members(CANTOR, range(300), which=RHO) == (0,)

    def test_seq_fix_matches_chase(self):
        s = parse_seq("pi.pi")
        got = fix_seq_members(s, CANTOR, range(300))
        expected = []
        for u in range(300):
            v = u
            ok = True
            for symbol in s.symbols:
                decoded = cantor_unpair(v)
                v = decoded[0] if symbol == PI else decoded[1]
            if v == u:
                expected.append(u)
        assert got == tuple(expected)


class TestSiMember:
    def test_subidentity(self):
        assert si_member(LazyRelation.from_support([(3, 3), (5, 5)]), UNIVERSAL)
        assert not si_member(LazyRelation.from_support([(3, 4)]), UNIVERSAL)

    def test_bound_restricts(self):
        bound = LazyRelation(lambda a, b: a < 4)
        assert si_member(LazyRelation.from_support([(3, 3)]), bound)
        assert not si_member(LazyRelation.from_support([(5, 5)]), bound)

    def test_needs_support(self):
        with pytest.raises(RelforkError):
            si_member(IDENTITY, UNIVERSAL)


class TestConjugation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            conjugate(BASIC, {0: 1})
        with pytest.raises(ValueError):
            transport(EMPTY, {0: 1, 2: 1})

    def test_conjugate_moves_fixpoints(self):
        perm = {1: 7, 7: 1}
        conj = conjugate(BASIC, perm)
        assert set(fix_members(conj, range(500))) == {7, 2}

    def test_conjugate_formula(self):
        perm = {0: 3, 3: 0, 10: 11, 11: 10}
        conj = conjugate(BASIC, perm)
        fwd = lambda x: perm.get(x, x)
        for x in range(12):
            for y in range(12):
                assert conj.star(fwd(x), fwd(y)) == fwd(BASIC.star(x, y))

    def test_transport_window(self):
        perm = {0: 1, 1: 0, 4: 6, 6: 4}
        pairs = {(0, 4), (1, 1), (6, 2)}
        moved = transport(LazyRelation.from_support(pairs), perm)
        fwd = lambda x: perm.get(x, x)
        assert moved.support_hint == frozenset((fwd(a), fwd(b)) for a, b in pairs)
        assert rel_window_pairs(moved, 10) == {(fwd(a), fwd(b)) for a, b in pairs}

    def test_transport_of_predicate(self):
        perm = {2: 9, 9: 2}
        moved = transport(IDENTITY, perm)
        for u in range(12):
            assert moved.contains(u, u)
        assert tuple(moved.witnesses(9)) == (9,)


class TestCfaAxiomCheck:
    def test_passes_on_built_stars(self):
        report = cfa_axiom_check(BASIC)
        assert report.all_passed
        assert [r.name for r in report.results] == ["cfa1", "cfa2", "cfa3"]
        with_urelements = cfa_axiom_check(PROJ, include_urelement_axiom=True)
        assert with_urelements.all_passed
        assert [r.name for r in with_urelements.results] == ["cfa1", "cfa2", "cfa3", "cfau"]

    def test_urelement_axiom_fails_on_bijective_star(self):
        report = cfa_axiom_check(BASIC, include_urelement_axiom=True)
        by_name = {r.name: r for r in report.results}
        assert not by_name["cfau"].passed

    def test_urelement_axiom_fails_on_total_pairing(self):
        # A conjugate of the bijective star is total too: no urelement to move.
        report = cfa_axiom_check(conjugate(BASIC, {1: 5, 5: 1}), include_urelement_axiom=True)
        assert report.scope == Scope("exact over N (conjugate)", None)
        assert [r.passed for r in report.results] == [True, True, True, False]
        assert report.results[3].witness is None

    @pytest.mark.parametrize("pf", [CANTOR, conjugate(CANTOR, {0: 1, 1: 0})])
    def test_hand_built_pairing_is_refused(self, pf):
        with pytest.raises(RelforkError, match="meta's own"):
            cfa_axiom_check(pf)


class TestForkBackend:
    def test_const_dispatch(self):
        backend = ForkBackend(BASIC)
        assert backend.const("zero") is EMPTY
        assert backend.const("one") is UNIVERSAL
        assert backend.const("id") is IDENTITY
        pi_rel = backend.const("pi")
        u = BASIC.star(4, 9)
        assert pi_rel.contains(u, 4)
        assert backend.const("rho").contains(u, 9)
        urelement = first_urelement(PROJ)
        assert ForkBackend(PROJ).const("urid").contains(urelement, urelement)
        with pytest.raises(ValueError):
            backend.const("bottom")

    def test_term_evaluation_through_backend(self):
        backend = ForkBackend(BASIC)
        r = LazyRelation.from_support([(0, 3), (1, 4)])
        s = LazyRelation.from_support([(0, 5), (1, 6)])
        got = eval_term(parse_term("x # y"), {"x": r, "y": s}, backend)
        assert got.support_hint == frozenset(
            {(0, BASIC.star(3, 5)), (1, BASIC.star(4, 6))}
        )

    def test_projection_fork_is_subidentity(self):
        # pi # rho re-pairs the components of a, so it lands on the diagonal
        # exactly where star inverts unstar.
        for pf in (BASIC, PROJ):
            rel = eval_term(parse_term("pi # rho"), {}, ForkBackend(pf))
            got = rel_window_pairs(rel, 60)
            assert got == {(a, a) for a in range(60) if pf.unstar(a) is not None}

    @pytest.mark.parametrize("size", [0, -3])
    def test_window_below_one_refused(self, size):
        # Two empty windows are equal, so "pi = rho" would pass vacuously.
        with pytest.raises(RelforkError, match=f"window must be at least 1, got {size}"):
            ForkBackend(BASIC, window=size)
        assert not eval_formula(parse_formula("pi = rho"), {}, ForkBackend(BASIC, window=1))

    @pytest.mark.parametrize("size", [2.5, True, "3"])
    def test_window_must_be_an_int(self, size):
        # A float used to fail at the first comparison with a bare TypeError,
        # and True was taken as a window of 1.
        with pytest.raises(RelforkError, match=f"window must be an integer, got {size!r}"):
            ForkBackend(BASIC, window=size)

    def test_comparisons_rejected(self):
        backend = ForkBackend(BASIC)
        with pytest.raises(ValueError):
            backend.equal(EMPTY, EMPTY)
        with pytest.raises(ValueError):
            backend.below(EMPTY, EMPTY)

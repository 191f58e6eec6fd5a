"""Acceptance checks, one test per criterion.

Each test is the bounded, machine-checkable form of one headline
property: axiom suites over finite full algebras, pinned fixpoint sets
of the four star constructions, the fixpoint-transfer theorems on scan
windows, isomorphism transport, ideal-element arithmetic, and parser
round-trips.
"""

import itertools
import random
import time

import pytest

from relfork import (
    AXIOM_TEXTS,
    Bin,
    LazyRelation,
    NIL,
    PI,
    RHO,
    PairingFunction,
    Seq,
    build_star_basic,
    build_star_proj,
    build_star_seq,
    build_star_tree,
    cantor_pair,
    cantor_unpair,
    cfa_axiom_check,
    check_formula,
    classify,
    compose_rel,
    conjugate,
    direct_product,
    fix_members,
    fix_proj_members,
    fix_seq_members,
    fix_tree_members,
    fork,
    format_seq,
    format_tree,
    free_variables,
    full_pra,
    ideal_elements,
    ll_rel,
    parse,
    parse_formula,
    parse_seq,
    parse_tree,
    power,
    pretty,
    seq_concat,
    substitute,
    tree_map,
    underline,
    variants,
    window,
)
from relfork.forkmodel import IDENTITY as FM_IDENTITY

from helpers import random_formula, random_term, si_member, transport

BASIC_PF = build_star_basic([1, 2])
TREE_T = parse_tree("bin (bin nil nil) nil")
TREE_PF = build_star_tree(TREE_T, range(5))
PI_PF = build_star_proj([3, 4], which=PI)
RHO_PF = build_star_proj([3, 4], which=RHO)
SEQ_S = parse_seq("pi.rho")
SEQ_PF = build_star_seq(SEQ_S, [0, 1, 2])
CANTOR_PF = PairingFunction(star=cantor_pair, unstar=cantor_unpair)


def all_trees(depth: int):
    if depth == 0:
        return [NIL]
    below = all_trees(depth - 1)
    return [NIL] + [Bin(left, right) for left in below for right in below]


def all_seqs(max_len: int):
    out = []
    for length in range(1, max_len + 1):
        for symbols in itertools.product((PI, RHO), repeat=length):
            out.append(Seq(symbols))
    return out


def test_criterion_01_equational_suite_exhaustive_and_sampled():
    started = time.monotonic()
    for n in (0, 1, 2):
        model = full_pra(n)
        for text in AXIOM_TEXTS["cr_equational"]:
            report = check_formula(text, model, strategy="exhaustive")
            assert report.valid, f"{text} failed on full_pra({n}): {report.counterexample_text()}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"exhaustive equational run took {elapsed:.1f}s"
    model3 = full_pra(3)
    for text in AXIOM_TEXTS["cr_equational"]:
        report = check_formula(text, model3, strategy=("sampled", 100_000), seed=0)
        assert report.valid, f"{text} failed sampled on full_pra(3)"
        assert report.checked == 100_000


def test_criterion_02_tarski_suite_exhaustive():
    assert "x;1 = 1 \\/ 1;~x = 1" in AXIOM_TEXTS["cr_tarski"]
    for n in (0, 1, 2):
        model = full_pra(n)
        for text in AXIOM_TEXTS["cr_tarski"]:
            report = check_formula(text, model, strategy="exhaustive")
            assert report.valid, f"{text} failed on full_pra({n}): {report.counterexample_text()}"


@pytest.mark.parametrize("suite", ["cr_equational", "cr_tarski"])
def test_criteria_01_02_exhaustive_on_full3(suite):
    # Every assignment: 512**3 per 3-variable axiom, 4.0e8 for cr_equational
    # and 8.1e8 for cr_tarski in all.
    model = full_pra(3)
    for text in AXIOM_TEXTS[suite]:
        report = check_formula(text, model, strategy="exhaustive")
        assert report.valid, f"{text} failed on full_pra(3): {report.counterexample_text()}"
        assert report.checked == 512 ** len(free_variables(parse_formula(text)))


def test_criterion_03_basic_star_pins_s_and_is_bijective():
    assert fix_members(BASIC_PF, range(1000)) == (1, 2)
    for u in range(150):
        for v in range(150):
            assert BASIC_PF.unstar(BASIC_PF.star(u, v)) == (u, v)
    # Off-diagonal and shifted-diagonal cells dominate their coordinates,
    # so a grid up to 502 covers every possible preimage of w < 500.
    preimages = {}
    for u in range(502):
        for v in range(502):
            w = BASIC_PF.star(u, v)
            if w < 500:
                preimages.setdefault(w, []).append((u, v))
    assert sorted(preimages) == list(range(500))
    assert all(len(found) == 1 for found in preimages.values())


def test_criterion_04_tree_star_fixpoints_exactly_s():
    s_values = tuple(range(5))
    star = TREE_PF.star
    for member in s_values:
        assert tree_map(TREE_T, star, member) == member
    layout = TREE_PF.meta
    n_families = len(layout.block_names) - 1
    scaffold = [
        layout.block_element(1 + j, k)
        for j in range(n_families)
        for k in range(len(s_values))
    ]
    candidate_region = sorted(set(s_values) | set(scaffold))
    fixed_in_region = fix_tree_members(TREE_T, TREE_PF, candidate_region)
    assert fixed_in_region == s_values
    outside = [u for u in range(5000) if u not in set(candidate_region)]
    assert fix_tree_members(TREE_T, TREE_PF, outside) == ()


def test_criterion_05_projection_stars_pin_s_with_urelements():
    assert fix_proj_members(PI_PF, range(1000), which=PI) == (3, 4)
    assert any(PI_PF.unstar(u) is None for u in range(1000))
    report = cfa_axiom_check(PI_PF, include_urelement_axiom=True)
    assert report.all_passed
    assert fix_proj_members(RHO_PF, range(1000), which=RHO) == (3, 4)
    assert any(RHO_PF.unstar(u) is None for u in range(1000))
    mirror = cfa_axiom_check(RHO_PF, include_urelement_axiom=True)
    assert mirror.all_passed


def test_criterion_06_seq_star_fixpoints_exactly_s():
    rel = underline(SEQ_S, SEQ_PF)
    for member in (0, 1, 2):
        assert rel.contains(member, member)
    layout = SEQ_PF.meta
    n_blocks = len(layout.block_names) - 1
    scaffold = [
        layout.block_element(1 + j, k)
        for j in range(n_blocks)
        for k in range(3)
    ]
    candidate_region = sorted({0, 1, 2} | set(scaffold))
    assert fix_seq_members(SEQ_S, SEQ_PF, candidate_region) == (0, 1, 2)
    assert fix_seq_members(SEQ_S, SEQ_PF, range(2000)) == (0, 1, 2)


def test_criterion_07_cfa_axioms_on_every_built_star():
    stars = {
        "basic": BASIC_PF,
        "tree": TREE_PF,
        "pi": PI_PF,
        "rho": RHO_PF,
        "seq": SEQ_PF,
    }
    for name, pf in stars.items():
        report = cfa_axiom_check(pf)
        failed = [r.name for r in report.results if not r.passed]
        assert not failed, f"{name}: {failed}"


def test_criterion_08_fixpoint_transfer_theorems_on_windows():
    region = range(2000)
    pairings = (TREE_PF, SEQ_PF, CANTOR_PF)

    # Concatenation: shared fixpoints of s and s' fix s ++ s', and the
    # chain of s ++ s' is the composition of the chains.
    seq_pairs = [
        (parse_seq("pi"), parse_seq("rho")),
        (parse_seq("rho"), parse_seq("pi")),
        (parse_seq("pi.rho"), parse_seq("pi")),
        (parse_seq("rho.pi"), parse_seq("pi.rho")),
        (parse_seq("pi.pi"), parse_seq("rho.rho")),
    ]
    for pf in pairings:
        for s, s2 in seq_pairs:
            cat = seq_concat(s, s2)
            fix_s = set(fix_seq_members(s, pf, region))
            fix_s2 = set(fix_seq_members(s2, pf, region))
            fix_cat = set(fix_seq_members(cat, pf, region))
            assert fix_s & fix_s2 <= fix_cat, (format_seq(s), format_seq(s2))
            composed = compose_rel(underline(s, pf), underline(s2, pf))
            assert window(composed, 600) == window(underline(cat, pf), 600)

    # Path compatibility: when s spells a root-to-nil path of t, every
    # t-controlled fixpoint is an s-controlled fixpoint.
    ll_pairs = sorted(
        (
            (s, t)
            for s in all_seqs(3)
            for t in all_trees(3)
            if ll_rel(s, t)
        ),
        key=lambda pair: (format_seq(pair[0]), format_tree(pair[1])),
    )[:12]
    assert len(ll_pairs) >= 10
    for pf in (TREE_PF, CANTOR_PF):
        for s, t in ll_pairs:
            fix_t = set(fix_tree_members(t, pf, region))
            fix_s = set(fix_seq_members(s, pf, region))
            assert fix_t <= fix_s, (format_seq(s), format_tree(t))

    # Variants: shared fixpoints of t and t' fix every tree obtained by
    # substituting t into a variant context of t'.
    small = [
        parse_tree("bin nil nil"),
        parse_tree("bin (bin nil nil) nil"),
        parse_tree("bin nil (bin nil nil)"),
    ]
    for pf in (TREE_PF, CANTOR_PF):
        for t in (parse_tree("bin nil nil"), TREE_T):
            fix_t = set(fix_tree_members(t, pf, region))
            for t_prime in small:
                fix_tp = set(fix_tree_members(t_prime, pf, region))
                shared = fix_t & fix_tp
                for ctx in variants(t_prime):
                    built = substitute(ctx, t)
                    fix_built = set(fix_tree_members(built, pf, region))
                    assert shared <= fix_built, (
                        format_tree(t),
                        format_tree(t_prime),
                    )

    # Fork against star: folding fork over the tree shape starting from
    # the identity gives exactly the functional image of folding star.
    for pf in (BASIC_PF, TREE_PF):
        for t in (parse_tree("bin nil nil"), TREE_T):
            forked = tree_map(t, lambda r, s: fork(r, s, pf), FM_IDENTITY)
            lifted = underline(t, pf)
            assert window(forked, 400) == window(lifted, 400)
            for u in range(400):
                assert lifted.contains(u, tree_map(t, pf.star, u))


def test_criterion_09_isomorphism_transport():
    rng = random.Random(0)
    t = TREE_T
    s = SEQ_S
    for _ in range(20):
        values = rng.sample(range(300), 8)
        images = rng.sample(values, len(values))
        perm = dict(zip(values, images))
        conj_tree = conjugate(TREE_PF, perm)
        conj_seq = conjugate(SEQ_PF, perm)
        moved_tree = transport(underline(t, TREE_PF), perm)
        moved_seq = transport(underline(s, SEQ_PF), perm)
        assert window(moved_tree, 300) == window(underline(t, conj_tree), 300)
        assert window(moved_seq, 300) == window(underline(s, conj_seq), 300)

    bound = LazyRelation(lambda a, b: (a * 7 + b) % 3 != 1)
    for _ in range(50):
        values = rng.sample(range(200), 6)
        images = rng.sample(values, len(values))
        perm = dict(zip(values, images))
        diag = [(x, x) for x in rng.sample(range(200), rng.randrange(1, 5))]
        if rng.random() < 0.5:
            x = rng.randrange(200)
            diag.append((x, x + 1))
        candidate = LazyRelation.from_support(diag)
        before = si_member(candidate, bound)
        after = si_member(transport(candidate, perm), transport(bound, perm))
        assert before == after


def test_criterion_10_ideal_element_counts():
    assert len(ideal_elements(full_pra(2))) == 2
    base = full_pra(1)
    factor = full_pra(2)
    for zeta in (0, 1, 2):
        model = direct_product(power(base, zeta), factor)
        ideals = ideal_elements(model)
        assert len(ideals) == 2 ** (zeta + 1), f"zeta={zeta}"
        if zeta >= 1:
            c = classify(model)
            assert not c.simple and c.label == "not simple"


def test_criterion_11_parser_round_trip():
    rng = random.Random(2024)
    for i in range(1000):
        ast = random_term(rng, depth=4) if i % 2 == 0 else random_formula(rng, depth=3)
        assert parse(pretty(ast)) == ast

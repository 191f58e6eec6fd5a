"""Binary trees and contexts: structure, order, variants, text syntax."""

import random

import pytest
from hypothesis import given, strategies as st

from relfork import (
    Bin,
    HOLE,
    Hole,
    NIL,
    Nil,
    TreeSyntaxError,
    bt_lt,
    format_tree,
    is_tree,
    node_count,
    parse_tree,
    strict_subtrees,
    substitute,
    tree_map,
    variants,
)
from relfork.errors import MAX_NESTING

from helpers import random_context, random_tree

T1 = Bin(NIL, NIL)
T2 = Bin(T1, NIL)
T3 = Bin(T1, Bin(NIL, T1))


def trees(max_leaves: int = 8):
    return st.recursive(
        st.just(NIL), lambda inner: st.builds(Bin, inner, inner), max_leaves=max_leaves
    )


def contexts(max_leaves: int = 8):
    return st.recursive(
        st.one_of(st.just(NIL), st.just(HOLE)),
        lambda inner: st.builds(Bin, inner, inner),
        max_leaves=max_leaves,
    )


class TestStructure:
    def test_singletons_equal(self):
        assert Nil() == NIL and Hole() == HOLE
        assert Bin(NIL, NIL) == T1

    def test_is_tree(self):
        assert is_tree(NIL) and is_tree(T3)
        assert not is_tree(HOLE)
        assert not is_tree(Bin(NIL, HOLE))

    def test_node_count(self):
        assert node_count(NIL) == 1
        assert node_count(T1) == 3
        assert node_count(T2) == 5
        assert node_count(T3) == 9


class TestOrder:
    def test_examples(self):
        assert bt_lt(NIL, T1)
        assert bt_lt(T1, T2)
        assert bt_lt(NIL, T2)
        assert not bt_lt(T2, T2)
        assert not bt_lt(T2, T1)
        assert not bt_lt(NIL, NIL)

    def test_matches_strict_subtrees(self):
        rng = random.Random(11)
        for _ in range(200):
            a = random_tree(rng, 3)
            b = random_tree(rng, 4)
            assert bt_lt(a, b) == (a in strict_subtrees(b))

    def test_strict_subtrees_example(self):
        assert strict_subtrees(T2) == frozenset({NIL, T1})
        assert strict_subtrees(NIL) == frozenset()
        assert strict_subtrees(T3) == frozenset({NIL, T1, Bin(NIL, T1)})


class TestMap:
    def test_leaf_returns_seed(self):
        assert tree_map(NIL, lambda a, b: a + b, 7) == 7

    def test_fold_shape(self):
        f = lambda a, b: (a, b)
        assert tree_map(T2, f, 0) == ((0, 0), 0)
        assert tree_map(T3, f, 9) == ((9, 9), (9, (9, 9)))

    def test_numeric_fold(self):
        add = lambda a, b: a + b + 1
        assert tree_map(T1, add, 1) == 3
        assert tree_map(T2, add, 1) == 5


class TestVariantsAndSubstitution:
    def test_substitute_examples(self):
        assert substitute(HOLE, T1) == T1
        assert substitute(NIL, T1) == NIL
        assert substitute(Bin(HOLE, NIL), T1) == Bin(T1, NIL)
        assert substitute(Bin(HOLE, HOLE), NIL) == T1

    def test_variant_count_is_two_to_the_leaves(self):
        def leaves(t):
            if isinstance(t, Nil):
                return 1
            return leaves(t.left) + leaves(t.right)

        for t in (NIL, T1, T2, T3):
            assert len(variants(t)) == 2 ** leaves(t)

    def test_variants_restore_tree(self):
        for ctx in variants(T2):
            assert substitute(ctx, NIL) == T2

    def test_variants_reject_contexts_and_big_trees(self):
        with pytest.raises(ValueError):
            variants(Bin(HOLE, NIL))
        wide = T1
        for _ in range(4):
            wide = Bin(wide, wide)
        with pytest.raises(ValueError):
            variants(wide)

    @given(contexts())
    def test_substituting_tree_gives_tree(self, ctx):
        assert is_tree(substitute(ctx, T1))


class TestTextSyntax:
    def test_format_examples(self):
        assert format_tree(NIL) == "nil"
        assert format_tree(HOLE) == "_"
        assert format_tree(T2) == "bin (bin nil nil) nil"
        assert format_tree(Bin(NIL, T1)) == "bin nil (bin nil nil)"

    def test_parse_examples(self):
        assert parse_tree("nil") == NIL
        assert parse_tree(" _ ") == HOLE
        assert parse_tree("bin nil nil") == T1
        assert parse_tree("bin (bin nil nil) nil") == T2
        assert parse_tree("(bin nil _)") == Bin(NIL, HOLE)
        assert parse_tree("((nil))") == NIL

    @pytest.mark.parametrize(
        "bad", ["", "bin nil", "nil nil", "(nil", "foo", "bin nil nil)", "bin () nil"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(TreeSyntaxError):
            parse_tree(bad)

    def test_error_carries_position(self):
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree("bin nil oak")
        assert err.value.pos == 8

    @pytest.mark.parametrize(
        "text",
        [lambda n: "bin " * n + "nil " * (n + 1), lambda n: "(" * n + "bin nil nil" + ")" * n],
        ids=["bins", "parens"],
    )
    def test_nesting_bound(self, text):
        t = parse_tree(text(MAX_NESTING))
        assert parse_tree(format_tree(t)) == t
        deeper = text(MAX_NESTING + 1)
        with pytest.raises(TreeSyntaxError, match="nesting deeper than") as err:
            parse_tree(deeper)
        assert 0 < err.value.pos < len(deeper)

    @given(contexts())
    def test_round_trip(self, t):
        assert parse_tree(format_tree(t)) == t

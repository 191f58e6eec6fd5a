"""Projection sequences: the symbol tuple, concatenation, tree paths, text."""

import random

import pytest
from hypothesis import given, strategies as st

from relfork import (
    Bin,
    NIL,
    PI,
    RHO,
    Seq,
    SeqSyntaxError,
    format_seq,
    ll_rel,
    parse_seq,
    seq_concat,
)

from helpers import random_seq, random_tree

S1 = Seq((PI,))
S2 = Seq((PI, RHO))
S3 = Seq((RHO, PI, PI))


def seq_strategy(max_len: int = 6):
    return st.lists(
        st.sampled_from((PI, RHO)), min_size=1, max_size=max_len
    ).map(lambda symbols: Seq(tuple(symbols)))


class TestBasics:
    def test_symbol_validation(self):
        for symbols in [("sigma",), ("x", PI), (PI, None), (), [PI], "pi", None]:
            with pytest.raises(ValueError):
                Seq(symbols)

    def test_long(self):
        assert [len(parse_seq(text).symbols) for text in ("pi", "pi.rho", "rho.pi.pi")] == [
            1, 2, 3
        ]

    def test_symbols_round_trip(self):
        assert S3.symbols == (RHO, PI, PI)
        assert Seq(S3.symbols) == S3 and hash(Seq(S3.symbols)) == hash(S3)

    @given(seq_strategy())
    def test_symbols_inverse(self, s):
        assert parse_seq(repr(s)) == s


class TestIndexing:
    def test_head_first_positions(self):
        assert parse_seq("rho.pi.pi").symbols[0] == RHO
        assert parse_seq("pi.rho").symbols[-1] == RHO

    @given(seq_strategy())
    def test_index_matches_symbols(self, s):
        assert format_seq(s).split(".") == list(s.symbols)


class TestSuffix:
    def test_shorter_suffixes(self):
        assert Seq(S3.symbols[1:]) == parse_seq("pi.pi")
        assert Seq(S2.symbols[1:]) == parse_seq("rho")

    def test_suffix_bounds(self):
        # An empty slice is no sequence.
        for empty in (S3.symbols[3:], S3.symbols[:0]):
            with pytest.raises(ValueError):
                Seq(empty)

    @given(seq_strategy())
    def test_suffix_drops_leading_symbols(self, s):
        symbols = s.symbols
        for i in range(1, len(symbols)):
            assert seq_concat(Seq(symbols[:i]), Seq(symbols[i:])) == s


class TestConcat:
    def test_examples(self):
        assert seq_concat(S1, Seq((RHO,))) == S2
        assert seq_concat(Seq((RHO,)), Seq((PI, PI))) == S3

    @given(seq_strategy(), seq_strategy())
    def test_symbols_concatenate(self, a, b):
        assert seq_concat(a, b).symbols == a.symbols + b.symbols


class TestTreePaths:
    def test_examples(self):
        t = Bin(Bin(NIL, NIL), NIL)
        assert ll_rel(Seq((RHO,)), t)  # right child is nil
        assert not ll_rel(Seq((PI,)), t)  # left child is not nil
        assert ll_rel(Seq((PI, PI)), t)
        assert ll_rel(Seq((PI, RHO)), t)
        assert not ll_rel(Seq((RHO, PI)), t)
        assert not ll_rel(Seq((PI, PI, PI)), t)
        assert not ll_rel(S1, NIL)

    def test_against_path_oracle(self):
        def oracle(symbols, t):
            if not isinstance(t, Bin):
                return False
            child = t.left if symbols[0] == PI else t.right
            if len(symbols) == 1:
                return child == NIL
            return oracle(symbols[1:], child)

        rng = random.Random(5)
        for _ in range(300):
            s = random_seq(rng, 4)
            t = random_tree(rng, 4)
            assert ll_rel(s, t) == oracle(s.symbols, t)


class TestTextSyntax:
    def test_format(self):
        assert format_seq(S1) == "pi"
        assert format_seq(S2) == "pi.rho"
        assert format_seq(S3) == "rho.pi.pi"

    def test_parse(self):
        assert parse_seq("pi") == S1
        assert parse_seq(" pi . rho ") == S2
        assert parse_seq("rho.pi.pi") == S3

    @pytest.mark.parametrize("bad", ["", "pi..rho", "sigma", "pi.", ".pi", "pi rho"])
    def test_parse_rejects(self, bad):
        with pytest.raises(SeqSyntaxError):
            parse_seq(bad)

    @given(seq_strategy())
    def test_round_trip(self, s):
        assert parse_seq(format_seq(s)) == s

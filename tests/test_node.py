"""The node base: value semantics of terms, trees, sequences, reports and pairings."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from relfork import (
    And,
    Bin,
    CheckReport,
    Complement,
    Compose,
    Const,
    Converse,
    Eq,
    Fork,
    HOLE,
    Hole,
    Implies,
    Leq,
    Meet,
    NIL,
    Nil,
    Not,
    Or,
    PI,
    PairingFunction,
    RHO,
    RelforkError,
    Scope,
    Seq,
    Union,
    Var,
    cantor_pair,
    cantor_unpair,
    parse_formula,
    parse_seq,
    parse_tree,
    pretty,
)

X, Y = Var("x"), Var("y")
CANTOR = PairingFunction(cantor_pair, cantor_unpair)


class TestEquality:
    def test_type_strict(self):
        assert Union(X, Y) != Meet(X, Y)
        assert Var("x") != Const("x")
        assert Eq(X, Y) != Leq(X, Y)
        assert NIL != HOLE
        assert Seq((PI,)) != Seq((PI, PI))
        assert Seq((PI, RHO)) != (PI, RHO)
        assert Var("x") != ("x",)

    def test_equal_nodes_hash_equal(self):
        assert Nil() == NIL and hash(Nil()) == hash(NIL)
        assert Hole() == HOLE and hash(Hole()) == hash(HOLE)
        assert Bin(NIL, Bin(NIL, NIL)) == parse_tree("bin nil (bin nil nil)")
        f, g = parse_formula("x;y <= ~z"), Leq(Compose(X, Y), Complement(Var("z")))
        assert f == g and hash(f) == hash(g)
        assert Seq((PI, RHO)) == parse_seq("pi.rho")
        assert len({Union(X, Y), Union(X, Y), Meet(X, Y)}) == 2

    def test_pairing_compares_and_hashes_its_three_fields(self):
        same = PairingFunction(star=cantor_pair, unstar=cantor_unpair, meta=None)
        assert same == CANTOR and hash(same) == hash(CANTOR)
        assert hash(CANTOR) == hash((cantor_pair, cantor_unpair, None))
        others = [
            PairingFunction(cantor_unpair, cantor_unpair),
            PairingFunction(cantor_pair, cantor_pair),
            PairingFunction(cantor_pair, cantor_unpair, "meta"),
        ]
        assert all(other != CANTOR for other in others)
        assert CANTOR != (cantor_pair, cantor_unpair, None)


class TestRepr:
    def test_dataclass_form(self):
        assert repr(Var("x")) == "Var(name='x')"
        assert repr(Const("one")) == "Const(kind='one')"
        assert repr(Union(X, Y)) == "Union(left=Var(name='x'), right=Var(name='y'))"
        assert repr(CANTOR) == (
            f"PairingFunction(star={cantor_pair!r}, unstar={cantor_unpair!r}, meta=None)"
        )

    def test_tree_and_sequence_forms(self):
        assert repr(Bin(NIL, NIL)) == "(bin nil nil)"
        assert repr(Bin(HOLE, NIL)) == "(bin _ nil)"
        assert repr(parse_seq("pi.rho")) == "pi.rho"


class TestImmutability:
    @pytest.mark.parametrize(
        "node, field",
        [
            (X, "name"),
            (Union(X, Y), "left"),
            (Bin(NIL, NIL), "right"),
            (Seq((PI,)), "symbols"),
            (CANTOR, "star"),
        ],
    )
    def test_fields_cannot_change(self, node, field):
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            NIL.extra = 1

    def test_report_is_immutable(self):
        report = CheckReport("x = x", Scope("exhaustive", None), True, 16, None)
        with pytest.raises(AttributeError):
            report.valid = False


class TestConstruction:
    def test_positional_arity(self):
        with pytest.raises(TypeError):
            Var()
        with pytest.raises(TypeError):
            Bin(NIL)
        with pytest.raises(TypeError):
            Nil(NIL)

    def test_pairing_by_position_or_keyword(self):
        assert CANTOR.meta is None
        assert PairingFunction(star=cantor_pair, unstar=cantor_unpair) == CANTOR
        assert PairingFunction(cantor_pair, cantor_unpair, None) == CANTOR
        with pytest.raises(TypeError):
            PairingFunction(cantor_pair)
        # dataclasses.replace finds the fields as a dataclass's are found.
        assert [f.name for f in dataclasses.fields(CANTOR)] == ["star", "unstar", "meta"]
        moved = dataclasses.replace(CANTOR, meta="m")
        assert moved == PairingFunction(cantor_pair, cantor_unpair, "m")

    def test_check_hook_validates(self):
        with pytest.raises(RelforkError):
            Seq(("sigma",))
        with pytest.raises(RelforkError):
            Seq(("sigma", PI))

    def test_pickle_and_copy(self):
        formula = parse_formula("!(x = y) -> x^ # 1 <= 0'")
        for node in (formula, Bin(HOLE, NIL), NIL, parse_seq("rho.pi")):
            assert pickle.loads(pickle.dumps(node)) == node
            assert copy.deepcopy(node) == node


NAMES = st.sampled_from(["x", "y", "z", "w1"])
CONSTS = st.sampled_from(["zero", "one", "id", "pi", "rho", "urid"])
TERMS = st.recursive(
    st.one_of(st.builds(Var, NAMES), st.builds(Const, CONSTS)),
    lambda inner: st.one_of(
        st.builds(Complement, inner),
        st.builds(Converse, inner),
        *(st.builds(shape, inner, inner) for shape in (Union, Meet, Compose, Fork)),
    ),
    max_leaves=8,
)
FORMULAS = st.recursive(
    st.builds(Eq, TERMS, TERMS) | st.builds(Leq, TERMS, TERMS),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        *(st.builds(shape, inner, inner) for shape in (And, Or, Implies)),
    ),
    max_leaves=4,
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(FORMULAS)
    def test_parse_of_pretty_is_the_formula(self, f):
        back = parse_formula(pretty(f))
        assert back == f
        assert hash(back) == hash(f)

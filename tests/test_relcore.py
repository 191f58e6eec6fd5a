"""Finite relations against pair-set oracles; models, products, ideals."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from relfork import (
    AlgebraModel,
    FiniteRelation,
    RelationError,
    classify,
    direct_product,
    full_pra,
    generate_subalgebra,
    ideal_elements,
    load_model,
    model_from_dict,
    model_to_dict,
    power,
    save_model,
)
from relfork import relcore

from helpers import complement_pairs, compose_pairs, converse_pairs, random_pairs


def pair_sets(n: int):
    all_pairs = [(a, b) for a in range(n) for b in range(n)]
    return st.sets(st.sampled_from(all_pairs)) if all_pairs else st.just(set())


class TestFiniteRelation:
    def test_constructors(self):
        r = FiniteRelation.from_pairs(3, [(0, 1), (2, 2)])
        assert r.contains(0, 1) and r.contains(2, 2)
        assert not r.contains(1, 0)
        assert r.count() == 2
        assert sorted(r.pairs()) == [(0, 1), (2, 2)]
        assert FiniteRelation.empty(3).count() == 0
        assert FiniteRelation.identity(3).count() == 3
        assert FiniteRelation.full(3).count() == 9

    def test_out_of_range_pairs(self):
        with pytest.raises(RelationError):
            FiniteRelation.from_pairs(2, [(0, 2)])
        with pytest.raises(RelationError):
            FiniteRelation.from_pairs(2, [(-1, 0)])

    def test_base_mismatch(self):
        with pytest.raises(RelationError):
            FiniteRelation.empty(2).union(FiniteRelation.empty(3))

    def test_equality_and_hash(self):
        a = FiniteRelation.from_pairs(3, [(0, 1)])
        b = FiniteRelation.from_pairs(3, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != FiniteRelation.from_pairs(3, [(1, 0)])

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), pair_sets(n), pair_sets(n))))
    def test_ops_match_pair_oracles(self, case):
        n, pr, ps = case
        r = FiniteRelation.from_pairs(n, pr)
        s = FiniteRelation.from_pairs(n, ps)
        unit = FiniteRelation.full(n)
        assert set(r.union(s).pairs()) == pr | ps
        assert set(r.meet(s).pairs()) == pr & ps
        assert set(r.compose(s).pairs()) == compose_pairs(pr, ps)
        assert set(r.converse().pairs()) == converse_pairs(pr)
        assert set(r.complement_in(unit).pairs()) == complement_pairs(pr, n)
        assert r.is_subset(s) == (pr <= ps)

    def test_compose_example(self):
        r = FiniteRelation.from_pairs(4, [(0, 1), (1, 2)])
        s = FiniteRelation.from_pairs(4, [(1, 3), (2, 0)])
        assert sorted(r.compose(s).pairs()) == [(0, 3), (1, 0)]

    def test_dedekind_inequality_randomised(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 5)
            x, y, z = (random_pairs(rng, n) for _ in range(3))
            lhs = compose_pairs(x, y) & z
            xc, zc = converse_pairs(x), converse_pairs(z)
            rhs = compose_pairs(
                x & compose_pairs(z, converse_pairs(y)), y & compose_pairs(xc, z)
            )
            assert lhs <= rhs


class TestFullPra:
    def test_sizes(self):
        assert len(full_pra(0).carrier) == 1
        assert len(full_pra(1).carrier) == 2
        assert len(full_pra(2).carrier) == 16
        assert len(full_pra(3).carrier) == 512

    def test_cap(self):
        with pytest.raises(RelationError):
            full_pra(5)

    def test_membership(self):
        m = full_pra(2)
        assert FiniteRelation.from_pairs(2, [(0, 1)]) in m
        assert FiniteRelation.from_pairs(3, [(0, 1)]) not in m


class TestModelValidation:
    def test_carrier_must_contain_distinguished(self):
        unit = FiniteRelation.full(1)
        with pytest.raises(RelationError):
            AlgebraModel(1, [unit], unit=unit, identity=FiniteRelation.identity(1))

    def test_carrier_below_unit(self):
        unit = FiniteRelation.identity(2)
        stray = FiniteRelation.from_pairs(2, [(0, 1)])
        with pytest.raises(RelationError):
            AlgebraModel(
                2,
                [FiniteRelation.empty(2), unit, stray],
                unit=unit,
                identity=unit,
            )

    def test_closure_check(self):
        unit = FiniteRelation.full(2)
        identity = FiniteRelation.identity(2)
        with pytest.raises(RelationError):
            AlgebraModel(
                2,
                [FiniteRelation.empty(2), unit, identity],
                unit=unit,
                identity=identity,
            )

    def test_closure_checked_flag(self, monkeypatch):
        assert full_pra(2).closure_checked
        assert generate_subalgebra(2, []).closure_checked
        assert direct_product(full_pra(1), full_pra(1)).closure_checked
        # Above the limit a carrier is taken as given, and the model says so.
        monkeypatch.setattr(relcore, "CLOSURE_CHECK_LIMIT", 2)
        unit, identity = FiniteRelation.full(2), FiniteRelation.identity(2)
        model = AlgebraModel(2, [FiniteRelation.empty(2), unit, identity], unit, identity)
        assert not model.closure_checked


class TestIdealsAndClassification:
    def test_full_pra_ideals(self):
        m = full_pra(2)
        ideals = ideal_elements(m)
        assert len(ideals) == 2
        assert set(ideals) == {m.empty, m.unit}

    def test_classify_full(self):
        assert classify(full_pra(1)).trivial
        assert classify(full_pra(1)).simple
        c = classify(full_pra(2))
        assert c.prime and c.label == "prime"

    def test_product_ideals_multiply(self):
        m = full_pra(2)
        p = direct_product(m, m)
        assert len(ideal_elements(p)) == 4
        assert not classify(p).simple
        assert classify(p).label == "not simple"

    def test_power(self):
        m1 = full_pra(1)
        assert len(power(m1, 0).carrier) == 1
        for exponent in (1, 2, 3):
            model = power(m1, exponent)
            assert len(model.carrier) == 2 ** exponent
            assert len(ideal_elements(model)) == 2 ** exponent


class TestGeneratedSubalgebra:
    def test_identity_generates_four_elements(self):
        m = generate_subalgebra(2, [FiniteRelation.identity(2)])
        assert len(m.carrier) == 4
        assert not m.is_full

    def test_single_pair_generates_full(self):
        m = generate_subalgebra(2, [FiniteRelation.from_pairs(2, [(0, 1)])])
        assert m.is_full
        assert len(m.carrier) == 16

    def test_empty_generators(self):
        m = generate_subalgebra(1, [])
        assert len(m.carrier) == 2

    def test_carrier_cap(self):
        with pytest.raises(RelationError):
            generate_subalgebra(3, [FiniteRelation.from_pairs(3, [(0, 1)])], carrier_cap=8)


class TestSerialization:
    def test_round_trip_dict(self):
        m = generate_subalgebra(2, [FiniteRelation.identity(2)])
        data = model_to_dict(m)
        back = model_from_dict(data)
        assert back.carrier == m.carrier
        assert back.unit == m.unit and back.identity == m.identity

    def test_full_round_trip_file(self, tmp_path):
        m = full_pra(2)
        path = tmp_path / "model.json"
        save_model(m, str(path))
        back = load_model(str(path))
        assert back.is_full and back.carrier == m.carrier

    def test_malformed(self, tmp_path):
        with pytest.raises(RelationError):
            model_from_dict({"carrier": []})
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(RelationError):
            load_model(str(path))

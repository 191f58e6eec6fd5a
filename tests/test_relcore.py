"""Finite relations against pair-set oracles; models, products, ideals."""

import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from relfork import (
    AlgebraModel,
    FiniteRelation,
    RelationError,
    classify,
    direct_product,
    eval_formula,
    full_pra,
    generate_subalgebra,
    ideal_elements,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_formula,
    power,
    save_model,
)
from relfork import relcore
from relfork.node import Node

from helpers import (
    closure_failure_pairwise,
    complement_pairs,
    compose_pairs,
    converse_pairs,
    generate_subalgebra_rounds,
    ideal_elements_by_definition,
    random_pairs,
)


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

    def test_value_contract(self):
        # A Node: frozen fields, a hash over (base_size, rows), copies and
        # pickles that compare equal, and the pair-list repr.
        r = FiniteRelation.from_pairs(2, [(0, 1)])
        assert isinstance(r, Node)
        for field in ("base_size", "rows"):
            with pytest.raises(AttributeError):
                setattr(r, field, None)
        assert hash(r) == hash((2, r.rows))
        assert len({r, FiniteRelation(2, (0b10, 0)), FiniteRelation.empty(2)}) == 2
        assert copy.copy(r) == r == copy.deepcopy(r)
        assert pickle.loads(pickle.dumps(r)) == r
        assert repr(r) == "FiniteRelation(2, [(0, 1)])"

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.005, 0.03, 0.5]))
    def test_converse_sparse_and_dense(self, n, seed, density):
        # Below 1/32 of the cells converse walks the pairs, above it the bit string.
        pr = random_pairs(random.Random(seed), n, density)
        assert set(FiniteRelation.from_pairs(n, pr).converse().pairs()) == converse_pairs(pr)

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

    def test_atoms(self):
        for n in range(4):
            atoms = full_pra(n).atoms
            assert len(atoms) == n * n and all(atom.count() == 1 for atom in atoms)
        product = direct_product(full_pra(2), full_pra(2))
        assert len(product.carrier) == 256 and len(product.atoms) == 8
        assert {atom.count() for atom in product.atoms} == {1}


def relations(n: int):
    return pair_sets(n).map(lambda pairs: FiniteRelation.from_pairs(n, pairs))


PRODUCTS = (
    direct_product(full_pra(1), full_pra(1)),
    direct_product(full_pra(1), full_pra(2)),
    direct_product(full_pra(2), full_pra(1)),
    power(full_pra(1), 3),
    direct_product(generate_subalgebra(2, [FiniteRelation.identity(2)]), full_pra(1)),
)


@st.composite
def partition_algebras(draw, n: int):
    """All unions of a random partition of a unit holding 1', with 1' a union of blocks.

    When ``paired``, the unit is symmetric and (b, a) lies in the block
    paired with that of (a, b), so converse maps blocks to blocks.
    """
    paired = draw(st.booleans())
    blocks = {}
    for a in range(n):
        blocks.setdefault(("diagonal", draw(st.integers(0, n - 1))), []).append((a, a))
    for a, b in sorted(draw(pair_sets(n))):
        if a < b or (a > b and not paired):
            label = draw(st.integers(0, 3))
            blocks.setdefault(label, []).append((a, b))
            if paired:
                blocks.setdefault(label ^ 1, []).append((b, a))
    carrier = [set()]
    for block in blocks.values():
        carrier += [rel | set(block) for rel in carrier]
    unit = FiniteRelation.from_pairs(n, carrier[-1])
    return [FiniteRelation.from_pairs(n, rel) for rel in carrier], unit


@st.composite
def closure_cases(draw, source):
    """(base, carrier, unit, identity, change) over bases 1 to 3.

    The carrier comes from ``source``, with one element that is not 0, 1
    or 1' dropped, one foreign element below the unit added, or both.
    """
    if source == "partition":
        n = draw(st.integers(1, 3))
        carrier, unit = draw(partition_algebras(n))
    else:
        if source == "product":
            model = draw(st.sampled_from(PRODUCTS))
        elif source == "full":
            model = full_pra(draw(st.integers(1, 3)))
        else:
            n = draw(st.integers(1, 3))
            model = generate_subalgebra(n, draw(st.lists(relations(n), max_size=2)))
        n, carrier, unit = model.base_size, model.carrier, model.unit
    identity = FiniteRelation.identity(n)
    carrier = list(carrier)
    change = draw(st.sampled_from(("intact", "drop", "add", "swap")))
    if change in ("drop", "swap"):
        droppable = [rel for rel in carrier if rel not in (unit, identity) and rel.count()]
        if droppable:
            carrier.remove(draw(st.sampled_from(droppable)))
    if change in ("add", "swap"):
        extra = FiniteRelation.from_pairs(n, draw(pair_sets(n))).meet(unit)
        if extra not in carrier:
            carrier.append(extra)
    return n, carrier, unit, identity, change


def closure_failure(n, carrier, unit, identity):
    """The error AlgebraModel raises on the carrier, or None."""
    try:
        AlgebraModel(n, carrier, unit, identity)
    except RelationError as exc:
        return str(exc)
    return None


class TestAtomsAgainstPairwiseOracles:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(("full", "product", "generated")).flatmap(closure_cases))
    def test_closure_verdict_matches(self, case):
        n, carrier, unit, identity, _ = case
        expected = closure_failure_pairwise(carrier, unit)
        failure = closure_failure(n, carrier, unit, identity)
        assert (failure is None) == (expected is None), (expected, failure)

    @settings(max_examples=150, deadline=None)
    @given(closure_cases("partition"))
    def test_closure_verdict_matches_on_partition_algebras(self, case):
        n, carrier, unit, identity, change = case
        expected = closure_failure_pairwise(carrier, unit)
        failure = closure_failure(n, carrier, unit, identity)
        assert (failure is None) == (expected is None), (expected, failure)
        if change == "intact" and expected is not None:
            # An intact carrier is a Boolean algebra, so only ; and ^ can fail.
            assert f"not closed under {expected}" in failure

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(relations(n), max_size=3))),
        st.sampled_from((4, 64, 600, relcore.MAX_CARRIER)),
    )
    # Here compositions alone stop at atoms whose converses are not atoms.
    @example((4, [FiniteRelation.from_pairs(4, [(1, 2), (3, 0)])]), relcore.MAX_CARRIER)
    def test_generated_carrier_matches(self, case, cap):
        n, generators = case
        expected = generate_subalgebra_rounds(n, generators, cap)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(relcore, "MAX_CARRIER", cap)
            if expected is None:
                with pytest.raises(RelationError, match="exceeds cap"):
                    generate_subalgebra(n, generators)
            else:
                model = generate_subalgebra(n, generators)
                assert {rel.rows for rel in model.carrier} == expected


@st.composite
def algebras(draw):
    """A full model, product, power or generated subalgebra, maybe read back
    by ``model_from_dict`` from a shuffled carrier, as model files may hold it."""
    source = draw(st.sampled_from(("full", "product", "power", "generated")))
    if source == "full":
        model = full_pra(draw(st.integers(0, 3)))
    elif source == "product":
        model = draw(st.sampled_from(PRODUCTS))
    elif source == "power":
        model = power(full_pra(draw(st.integers(1, 2))), draw(st.integers(0, 2)))
    else:
        n = draw(st.integers(1, 3))
        model = generate_subalgebra(n, draw(st.lists(relations(n), max_size=2)))
    if draw(st.booleans()):
        data = model_to_dict(model)
        draw(st.randoms(use_true_random=False)).shuffle(data["carrier"])
        model = model_from_dict(data)
    return model


class TestCarrierOrder:
    @settings(max_examples=60, deadline=None)
    @given(algebras())
    def test_index_is_the_atom_mask(self, model):
        # carrier[i] is the union of atoms[j] over the set bits j of i.
        assert len(model.carrier) == 1 << len(model.atoms)
        for i, rel in enumerate(model.carrier):
            union = model.empty
            for j, atom in enumerate(model.atoms):
                if i >> j & 1:
                    union = union.union(atom)
            assert rel == union, i

    @settings(max_examples=60, deadline=None)
    @given(algebras())
    def test_element_and_index_are_inverse_and_follow_rows_order(self, model):
        carrier = model.carrier
        assert list(carrier) == sorted(carrier, key=lambda rel: rel.rows)
        for i, rel in enumerate(carrier):
            assert model.element(i) == rel and model.index(rel) == i, i
            assert rel in model

    @settings(max_examples=60, deadline=None)
    @given(algebras())
    def test_validating_constructor_finds_the_built_atoms(self, model):
        # The carrier as a model file would list it, read back and checked.
        back = AlgebraModel(model.base_size, list(model.carrier), model.unit, model.identity)
        assert back.atoms == model.atoms and back.is_full is model.is_full
        assert back.carrier == model.carrier

    @settings(max_examples=60, deadline=None)
    @given(algebras(), st.data())
    def test_index_refuses_a_partly_covered_atom(self, model, data):
        # An atom, or the unit, less one cell of that atom is below the unit
        # but covers the atom only in part.
        wide = [atom for atom in model.atoms if atom.count() > 1]
        if not wide:
            return
        atom = data.draw(st.sampled_from(wide))
        cell = FiniteRelation.from_pairs(model.base_size, [data.draw(st.sampled_from(atom.pairs()))])
        for whole in (atom, model.unit):
            partial = cell.complement_in(whole)
            assert partial.count() and model.index(partial) is None and partial not in model

    def test_index_refuses_another_base_and_cells_off_the_unit(self):
        model = direct_product(full_pra(1), full_pra(1))
        assert model.index(FiniteRelation.empty(1)) is None
        assert model.index(FiniteRelation.from_pairs(2, [(0, 1)])) is None
        assert model.index(FiniteRelation.from_pairs(2, [(1, 1)])) == 0b01
        assert model.index(model.unit) == 0b11
        # The identity and diversity atoms of base 2, each of two cells.
        model = generate_subalgebra(2, [])
        assert model.index(FiniteRelation.identity(2)) == 0b01
        assert model.index(FiniteRelation.from_pairs(2, [(0, 0)])) is None
        assert model.index(FiniteRelation.from_pairs(2, [(0, 1), (1, 1)])) is None


class TestIdealsAndClassification:
    def test_full_pra_ideals(self):
        m = full_pra(2)
        ideals = ideal_elements(m)
        assert len(ideals) == 2
        assert set(ideals) == {m.empty, m.unit}

    @settings(max_examples=60, deadline=None)
    @given(algebras())
    def test_ideals_are_the_unions_of_minimal_ideals(self, model):
        assert ideal_elements(model) == ideal_elements_by_definition(model)

    def test_classify_reads_no_carrier(self, monkeypatch):
        def unreachable(model):
            raise AssertionError("classify listed the carrier")

        monkeypatch.setattr(AlgebraModel, "carrier", property(unreachable))
        assert classify(full_pra(4)).label == "prime"

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

    def test_display(self):
        assert repr(full_pra(1)) == "AlgebraModel(base=1, carrier=2, full)"
        assert repr(generate_subalgebra(2, [])) == "AlgebraModel(base=2, carrier=4, proper)"
        c = classify(full_pra(0))
        assert c.label == "trivial"
        assert repr(c) == "Classification(ideals=1, carrier=1, label='trivial')"

    def test_power(self):
        m1 = full_pra(1)
        assert len(power(m1, 0).carrier) == 1
        for exponent in (1, 2, 3):
            model = power(m1, exponent)
            assert len(model.carrier) == 2 ** exponent
            assert len(ideal_elements(model)) == 2 ** exponent


EMPTY1, FULL1, FULL2 = FiniteRelation.empty(1), FiniteRelation.full(1), FiniteRelation.full(2)


def unbuilt(call):
    """call() with ``FiniteRelation.from_pairs`` failing the test if it runs."""

    def built(*args):
        raise AssertionError("a relation was built before the refusal")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FiniteRelation, "from_pairs", built)
        return call()


MAX_BASE, MAX_CARRIER = relcore.MAX_BASE, relcore.MAX_CARRIER
# name: (refused call, error type, message); every refusal before any work.
REFUSALS = {
    "from-pairs-negative-base": (
        lambda: FiniteRelation.from_pairs(-1, []),
        RelationError, "base size must be nonnegative, got -1",
    ),
    "model-base-cap": (
        lambda: AlgebraModel(MAX_BASE + 1, [], FULL1, FULL1),
        RelationError, f"base size {MAX_BASE + 1} exceeds cap {MAX_BASE}",
    ),
    "model-carrier-cap": (
        lambda: AlgebraModel(1, [EMPTY1] * (MAX_CARRIER + 1), FULL1, FULL1),
        RelationError, f"carrier size {MAX_CARRIER + 1} exceeds cap {MAX_CARRIER}",
    ),
    "model-file-carrier-cap": (
        lambda: unbuilt(lambda: model_from_dict(
            {"base_size": 1, "carrier": [[]] * (MAX_CARRIER + 1), "unit": [[0, 0]]}
        )),
        RelationError, f"carrier size {MAX_CARRIER + 1} exceeds cap {MAX_CARRIER}",
    ),
    "distinguished-on-another-base": (
        lambda: AlgebraModel(1, [EMPTY1, FULL1], FULL2, FULL1),
        RelationError, "unit has base size 2, expected 1",
    ),
    "full-carrier-size-negative": (
        lambda: full_pra(-1),
        RelationError, "base size must be nonnegative",
    ),
    "product-base-cap": (
        lambda: direct_product(generate_subalgebra(9, []), generate_subalgebra(8, [])),
        RelationError, f"product base size 17 exceeds cap {MAX_BASE}",
    ),
    "product-carrier-cap": (
        lambda: direct_product(full_pra(3), full_pra(3)),
        RelationError, "product carrier exceeds size cap",
    ),
    "power-negative-exponent": (
        lambda: power(full_pra(1), -1),
        RelationError, "exponent must be nonnegative",
    ),
    "generate-base-cap": (
        lambda: generate_subalgebra(MAX_BASE + 1, []),
        RelationError, f"base size {MAX_BASE + 1} exceeds cap {MAX_BASE}",
    ),
    "generator-on-another-base": (
        lambda: generate_subalgebra(2, [FULL1]),
        RelationError, "generator has wrong base size",
    ),
    "eval-binding-on-another-base": (
        lambda: eval_formula(parse_formula("x = x"), {"x": FULL1}, full_pra(2)),
        RelationError, "base-size mismatch: 1 vs 2",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


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

    def test_carrier_cap(self, monkeypatch):
        monkeypatch.setattr(relcore, "MAX_CARRIER", 8)
        with pytest.raises(RelationError):
            generate_subalgebra(3, [FiniteRelation.from_pairs(3, [(0, 1)])])

    def test_cap_checked_before_any_union(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a carrier was built before the cap was checked")

        monkeypatch.setattr(relcore, "AlgebraModel", built)
        monkeypatch.setattr(FiniteRelation, "union", built)
        monkeypatch.setattr(relcore, "MAX_CARRIER", 64)
        generators = [FiniteRelation.from_pairs(4, [(a, a + 1)]) for a in range(3)]
        with pytest.raises(RelationError, match="exceeds cap 64"):
            generate_subalgebra(4, generators)

    def test_full_base_four_from_one_cell_generators(self):
        generators = [FiniteRelation.from_pairs(4, [(a, a + 1)]) for a in range(3)]
        m = generate_subalgebra(4, generators)
        assert m.is_full and len(m.carrier) == 1 << 16 and len(m.atoms) == 16


class TestSerialization:
    def test_round_trip_dict(self):
        m = generate_subalgebra(2, [FiniteRelation.identity(2)])
        data = model_to_dict(m)
        back = model_from_dict(data)
        assert back.carrier == m.carrier
        assert back.unit == m.unit and back.identity == m.identity

    @pytest.mark.parametrize(
        "model, full",
        [
            # All 16 relations on {0, 1}, though not built by full_pra.
            (power(full_pra(2), 1), True),
            (direct_product(full_pra(0), full_pra(2)), True),
            (direct_product(full_pra(1), full_pra(1)), False),
        ],
    )
    def test_fullness_is_derived_from_the_carrier(self, model, full):
        assert model.is_full is full and model_to_dict(model)["full"] is full

    def test_full_flag_on_a_partial_carrier_refused(self):
        unit = [[a, b] for a in range(2) for b in range(2)]
        carrier = [[], [[0, 0], [1, 1]], [[0, 1], [1, 0]], unit]
        data = {"base_size": 2, "full": True, "carrier": carrier, "unit": unit}
        assert not model_from_dict({**data, "full": False}).is_full
        with pytest.raises(RelationError, match="full model must contain every subset"):
            model_from_dict(data)

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

"""Term language: parsing, printing, evaluation, and formula checking."""

import functools
import itertools
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from relfork import (
    AXIOM_TEXTS,
    AlgebraModel,
    And,
    Complement,
    Compose,
    Const,
    Converse,
    Eq,
    EvalError,
    FiniteRelation,
    Fork,
    ForkBackend,
    Implies,
    LazyRelation,
    Leq,
    Meet,
    NoForkStructureError,
    Not,
    Or,
    ParseError,
    RelationError,
    Scope,
    UnboundVariableError,
    UndecidableCompositionError,
    Union,
    Var,
    build_star_basic,
    check_formula,
    check_suite,
    direct_product,
    eval_formula,
    eval_term,
    free_variables,
    full_pra,
    generate_subalgebra,
    parse,
    parse_formula,
    parse_term,
    pretty,
)
from relfork import terms
from relfork.errors import MAX_NESTING

from helpers import (
    check_formula_pairs,
    eval_term_pairs,
    random_formula,
    random_pairs,
    random_term,
    sampled_indices,
)
from test_relcore import algebras


@functools.lru_cache(maxsize=None)
def cyclic_algebra(k):
    """The algebra the k-cycle generates on [0, k): 2**k elements, k atoms of k cells."""
    return generate_subalgebra(k, [FiniteRelation.from_pairs(k, [(i, (i + 1) % k) for i in range(k)])])


# Proper models beside the full ones: a subalgebra of full_pra(3) and a
# product whose unit is not the full square, both of 32 elements, and Z_8's
# group algebra, whose 8 atoms hold 8 cells each.
SUBALGEBRA = generate_subalgebra(3, [FiniteRelation.from_pairs(3, [(0, 0)])])
PRODUCT = direct_product(full_pra(2), full_pra(1))
FINITE_MODELS = {
    **{f"full{n}": full_pra(n) for n in range(4)},
    "subalgebra": SUBALGEBRA,
    "product": PRODUCT,
    "cyclic8": cyclic_algebra(8),
}


def report_tuple(report):
    return report.scope.label(), report.valid, report.checked, report.counterexample


def index_at(column, i):
    """The carrier index a variable's planes give it under assignment i."""
    return sum((plane >> i & 1) << p for p, plane in enumerate(column))


def fits(columns, width):
    """Whether every plane of a batch has no bit past its width."""
    return all(0 <= plane < 1 << width for column in columns for plane in column)


class TestParsing:
    def test_atoms(self):
        assert parse_term("x") == Var("x")
        assert parse_term("0") == Const("zero")
        assert parse_term("1") == Const("one")
        assert parse_term("1'") == Const("id")
        assert parse_term("1u") == Const("urid")
        assert parse_term("pi") == Const("pi")
        assert parse_term("rho") == Const("rho")

    def test_diversity_desugars(self):
        assert parse_term("0'") == Complement(Const("id"))

    def test_relative_sum_desugars(self):
        assert parse_term("rsum(a, b)") == Complement(
            Compose(Complement(Var("a")), Complement(Var("b")))
        )

    def test_precedence(self):
        assert parse_term("x + y & z") == Union(Var("x"), Meet(Var("y"), Var("z")))
        assert parse_term("x & y;z") == Meet(Var("x"), Compose(Var("y"), Var("z")))
        assert parse_term("~x;y") == Compose(Complement(Var("x")), Var("y"))
        assert parse_term("~x^") == Complement(Converse(Var("x")))
        assert parse_term("x;y^") == Compose(Var("x"), Converse(Var("y")))
        assert parse_term("(x;y)^") == Converse(Compose(Var("x"), Var("y")))
        # ; and # share a level and associate left.
        assert parse_term("x # y ; z") == Compose(Fork(Var("x"), Var("y")), Var("z"))
        assert parse_term("x^^") == Converse(Converse(Var("x")))

    def test_formulas(self):
        assert parse_formula("x = y") == Eq(Var("x"), Var("y"))
        assert parse_formula("x <= y") == Leq(Var("x"), Var("y"))
        assert parse_formula("!x = y") == Not(Eq(Var("x"), Var("y")))
        f = parse_formula("x = y /\\ y = z -> x = z")
        assert isinstance(f, Implies) and isinstance(f.left, And)
        g = parse_formula("x = 0 \\/ x = 1")
        assert isinstance(g, Or)
        assert parse_formula("(x = y)") == Eq(Var("x"), Var("y"))

    def test_parse_dispatches_on_token_kind(self):
        assert parse("x + y") == Union(Var("x"), Var("y"))
        assert parse("x <= y") == Leq(Var("x"), Var("y"))

    @pytest.mark.parametrize(
        "text",
        ["", "x +", "(x", "x y", "x = ", "x == y", "rsum(x)", "$", "x ; ; y", "x <= "],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_term("x + $")
        assert exc.value.pos == 4

    @pytest.mark.parametrize("text, pos", [("é²", 0), ("ǆ = 0", 0), ("x² = 0", 1), ("xé", 1)])
    def test_names_are_ascii(self, text, pos):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.pos == pos

    # Edge inputs of the scanner: text -> its tree, or (position, message) of
    # its ParseError.
    SCANNED = {
        "1uv": (2, "trailing input, found 'v'"),
        "01": (1, "trailing input, found '1'"),
        "0'0'": (2, 'trailing input, found "0\'"'),
        "10'": (1, 'trailing input, found "0\'"'),
        "1uu": (2, "trailing input, found 'u'"),
        "1u'": (2, 'unknown token "\'"'),
        "0''": (2, 'unknown token "\'"'),
        "1 u": (2, "trailing input, found 'u'"),
        "1 '": (2, 'unknown token "\'"'),
        "x->y": (1, "'->' takes formulas, found a term"),
        "x<y": (1, "unknown token '<'"),
        "x<": (1, "unknown token '<'"),
        "x =< y": (3, "unknown token '<'"),
        "x <- y": (2, "unknown token '<'"),
        "x - y": (2, "unknown token '-'"),
        "x/y": (1, "unknown token '/'"),
        "x/\\y": (1, "'/\\\\' takes formulas, found a term"),
        "x\\/": (1, "'\\\\/' takes formulas, found a term"),
        "rsum": (4, "expected '(' but input ended"),
        "pi.rho": (2, "unknown token '.'"),
        "é": (0, "unknown token 'é'"),
        "x²": (1, "unknown token '²'"),
        "ǆ": (0, "unknown token 'ǆ'"),
        "rsum(x,y)": Complement(Compose(Complement(Var("x")), Complement(Var("y")))),
        "rsum (x ,y)": Complement(Compose(Complement(Var("x")), Complement(Var("y")))),
        "pix": Var("pix"),
        "rhox": Var("rhox"),
        "x_1+y2": Union(Var("x_1"), Var("y2")),
        "x\xa0=\u2003y": Eq(Var("x"), Var("y")),
        "x\t;\ny": Compose(Var("x"), Var("y")),
        "1": Const("one"),
        "0": Const("zero"),
        "pi": Const("pi"),
        "rho": Const("rho"),
        "1u;1'": Compose(Const("urid"), Const("id")),
        "0';1u": Compose(Complement(Const("id")), Const("urid")),
        "pi#rho": Fork(Const("pi"), Const("rho")),
        "x^^;~~y": Compose(Converse(Converse(Var("x"))), Complement(Complement(Var("y")))),
        "!x=y": Not(Eq(Var("x"), Var("y"))),
        "x<=y->y<=x": Implies(Leq(Var("x"), Var("y")), Leq(Var("y"), Var("x"))),
        "x=y/\\y=z": And(Eq(Var("x"), Var("y")), Eq(Var("y"), Var("z"))),
        "x=y\\/y=z": Or(Eq(Var("x"), Var("y")), Eq(Var("y"), Var("z"))),
    }

    @pytest.mark.parametrize("text, want", SCANNED.items(), ids=list(SCANNED))
    def test_scanner_edges(self, text, want):
        if isinstance(want, tuple):
            pos, message = want
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert (exc.value.pos, str(exc.value)) == (pos, f"{message} (at position {pos})")
        else:
            assert parse(text) == want

    # Formulas nesting n levels: n - 1 levels around, or n links of, a comparison.
    DEEP = {
        "parens": lambda n: "(" * (n - 1) + "x" + ")" * (n - 1) + " = 0",
        "compose": lambda n: ";".join(["x"] * n) + " = 0",
        "complement": lambda n: "~" * (n - 1) + "x = 0",
        "converse": lambda n: "x" + "^" * (n - 1) + " = 0",
        "not": lambda n: "!" * (n - 1) + "x = 0",
        "and": lambda n: " /\\ ".join(["x = 0"] * n),
        "implies": lambda n: " -> ".join(["x = 0"] * n),
    }

    @pytest.mark.parametrize("shape", DEEP)
    def test_nesting_bound(self, shape):
        f = parse_formula(self.DEEP[shape](MAX_NESTING))
        assert parse_formula(pretty(f)) == f
        deeper = self.DEEP[shape](MAX_NESTING + 1)
        with pytest.raises(ParseError, match="nesting deeper than") as exc:
            parse_formula(deeper)
        assert 0 < exc.value.pos < len(deeper)

    def test_free_variables(self):
        f = parse_formula("x;y = y;x -> x + z = 1")
        assert free_variables(f) == ("x", "y", "z")
        assert free_variables(parse_term("1' + 0")) == ()


class TestPretty:
    def test_examples(self):
        assert pretty(parse_term("x + y & z")) == "x + y & z"
        assert pretty(parse_term("(x + y) & z")) == "(x + y) & z"
        assert pretty(parse_term("~(x;y)^")) == "~(x;y)^"
        assert pretty(parse_formula("x = y -> y = x")) == "x = y -> y = x"

    def test_round_trip_random_terms(self):
        rng = random.Random(7)
        for _ in range(500):
            t = random_term(rng, depth=4)
            assert parse_term(pretty(t)) == t

    def test_round_trip_random_formulas(self):
        rng = random.Random(8)
        for _ in range(500):
            f = random_formula(rng, depth=3)
            assert parse_formula(pretty(f)) == f


class TestEvaluation:
    def test_matches_pair_oracle(self):
        model = full_pra(2)
        rng = random.Random(11)
        for _ in range(300):
            t = random_term(rng, depth=3, fork=False)
            env_pairs = {name: random_pairs(rng, 2) for name in ("x", "y", "z")}
            env = {
                name: FiniteRelation.from_pairs(2, ps)
                for name, ps in env_pairs.items()
            }
            got = eval_term(t, env, model)
            assert set(got.pairs()) == eval_term_pairs(t, env_pairs, 2)

    @pytest.mark.parametrize("name", FINITE_MODELS)
    def test_matches_pair_oracle_on_every_model(self, name):
        model = FINITE_MODELS[name]
        unit = set(model.unit.pairs())
        rng = random.Random(name)
        for _ in range(100):
            t = random_term(rng, depth=3, fork=False)
            env = {v: rng.choice(model.carrier) for v in ("x", "y", "z")}
            env_pairs = {v: set(rel.pairs()) for v, rel in env.items()}
            got = eval_term(t, env, model)
            assert set(got.pairs()) == eval_term_pairs(t, env_pairs, model.base_size, unit)

    def test_formula_evaluation(self):
        model = full_pra(2)
        a = FiniteRelation.from_pairs(2, [(0, 1)])
        assert eval_formula(parse_formula("x <= 1"), {"x": a}, model)
        assert not eval_formula(parse_formula("x = 0"), {"x": a}, model)
        assert eval_formula(parse_formula("x = 0 -> x = 1"), {"x": a}, model)

    def test_binding_outside_the_carrier_refused(self):
        # (0, 1) lies in the base of the product but in none of its elements,
        # so x + ~x = 1, true of every element, must not read false.
        model = direct_product(full_pra(1), full_pra(1))
        outside = FiniteRelation.from_pairs(2, [(0, 1)])
        formula = parse_formula("x + ~x = 1")
        with pytest.raises(RelationError, match="binding 'x' is not an element"):
            eval_formula(formula, {"x": outside}, model)
        with pytest.raises(RelationError):
            eval_term(parse_term("x"), {"x": outside}, model)
        assert all(eval_formula(formula, {"x": rel}, model) for rel in model.carrier)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError) as exc:
            eval_term(parse_term("x + y"), {"x": full_pra(1).unit}, full_pra(1))
        assert "y" in str(exc.value)

    def test_no_fork_structure_on_finite_model(self):
        model = full_pra(2)
        with pytest.raises(NoForkStructureError):
            eval_term(parse_term("pi"), {}, model)
        with pytest.raises(NoForkStructureError):
            eval_term(parse_term("x # y"), {"x": model.unit, "y": model.unit}, model)

    @pytest.mark.parametrize("text", ["x = x \\/ pi = pi", "x # pi = 0"])
    def test_fork_constant_refused_before_evaluation(self, text):
        # x is unbound in eval and the left disjunct would decide check, yet
        # the constant is refused first, before any evaluation.
        with pytest.raises(NoForkStructureError):
            eval_formula(parse_formula(text), {}, full_pra(1))
        with pytest.raises(NoForkStructureError):
            check_formula(text, full_pra(1))

    @pytest.mark.parametrize("text", ["1' = 1' \\/ x # y = 0", "!(1' = 1') -> x # y = 0"])
    def test_decided_formula_skips_fork_on_finite_model(self, text):
        assert eval_formula(parse_formula(text), {}, full_pra(1)) is True

    @pytest.mark.parametrize("text", ["1' = 1' \\/ x;y = 0", "!(1' = 1') -> x;y = 0"])
    def test_decided_formula_skips_composition_over_fork_backend(self, text):
        predicate = LazyRelation(contains=lambda a, b: a <= b)
        env = {"x": predicate, "y": predicate}
        backend = ForkBackend(build_star_basic([1, 2]), window=16)
        assert eval_formula(parse_formula(text), env, backend) is True
        with pytest.raises(UndecidableCompositionError):
            eval_formula(parse_formula("x;y = 0"), env, backend)


class TestCheckFormula:
    def test_valid_exhaustive(self):
        report = check_formula("x + y = y + x", full_pra(2))
        assert report.valid
        assert report.checked == 16 * 16
        assert report.counterexample is None
        assert report.scope == Scope("exhaustive", None)

    def test_counterexample_is_first_in_canonical_order(self):
        model = full_pra(1)
        report = check_formula("x = 0", model)
        assert not report.valid
        assert report.checked == 2
        assert report.counterexample == {"x": model.unit}
        assert report.counterexample_text() == {"x": [(0, 0)]}

    def test_leq_agrees_with_union_identity(self):
        model = full_pra(2)
        left = check_formula("x & y <= x", model)
        right = check_formula("(x & y) + x = x", model)
        assert left.valid and right.valid

    def test_sampled_deterministic(self):
        model = full_pra(2)
        a = check_formula("x;(y;z) = (x;y);z", model, strategy=("sampled", 100), seed=5)
        b = check_formula("x;(y;z) = (x;y);z", model, strategy=("sampled", 100), seed=5)
        assert a.valid and b.valid and a.checked == b.checked == 100
        assert a.scope == Scope("sampled", 100) and a.scope.label() == "sampled(100)"

    def test_sampled_finds_failure(self):
        report = check_formula("x = 0", full_pra(1), strategy=("sampled", 50), seed=1)
        assert not report.valid and report.counterexample is not None

    @pytest.mark.parametrize("count", [0, -5])
    def test_sampled_count_below_one_rejected(self, count):
        with pytest.raises(EvalError, match="at least 1"):
            check_formula("x = x", full_pra(1), strategy=("sampled", count))

    @pytest.mark.parametrize("count", [2.7, True, "5", None])
    def test_sampled_count_must_be_an_int(self, count):
        # Formerly int() turned 2.7 into 2 trials, True into 1 and "5" into 5.
        with pytest.raises(EvalError, match="sampled count must be an integer"):
            check_formula("x = x", full_pra(1), strategy=("sampled", count))

    def test_assignment_cap(self):
        assert terms.DEFAULT_ASSIGNMENT_CAP == 512**3

    def test_default_cap_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(terms, "DEFAULT_ASSIGNMENT_CAP", 255)
        with pytest.raises(EvalError, match="16\\*\\*2 exceeds cap 255"):
            check_formula("x + y = y + x", full_pra(2))

    def test_unknown_strategy(self):
        with pytest.raises(EvalError):
            check_formula("x = x", full_pra(1), strategy="guess")


class TestAxiomSuites:
    def test_suite_sizes(self):
        assert len(AXIOM_TEXTS["cr_tarski"]) == 16
        assert len(AXIOM_TEXTS["cr_equational"]) == 7
        assert len(AXIOM_TEXTS["cfa"]) == 10
        assert len(AXIOM_TEXTS["cfau"]) == 11

    def test_suites_parse(self):
        for texts in AXIOM_TEXTS.values():
            formulas = [parse_formula(text) for text in texts]
            assert [parse_formula(pretty(f)) for f in formulas] == formulas

    def test_tarski_suite_holds_on_small_full_models(self):
        for n in (0, 1, 2):
            model = full_pra(n)
            for formula in AXIOM_TEXTS["cr_tarski"]:
                assert check_formula(formula, model).valid

    def test_fork_axioms_rejected_without_fork_structure(self):
        with pytest.raises(NoForkStructureError):
            check_formula(AXIOM_TEXTS["cfa"][-1], full_pra(1))


class TestBitslicedChecker:
    """The batched checker against the one-assignment-at-a-time pair-set reference."""

    @staticmethod
    def compare(model, rng, formulas, exhaustive_limit):
        for _ in range(formulas):
            f = random_formula(rng, rng.randrange(3), fork=False)
            nvars = len(free_variables(f))
            strategies = [("sampled", rng.randrange(1, 300))]
            if len(model.carrier) ** nvars <= exhaustive_limit:
                strategies.append("exhaustive")
            for strategy in strategies:
                seed = rng.randrange(1000)
                got = check_formula(f, model, strategy=strategy, seed=seed)
                want = check_formula_pairs(f, model, strategy=strategy, seed=seed)
                assert report_tuple(got) == want, (pretty(f), strategy, seed)

    @pytest.mark.parametrize("name", FINITE_MODELS)
    def test_matches_reference(self, name):
        self.compare(FINITE_MODELS[name], random.Random(name), 40, 4096)

    def test_matches_reference_on_one_variable_full3(self):
        model, rng = full_pra(3), random.Random(3)
        for _ in range(20):
            f = random_formula(rng, rng.randrange(3), names=("x",), fork=False)
            assert report_tuple(check_formula(f, model)) == check_formula_pairs(f, model)

    @pytest.mark.parametrize("slice_bits", [1, 7, 40, 100])
    def test_narrow_batches_match_reference(self, monkeypatch, slice_bits):
        # Narrow widths split the carrier, hold variables constant per batch
        # and draw samples over several batches: of one 32-bit word each, and
        # of 32 and 96 trials on full_pra(1), whose caps are 40 and 100.
        monkeypatch.setattr(terms, "SLICE_BITS", slice_bits)
        rng = random.Random(slice_bits)
        for model in (full_pra(1), full_pra(2), PRODUCT):
            self.compare(model, rng, 12, 4096)

    def test_first_failure_late_in_a_wide_batch(self):
        # The only failing assignment of x, y over full_pra(2) is the last one.
        model = full_pra(2)
        report = check_formula("x = 1 /\\ y = 1 -> x = 0", model)
        assert report_tuple(report) == check_formula_pairs(
            parse_formula("x = 1 /\\ y = 1 -> x = 0"), model
        )
        assert report.checked == 256


class TestCheckSuite:
    """One pass over a list of formulas against each formula checked alone."""

    @staticmethod
    def compare(model, rng, lists, exhaustive_limit):
        """Random lists of mixed-arity formulas; returns the (arity, valid) seen."""
        seen = set()
        size = len(model.carrier)
        for _ in range(lists):
            formulas = [
                random_formula(rng, rng.randrange(3), names=("w", "x", "y", "z"), fork=False)
                for _ in range(rng.randrange(1, 7))
            ]
            strategies = [("sampled", rng.randrange(1, 300))]
            small = [f for f in formulas if size ** len(free_variables(f)) <= exhaustive_limit]
            for strategy, fs in [(strategies[0], formulas), ("exhaustive", small)]:
                seed = rng.randrange(1000)
                got = check_suite(fs, model, strategy=strategy, seed=seed)
                want = [check_formula_pairs(f, model, strategy=strategy, seed=seed) for f in fs]
                assert list(map(report_tuple, got)) == want, (
                    [pretty(f) for f in fs], strategy, seed
                )
                seen |= {(len(free_variables(f)), r.valid) for f, r in zip(fs, got)}
        return seen

    @pytest.mark.parametrize("name", FINITE_MODELS)
    def test_matches_reference(self, name):
        seen = self.compare(FINITE_MODELS[name], random.Random(f"suite/{name}"), 15, 4096)
        if len(FINITE_MODELS[name].carrier) > 2:
            # Each run saw formulas of several arities that passed and failed.
            assert {valid for _, valid in seen} == {True, False}
            assert len({arity for arity, _ in seen}) >= 3

    @pytest.mark.parametrize("slice_bits", [1, 7, 40, 100])
    def test_narrow_batches_match_reference(self, monkeypatch, slice_bits):
        monkeypatch.setattr(terms, "SLICE_BITS", slice_bits)
        rng = random.Random(f"suite/{slice_bits}")
        for model in (full_pra(1), full_pra(2), PRODUCT):
            self.compare(model, rng, 5, 4096)

    def test_check_formula_is_a_suite_of_one(self):
        model = full_pra(2)
        for text in ("x = 0", "x;(y;z) = (x;y);z", "~1 = 0"):
            for strategy in ("exhaustive", ("sampled", 40)):
                alone = check_formula(text, model, strategy=strategy, seed=3)
                assert alone == check_suite([text], model, strategy=strategy, seed=3)[0]
        assert check_suite([], model) == []

    @pytest.fixture
    def draws(self, monkeypatch):
        """The bits of each ``getrandbits`` call, one list per generator in
        the order they are made: a group's own, then its streams."""
        generators = []

        class Counting(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                self.bits = []
                generators.append(self.bits)

            def getrandbits(self, k):
                self.bits.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(terms, "random", types.SimpleNamespace(Random=Counting))
        return generators

    def test_each_arity_draws_one_word_per_variable_per_trial(self, draws):
        # cr_tarski has arities 0 to 3 over 16 formulas.  Over the 4 atoms of
        # full_pra(2), a k-variable group's generator seeds 4k streams with 64
        # bits each, and each stream draws one bit per trial: 500 in one batch.
        formulas = [parse_formula(text) for text in AXIOM_TEXTS["cr_tarski"]]
        assert sorted({len(free_variables(f)) for f in formulas}) == [0, 1, 2, 3]
        reports = check_suite(formulas, full_pra(2), strategy=("sampled", 500), seed=9)
        assert all(r.valid and r.checked == 500 for r in reports)
        seeders = [(64,) * 4 * k for k in range(4)]
        assert sorted(map(tuple, draws)) == sorted(seeders + [(500,)] * 24)

    def test_failed_formula_retires_and_stops_its_draws(self, draws, monkeypatch):
        # Over 16 elements, x = 0 and y = 1 each fail within the first batch
        # of 32 trials; y = y never fails, so its streams draw all 800.
        monkeypatch.setattr(terms, "SLICE_BITS", 4 * 32)  # width_cap 32 over 4 cells
        model = full_pra(2)
        failing = check_suite(["x = 0", "y = 1"], model, strategy=("sampled", 800), seed=1)
        assert [r.valid for r in failing] == [False, False]
        assert draws == [[64] * 4] + [[32]] * 4
        draws.clear()
        mixed = check_suite(["x = 0", "y = y"], model, strategy=("sampled", 800), seed=1)
        assert mixed[0] == failing[0] and mixed[1].valid
        assert draws == [[64] * 4] + [[32] * 25] * 4

    def test_budget_refuses_the_whole_list_before_any_work(self, monkeypatch):
        monkeypatch.setattr(terms, "DEFAULT_ASSIGNMENT_CAP", 16**2)

        def unreachable(*args):
            raise AssertionError("a formula was compiled before the budget")

        monkeypatch.setattr(terms, "compile_formula", unreachable)
        with pytest.raises(EvalError, match="16\\*\\*3 exceeds cap 256"):
            check_suite(["x = x", "x;(y;z) = (x;y);z"], full_pra(2))

    def test_sampled_count_above_cap_rejected(self, monkeypatch):
        cap = terms.DEFAULT_ASSIGNMENT_CAP
        with pytest.raises(EvalError, match=f"sampled count {cap + 1} exceeds cap {cap}"):
            check_suite(["x = x"], full_pra(1), strategy=("sampled", cap + 1))
        monkeypatch.setattr(terms, "DEFAULT_ASSIGNMENT_CAP", 40)
        assert check_suite(["x = x"], full_pra(1), strategy=("sampled", 40))[0].valid
        with pytest.raises(EvalError, match="sampled count 41 exceeds cap 40"):
            check_formula("x = x", full_pra(1), strategy=("sampled", 41))

    def test_each_draw_is_at_most_one_batch_of_words(self, draws, monkeypatch):
        # A width_cap of 170 is 5 words of 32 trials: 300 trials are a batch
        # of 160 and one of 140, and each stream draws each batch's bits.
        monkeypatch.setattr(terms, "SLICE_BITS", 4 * 170)
        formulas = ["~1 = 0", "x^^ = x", "(x;y)^ = y^;x^", "x;(y;z) = (x;y);z", "x = 0"]
        reports = check_suite(formulas, full_pra(2), strategy=("sampled", 300), seed=5)
        assert [r.valid for r in reports] == [True] * 4 + [False]
        assert all(r.checked == 300 for r in reports[:4])
        seeders = [(64,) * 4 * k for k in range(4)]
        assert sorted(map(tuple, draws)) == sorted(seeders + [(160, 140)] * 24)

    def test_sampled_check_on_one_element_ends(self, draws):
        # m = 0: every index is 0, so no group seeds a stream or draws a bit.
        model = full_pra(0)
        assert len(model.carrier) == 1
        reports = check_suite(["x = y", "x;1 = x"], model, strategy=("sampled", 5000), seed=2)
        assert all(r.valid and r.checked == 5000 for r in reports)
        assert draws == [[], []]

    @pytest.mark.parametrize("seed", [None, True, 3.0, "3"])
    def test_seed_must_be_an_int(self, monkeypatch, seed):
        # None would seed from the OS, and True would pass for 1.
        def unreachable(*args):
            raise AssertionError("a formula was compiled before the seed was checked")

        monkeypatch.setattr(terms, "compile_formula", unreachable)
        model = direct_product(full_pra(2), full_pra(1))
        for strategy in (("sampled", 1000), "exhaustive"):
            with pytest.raises(EvalError) as refused:
                check_suite(["x = x"], model, strategy=strategy, seed=seed)
            assert str(refused.value) == f"seed must be an integer, got {seed!r}"
            with pytest.raises(EvalError, match="^seed must be an integer"):
                check_formula("x = x", model, strategy=strategy, seed=seed)

    @pytest.fixture
    def unread_carrier(self, monkeypatch):
        def read(model):
            raise AssertionError("the carrier was read")

        monkeypatch.setattr(AlgebraModel, "carrier", property(read))

    @pytest.mark.parametrize("suite", ["cr_equational", "cr_tarski"])
    def test_sampled_check_reads_no_carrier(self, unread_carrier, suite):
        reports = check_suite(AXIOM_TEXTS[suite], full_pra(4), strategy=("sampled", 300), seed=5)
        assert all(r.valid and r.checked == 300 for r in reports)

    def test_sampled_counterexample_is_built_from_its_atoms(self, unread_carrier):
        # cr_tarski fails on the 1x1 product; the counterexample is element(i).
        model = direct_product(full_pra(1), full_pra(1))
        reports = check_suite(AXIOM_TEXTS["cr_tarski"], model, strategy=("sampled", 3000), seed=4)
        failed = [r for r in reports if not r.valid]
        assert len(failed) == 1 and failed[0].counterexample_text() == {"x": [(1, 1)]}

    def test_exhaustive_counterexample_in_the_last_batch(self, unread_carrier):
        # At the shipped SLICE_BITS, full:3's 512**3 assignments run in 512
        # batches of 2**18.  The first failure is x = y = 1, z = element(1),
        # number 511 * 2**18 + 511 * 2**9 + 1: in the last batch.
        model = full_pra(3)
        assert terms._Sliced(model).width_cap.bit_length() - 1 == 18
        report = check_formula("x = 1 /\\ y = 1 -> z = 0", model)
        assert not report.valid
        assert report.checked == 511 * 2**18 + 511 * 2**9 + 2 == 134_217_218
        assert report.counterexample == {"x": model.unit, "y": model.unit, "z": model.element(1)}
        assert report.counterexample_text()["z"] == [(2, 0)]


class TestSampleStream:
    """A batch's trials are those of ``helpers.sampled_indices``, whose
    streams draw all their bits at once, whatever the batch widths."""

    @pytest.mark.parametrize("seed", [11, -4, "suite"])
    @pytest.mark.parametrize("size", [1 << m for m in range(17)])
    def test_indices_are_the_top_bits_of_one_word(self, monkeypatch, size, seed):
        # Four batches of two-variable trials over a carrier of 2**m elements,
        # at a width_cap of 250, whose whole words are 224 trials; bit i of
        # each variable's planes is its element under trial i.
        m = size.bit_length() - 1
        model = cyclic_algebra(m)
        assert len(model.atoms) == m
        monkeypatch.setattr(terms, "SLICE_BITS", 250 * max(1, m))
        sliced = terms._Sliced(model)
        widths, got = [], []
        for width, columns in terms._sampled_batches(sliced, 2, 700, seed):
            assert fits(columns, width)
            widths.append(width)
            for i in range(width):
                trial = [index_at(column, i) for column in columns]
                decoded = [sliced.relation([plane >> i & 1 for plane in column]) for column in columns]
                assert decoded == [model.element(index) for index in trial]
                got += trial
        assert widths == [224, 224, 224, 28]
        assert got == [i for trial in sampled_indices(seed, 2, m, 700) for i in trial]

    def test_a_width_cap_off_whole_words_is_rounded_down(self):
        # full:3's width_cap, 4194304 // 9 = 466033, is not a whole number
        # of words: a million trials are batches of 466016, 466016 and 67968.
        model = full_pra(3)
        sliced = terms._Sliced(model)
        assert sliced.width_cap == 466033
        count, seed = 1_000_000, 3
        # Column p of a batch is atom p's plane.
        widths, planes, lasts = [], [0] * 9, []
        batches = terms._sampled_batches(sliced, 1, count, seed)
        for width, (column,) in batches:
            assert fits([column], width)
            for p in range(9):
                planes[p] |= column[p] << sum(widths)
            widths.append(width)
            lasts.append(sliced.relation([plane >> width - 1 & 1 for plane in column]))
        assert widths == [466016, 466016, 67968]
        rng = random.Random(seed)
        assert planes == [random.Random(rng.getrandbits(64)).getrandbits(count) for _ in range(9)]
        ends = [466015, 932031, count - 1]
        assert lasts == [model.element(index_at(planes, t)) for t in ends]


class TestExhaustiveStream:
    """Exhaustive assignments are counted in aligned power-of-two batches."""

    @pytest.mark.parametrize(
        "model, nvars",
        [
            pytest.param(model, nvars, id=f"{name}-{nvars}")
            for name, model in [
                *((f"cyclic{m}", cyclic_algebra(m)) for m in range(7)), ("product", PRODUCT)
            ]
            for nvars in range(4)
            if len(model.atoms) * nvars <= 12  # at most 4096 assignments
        ],
    )
    def test_batches_count_in_product_order(self, monkeypatch, model, nvars):
        # Bit i of each variable's planes is its element under assignment i of
        # the batch, and the batches' assignments, in turn, are the product.
        m = len(model.atoms)
        # Batches of the whole space, of less than one variable, and ending
        # inside the second variable from the right.
        for w in sorted({m * nvars, m - 1, m + m // 2} & set(range(m * nvars + 1))):
            # A cap of 2**(w + 1) - 1 assignments fits batches of 2**w.
            monkeypatch.setattr(terms, "SLICE_BITS", ((2 << w) - 1) * max(1, m))
            sliced = terms._Sliced(model)
            got = []
            for width, columns in terms._exhaustive_batches(sliced, nvars):
                assert width == 1 << w <= sliced.width_cap
                assert fits(columns, width)
                for i in range(width):
                    indices = [index_at(column, i) for column in columns]
                    decoded = [sliced.relation([plane >> i & 1 for plane in c]) for c in columns]
                    assert decoded == [model.element(index) for index in indices]
                    got.append(tuple(indices))
            assert got == list(itertools.product(range(1 << m), repeat=nvars)), w


class TestAtomTable:
    """Composition and converse over atom planes against ``FiniteRelation``'s."""

    @staticmethod
    def assert_matches(model, sliced, i, j):
        x, y = model.element(i), model.element(j)
        v, w = sliced.constant(i), sliced.constant(j)
        assert sliced.compose(v, w) == sliced.constant(model.index(x.compose(y))), (i, j)
        assert sliced.converse(v) == sliced.constant(model.index(x.converse())), i

    @settings(max_examples=80, deadline=None)
    @given(algebras(), st.data())
    def test_random_elements_of_random_algebras(self, model, data):
        sliced = terms._Sliced(model)
        size = 1 << len(model.atoms)
        i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        self.assert_matches(model, sliced, i, j)

    @pytest.mark.parametrize("name", FINITE_MODELS)
    def test_every_pair_of_atoms(self, name):
        # By additivity these pin every entry of the table.
        model = FINITE_MODELS[name]
        sliced = terms._Sliced(model)
        for a in range(len(model.atoms)):
            for b in range(len(model.atoms)):
                self.assert_matches(model, sliced, 1 << a, 1 << b)

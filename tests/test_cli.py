"""Command line interface: exit codes, output shape, stdout stability."""

import contextlib
import gc
import importlib.util
import io
import json
import os
import pathlib
import random
import re
import runpy
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import relfork
from relfork import cli, constructions, relcore, terms
from relfork.cli import main
from relfork.forkmodel import PairingFunction

from helpers import reference_parser

UNIT2 = [[0, 0], [0, 1], [1, 0], [1, 1]]
IDENT2 = [[0, 0], [1, 1]]
DIV2 = [[0, 1], [1, 0]]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CFAU_BASIC = ["check", "--star", "basic", "--suite", "cfau", "--trials", "10", "--seed", "7"]
# Pinned stdout, by test id: golden file stem, exit code and argv after --format.
PINNED = {
    "exact-1,2": ("check_cfau_exact", 1, [*CFAU_BASIC, "--S", "1,2"]),
    "large_member-2000000": ("check_cfau_large_member", 1, [*CFAU_BASIC, "--S", "2000000"]),
    "build-seq-rho.pi.pi": (
        "build_seq_rho_pi_pi", 0, ["build", "--star", "seq", "--S", "0,1", "--s", "rho.pi.pi"]
    ),
    "fix-seq-pi.pi": (
        "fix_seq_pi_pi", 0,
        ["fix", "--star", "seq", "--S", "3,7", "--s", "pi.pi", "--window", "64"],
    ),
    "check-pi-3,4": (
        "check_cfau_pi", 0, ["check", "--star", "pi", "--S", "3,4", "--suite", "cfau"]
    ),
    "check-full2-exhaustive": (
        "check_full2_equational", 0, ["check", "--model", "full:2", "--suite", "cr_equational"]
    ),
    "check-full2-sampled": (
        "check_full2_tarski_sampled", 0,
        ["check", "--model", "full:2", "--suite", "cr_tarski", "--sampled", "50", "--seed", "3"],
    ),
    "eval-full2": ("eval_full2", 0, ["eval", "--model", "full:2", "--formula", "1' <= 1"]),
    "eval-basic-window": (
        "eval_basic_window", 1,
        ["eval", "--star", "basic", "--S", "1,2", "--formula", "pi = rho", "--window", "64"],
    ),
    # Block elements and star grids on both sides of the top reserved value.
    "build-tree-3,7,20": (
        "build_tree_3_7_20", 0,
        ["build", "--star", "tree", "--S", "3,7,20", "--t", "bin (bin nil nil) nil"],
    ),
    "build-pi-3,4": ("build_pi_3_4", 0, ["build", "--star", "pi", "--S", "3,4"]),
    # A certificate whose top lies far above every cell it decodes.
    "check-seq-huge-member": (
        "check_cfau_seq_huge", 0,
        ["check", "--star", "seq", "--S", "99999999999999999999999", "--s", "pi.rho",
         "--suite", "cfau"],
    ),
    # basic's unstar through the projections.
    "eval-basic-projections": (
        "eval_basic_projections", 0,
        ["eval", "--star", "basic", "--S", "1,2", "--formula", "pi # rho = 1'", "--window", "64"],
    ),
    # A failing axiom's counterexample line; the model path is read from GOLDEN.
    "check-product-1,1-tarski": (
        "check_product_1_1_tarski", 1,
        ["check", "--model", "product_1_1.json", "--suite", "cr_tarski"],
    ),
    # Seeded draw order: every arity group's trials, and a sampled counterexample.
    "check-full3-equational-sampled": (
        "check_full3_equational_sampled", 0,
        ["check", "--model", "full:3", "--suite", "cr_equational",
         "--sampled", "20000", "--seed", "11"],
    ),
    "check-product-1,1-tarski-sampled": (
        "check_product_1_1_tarski_sampled", 1,
        ["check", "--model", "product_1_1.json", "--suite", "cr_tarski",
         "--sampled", "3000", "--seed", "4"],
    ),
    # A sampled run over the 65,536 elements of full:4.
    "check-full4-equational-sampled": (
        "check_full4_equational_sampled", 0,
        ["check", "--model", "full:4", "--suite", "cr_equational",
         "--sampled", "2000", "--seed", "5"],
    ),
    # Exhaustive over Z_8's group algebra, whose 8 atoms are not cells.
    "check-cyclic-8-equational": (
        "check_cyclic_8_equational", 0,
        ["check", "--model", "cyclic_8.json", "--suite", "cr_equational"],
    ),
    # The urelements' partial identity beside the first projection.
    "eval-tree-urelements": (
        "eval_tree_urelements", 0,
        ["eval", "--star", "tree", "--S", "1,2", "--t", "bin (bin nil nil) nil",
         "--formula", "1u;1 <= ~(pi;1)", "--window", "64"],
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_to_exit(capsys, *argv):
    """Like run, but an argparse refusal returns its exit code too."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


class TestCheckModel:
    def test_tarski_suite_passes(self, capsys):
        code, out, err = run(capsys, "check", "--model", "full:1", "--suite", "cr_tarski")
        assert code == 0
        assert "result: pass" in out
        assert "elapsed-seconds:" in err

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "check",
            "--model", "full:2", "--suite", "cr_equational",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_valid"] is True
        assert len(payload["results"]) == 7
        assert payload["strategy"] == "exhaustive"

    def test_sampled_strategy(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "check",
            "--model", "full:2", "--suite", "cr_tarski",
            "--sampled", "50", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(entry["checked"] <= 50 for entry in payload["results"])

    @pytest.mark.parametrize("k", ["0", "-5"])
    def test_sampled_count_below_one_is_usage_error(self, capsys, k):
        code, _, err = run(
            capsys, "check",
            "--model", "full:2", "--suite", "cr_tarski", "--sampled", k,
        )
        assert code == 2
        assert "sampled count must be at least 1" in err

    def test_model_with_wrong_identity_fails(self, capsys, tmp_path):
        model = {
            "base_size": 2,
            "full": False,
            "carrier": [[], IDENT2, DIV2, UNIT2],
            "unit": UNIT2,
            "identity": DIV2,
        }
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(model))
        code, out, _ = run(
            capsys, "--format", "json", "check",
            "--model", str(path), "--suite", "cr_tarski",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["all_valid"] is False
        failed = [e for e in payload["results"] if not e["valid"]]
        assert any(e["axiom"] == "x;1' = x" for e in failed)
        assert all(e["counterexample"] is not None for e in failed)

    def test_suite_needs_matching_target(self, capsys):
        code, _, err = run(capsys, "check", "--model", "full:1", "--suite", "cfa")
        assert code == 2 and "error:" in err
        code, _, err = run(
            capsys, "check", "--star", "basic", "--S", "1", "--suite", "cr_tarski"
        )
        assert code == 2 and "error:" in err

    def test_unreadable_model(self, capsys):
        code, _, err = run(capsys, "check", "--model", "missing.json", "--suite", "cr_tarski")
        assert code == 2 and "error:" in err

    def test_oversized_full_model(self, capsys):
        code, _, err = run(capsys, "check", "--model", "full:9", "--suite", "cr_tarski")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("full:4", "assignment space 65536**3 exceeds cap 134217728; use a sampled strategy"),
            ("full:5", "full_pra base 5 exceeds cap 4 (carrier would have 2**25 elements)"),
        ],
    )
    def test_oversized_space_refused_before_the_model_is_built(
        self, capsys, monkeypatch, spec, message
    ):
        # full:4 is built and refused by check_suite before any axiom is
        # compiled; full:5 is refused by full_pra before any model is made.
        def unreachable(*args, **kwargs):
            raise AssertionError("work done for a refused check")

        monkeypatch.setattr(terms, "compile_formula", unreachable)
        if spec == "full:5":
            monkeypatch.setattr(relcore.AlgebraModel, "of_atoms", unreachable)
        code, out, err = run(capsys, "check", "--model", spec, "--suite", "cr_equational")
        assert code == 2 and out == ""
        assert f"error: {message}" in err

    def test_suite_budget_checked_before_any_axiom(self, capsys, monkeypatch):
        # cr_tarski opens with 2-variable axioms, which fit 512**2; its
        # 3-variable axioms do not, and no axiom may run before that is known.
        monkeypatch.setattr(terms, "DEFAULT_ASSIGNMENT_CAP", 512**2)

        def reached(*args, **kwargs):
            raise AssertionError("an axiom was compiled before the budget")

        monkeypatch.setattr(terms, "compile_formula", reached)
        code, out, err = run(capsys, "check", "--model", "full:3", "--suite", "cr_tarski")
        assert code == 2 and out == ""
        assert "error: assignment space 512**3 exceeds cap 262144" in err

    def test_sampled_run_has_no_budget(self, capsys, monkeypatch):
        # The cap bounds the sampled count, not the space: 16**3 > 5.
        monkeypatch.setattr(terms, "DEFAULT_ASSIGNMENT_CAP", 5)
        code, _, _ = run(
            capsys, "check", "--model", "full:2", "--suite", "cr_tarski", "--sampled", "5"
        )
        assert code == 0

    @pytest.mark.parametrize("k", ["134217729", "99999999999999999999999"])
    def test_sampled_count_above_cap_refused_before_the_model_loads(
        self, capsys, monkeypatch, k
    ):
        def unreachable(spec):
            raise AssertionError("model loaded before the sampled cap")

        monkeypatch.setattr(relcore, "full_pra", unreachable)
        code, out, err = run(
            capsys, "check", "--model", "full:2", "--suite", "cr_tarski", "--sampled", k
        )
        assert code == 2 and out == ""
        assert f"error: sampled count {k} exceeds cap 134217728" in err

    def test_sampled_cap_read_at_call_time(self, capsys, monkeypatch):
        monkeypatch.setattr(terms, "DEFAULT_ASSIGNMENT_CAP", 40)
        argv = ["check", "--model", "full:1", "--suite", "cr_equational", "--sampled"]
        assert run(capsys, *argv, "40")[0] == 0
        code, _, err = run(capsys, *argv, "41")
        assert code == 2 and "error: sampled count 41 exceeds cap 40" in err

    @pytest.mark.parametrize(
        "argv, header",
        [
            (
                ["--model", "full:1", "--suite", "cr_tarski"],
                "cr_tarski on model:full:1  [exhaustive]",
            ),
            (
                ["--model", "full:2", "--suite", "cr_equational", "--sampled", "5", "--seed", "3"],
                "cr_equational on model:full:2  [sampled(5), seed 3]",
            ),
            (
                ["--star", "basic", "--S", "1", "--suite", "cfa", "--trials", "7", "--seed", "2"],
                "cfa on star:basic S=[1]  [exact over N]",
            ),
            (
                # Members in the millions are certified from the table alone too.
                ["--star", "basic", "--S", "2000000", "--suite", "cfa", "--trials", "7",
                 "--seed", "2"],
                "cfa on star:basic S=[2000000]  [exact over N]",
            ),
        ],
    )
    def test_text_header_names_the_scope(self, capsys, argv, header):
        code, out, _ = run(capsys, "check", *argv)
        assert code == 0
        assert out.splitlines()[0] == header

    def test_json_scope_fields_unchanged(self, capsys):
        # The JSON strategy is the scope's label, as the text header prints it.
        code, out, _ = run(
            capsys, "--format", "json", "check",
            "--model", "full:2", "--suite", "cr_equational", "--sampled", "5", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "sampled(5)" and payload["seed"] == 3


def unclosed_model(path, size=1025):
    """A model file of base 4 whose carrier holds ``size`` relations.

    A closed carrier is a Boolean algebra, whose size is a power of two,
    so 1,025 relations are never closed.
    """
    n = 4
    identity = sum(1 << (a * n + a) for a in range(n))
    codes = {0, (1 << n * n) - 1, identity}
    rng = random.Random(size)
    while len(codes) < size:
        codes.add(rng.randrange(1 << n * n))
    carrier = [
        [[q // n, q % n] for q in range(n * n) if code >> q & 1] for code in sorted(codes)
    ]
    unit = carrier[-1]
    path.write_text(json.dumps({"base_size": n, "carrier": carrier, "unit": unit}))
    return str(path)


# name: (carrier, unit, the stderr words); each carrier holds 0, 1' and the unit.
UNCLOSED = {
    "size-not-power-of-two": (
        [[], IDENT2, UNIT2], UNIT2, "not a Boolean algebra under the unit: its size 3",
    ),
    "too-many-blocks": (
        [[], IDENT2, [[0, 1]], UNIT2], UNIT2,
        "not a Boolean algebra under the unit: its elements split the unit",
    ),
    "converse": (
        [[], IDENT2, [[0, 1]], [[0, 0], [0, 1], [1, 1]]], [[0, 0], [0, 1], [1, 1]],
        "not closed under converse",
    ),
    "composition": (
        [
            a + b + c
            for a in ([], [[0, 0]])
            for b in ([], [[1, 1]])
            for c in ([], [[0, 1], [1, 0]])
        ],
        UNIT2,
        "not closed under composition",
    ),
}


class TestClosureReport:
    def test_unclosed_large_model_is_an_error(self, capsys, tmp_path):
        path = unclosed_model(tmp_path / "big.json")
        for argv in (
            ["eval", "--model", path, "--formula", "1' <= 1"],
            ["check", "--model", path, "--suite", "cr_equational", "--sampled", "5"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: carrier is not a Boolean algebra")

    @pytest.mark.parametrize("name", sorted(UNCLOSED))
    def test_error_names_the_failure(self, capsys, tmp_path, name):
        carrier, unit, words = UNCLOSED[name]
        path = tmp_path / "unclosed.json"
        path.write_text(json.dumps({"base_size": 2, "carrier": carrier, "unit": unit}))
        code, out, err = run(capsys, "check", "--model", str(path), "--suite", "cr_tarski")
        assert code == 2 and out == ""
        assert err.startswith("error: carrier ") and words in err

    def test_key_absent_when_closure_known(self, capsys, tmp_path):
        small = tmp_path / "small.json"
        small.write_text(json.dumps(MODEL_FILE))
        big = tmp_path / "big.json"
        relcore.save_model(relcore.power(relcore.full_pra(2), 3), str(big))
        for model in ("full:2", str(small), str(big)):
            for argv in (
                ["eval", "--model", model, "--formula", "1' <= 1"],
                ["check", "--model", model, "--suite", "cr_equational", "--sampled", "5"],
            ):
                code, out, _ = run(capsys, "--format", "json", *argv)
                assert code == 0 and "closure_checked" not in json.loads(out)
                code, out, _ = run(capsys, *argv)
                assert code == 0 and "note:" not in out


class TestCheckStar:
    def test_cfau_passes_on_projection_star(self, capsys):
        code, out, _ = run(
            capsys, "check", "--star", "pi", "--S", "3,4", "--suite", "cfau",
            "--trials", "20",
        )
        assert code == 0
        assert "result: pass" in out

    def test_cfau_fails_on_bijective_star(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "check",
            "--star", "basic", "--S", "1,2", "--suite", "cfau",
            "--trials", "10",
        )
        assert code == 1
        payload = json.loads(out)
        by_name = {entry["name"]: entry for entry in payload["results"]}
        assert by_name["cfa1"]["passed"] and by_name["cfa3"]["passed"]
        assert not by_name["cfau"]["passed"]

    def test_cfa_passes_on_all_kinds(self, capsys):
        targets = [
            ("--star", "basic", "--S", "1,2"),
            ("--star", "tree", "--S", "0,1", "--t", "bin nil nil"),
            ("--star", "pi", "--S", "3"),
            ("--star", "seq", "--S", "0", "--s", "pi.rho"),
        ]
        for target in targets:
            code, _, _ = run(capsys, "check", *target, "--suite", "cfa", "--trials", "15")
            assert code == 0

    def test_stdout_is_stable_for_fixed_seed(self, capsys):
        argv = (
            "--format", "json", "check", "--star", "basic", "--S", "1",
            "--suite", "cfa", "--trials", "10", "--seed", "7",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize(
        "members, scope", [("1", "exact over N"), ("2000000", "exact over N")]
    )
    def test_json_names_the_scope(self, capsys, members, scope):
        # --trials and --seed are accepted on a pairing, which reads neither.
        code, out, _ = run(
            capsys, "--format", "json", "check", "--star", "basic", "--S", members,
            "--suite", "cfa", "--trials", "10", "--seed", "7",
        )
        payload = json.loads(out)
        assert code == 0 and payload["scope"] == scope
        assert not {"trials", "seed", "support_bound", "urelement_bound"} & set(payload)

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("golden, exit_code, argv", PINNED.values(), ids=PINNED.keys())
    def test_stdout_bytes_are_pinned(
        self, capsys, monkeypatch, golden, exit_code, argv, fmt, suffix
    ):
        # The key order, the details, the scope labels and the control text.
        monkeypatch.chdir(GOLDEN)
        code, out, _ = run(capsys, "--format", fmt, *argv)
        assert code == exit_code
        assert out == (GOLDEN / f"{golden}.{suffix}").read_text(encoding="utf-8")

    def test_tree_star_requires_control(self, capsys):
        code, _, err = run(capsys, "check", "--star", "tree", "--S", "0", "--suite", "cfa")
        assert code == 2 and "--t" in err

    def test_bad_member_list(self, capsys):
        code, _, err = run(capsys, "check", "--star", "basic", "--S", "1,x", "--suite", "cfa")
        assert code == 2 and "error:" in err


class TestEval:
    def test_exact_true(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", "full:2", "--formula", "1' <= 1")
        assert code == 0
        assert out.strip().endswith("true")

    def test_exact_with_bindings(self, capsys, tmp_path):
        bind = tmp_path / "bind.json"
        bind.write_text(json.dumps({"x": [[0, 1]]}))
        code, _, _ = run(
            capsys, "eval", "--model", "full:2",
            "--formula", "x <= 1", "--bind", str(bind),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "eval", "--model", "full:2",
            "--formula", "x = 0", "--bind", str(bind),
        )
        assert code == 1
        assert out.strip().endswith("false")

    def test_binding_outside_the_model_exits_two(self, capsys, tmp_path):
        # (0, 1) lies in the base of the product model but in none of its elements.
        model = tmp_path / "product.json"
        product = relcore.direct_product(relcore.full_pra(1), relcore.full_pra(1))
        relcore.save_model(product, str(model))
        bind = tmp_path / "bind.json"
        bind.write_text(json.dumps({"x": [[0, 1]]}))
        code, out, err = run(
            capsys, "eval", "--model", str(model),
            "--formula", "x + ~x = 1", "--bind", str(bind),
        )
        assert (code, out) == (2, "")
        assert "error: binding 'x' is not an element of the model" in err

    def test_window_mode(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "eval",
            "--star", "basic", "--S", "1,2",
            "--formula", "pi # rho <= 1'", "--window", "50",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "window[0,50)"
        assert payload["value"] is True

    def test_window_mode_false(self, capsys):
        code, _, _ = run(
            capsys, "eval", "--star", "pi", "--S", "3",
            "--formula", "1' <= pi # rho", "--window", "50",
        )
        assert code == 1

    def test_unbound_variable(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "full:1", "--formula", "x = x")
        assert code == 2 and "unbound-variable" in err

    def test_fork_constant_needs_star_target(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "full:1", "--formula", "pi = pi")
        assert code == 2 and "no-fork-structure" in err

    @pytest.mark.parametrize(
        "formula, want",
        [
            ("x = x \\/ pi = pi", 2),
            ("x # pi = 0", 2),
            ("1' = 1' \\/ x # y = 0", 0),
            ("!(1' = 1') -> x # y = 0", 0),
        ],
    )
    def test_fork_structure_refused_only_where_evaluated(self, capsys, formula, want):
        # A fork constant is refused before evaluation even where an unbound
        # variable or a decided disjunct comes first; a fork operator only
        # where it runs.
        code, out, err = run(capsys, "eval", "--model", "full:1", "--formula", formula)
        assert code == want
        if want == 2:
            assert "error: no-fork-structure" in err and out == ""
        else:
            assert out.strip().endswith("true")

    def test_undecidable_composition(self, capsys):
        code, _, err = run(
            capsys, "eval", "--star", "basic", "--S", "1",
            "--formula", "~0;~0 = 1", "--window", "20",
        )
        assert code == 2 and "undecidable-composition" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "full:1", "--formula", "x +")
        assert code == 2 and "error:" in err

    def test_non_ascii_name_is_a_syntax_error(self, capsys):
        code, _, err = run(capsys, "eval", "--model", "full:1", "--formula", "ǆ = 0")
        assert code == 2
        assert "unknown token 'ǆ' (at position 0)" in err and "unbound" not in err


class TestFix:
    def test_reports_match(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "fix",
            "--star", "tree", "--S", "0,1", "--t", "bin nil nil",
            "--window", "800",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fixpoints"] == [0, 1]
        assert payload["candidates"] == [0, 1]
        assert payload["matches_candidates"] is True

    def test_text_rendering(self, capsys):
        code, out, _ = run(capsys, "fix", "--star", "basic", "--S", "2,5", "--window", "400")
        assert code == 0
        assert "agreement:  yes" in out

    def test_window_defaults_to_1000(self, capsys):
        _, text, _ = run(capsys, "fix", "--star", "basic", "--S", "2,5")
        _, out, _ = run(capsys, "--format", "json", "fix", "--star", "basic", "--S", "2,5")
        assert "window [0,1000)" in text
        assert json.loads(out)["window"] == 1000

    def test_all_kinds(self, capsys):
        targets = [
            ("--star", "basic", "--S", "1,2"),
            ("--star", "pi", "--S", "3,4"),
            ("--star", "rho", "--S", "3,4"),
            ("--star", "seq", "--S", "0,1,2", "--s", "pi.rho"),
        ]
        for target in targets:
            code, out, _ = run(capsys, "--format", "json", "fix", *target, "--window", "600")
            assert code == 0
            assert json.loads(out)["matches_candidates"] is True

    @pytest.mark.parametrize(
        "target",
        [
            ("--star", "basic"),
            ("--star", "tree", "--t", "bin (bin nil nil) nil"),
            ("--star", "pi"),
            ("--star", "rho"),
            ("--star", "seq", "--s", "pi.rho"),
        ],
        ids=lambda target: target[1],
    )
    def test_max_members_every_kind(self, capsys, target):
        members = sorted(random.Random(512).sample(range(8192), 512))
        code, out, _ = run(
            capsys, "--format", "json", "fix", *target,
            "--S", ",".join(map(str, members)), "--window", "4096",
        )
        assert code == 0
        assert json.loads(out)["fixpoints"] == [u for u in members if u < 4096]

    def test_window_cap(self, capsys):
        code, _, err = run(
            capsys, "fix", "--star", "basic", "--S", "1", "--window", "2000000"
        )
        assert code == 2 and "exceeds cap" in err

    @staticmethod
    def add_extra_fixpoint(monkeypatch):
        """Make every built pairing fix 9 as well as its candidates."""
        build = constructions.build_from_config

        def with_extra_fixpoint(config):
            pf = build(config)
            star = pf.star
            return PairingFunction(
                lambda u, v: 9 if u == v == 9 else star(u, v), pf.unstar, pf.meta
            )

        monkeypatch.setattr(constructions, "build_from_config", with_extra_fixpoint)

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        self.add_extra_fixpoint(monkeypatch)
        code, out, _ = run(
            capsys, "--format", "json", "fix", "--star", "basic", "--S", "2,5",
            "--window", "400",
        )
        assert code == 1
        assert '"matches_candidates": false' in out
        assert json.loads(out)["fixpoints"] == [2, 5, 9]

    def test_mismatch_text(self, capsys, monkeypatch):
        self.add_extra_fixpoint(monkeypatch)
        code, out, _ = run(capsys, "fix", "--star", "basic", "--S", "2,5", "--window", "400")
        assert code == 1
        assert out == (
            "star:basic S=[2, 5] window [0,400)\n"
            "fixpoints:  [2, 5, 9]\n"
            "candidates: [2, 5]\n"
            "agreement:  NO\n"
        )

    def test_config_file_target(self, capsys, tmp_path):
        config = tmp_path / "star.json"
        config.write_text(json.dumps({"kind": "seq", "S": [0, 1], "control": "rho.pi"}))
        code, out, _ = run(
            capsys, "--format", "json", "fix", "--config", str(config), "--window", "600"
        )
        assert code == 0
        assert json.loads(out)["fixpoints"] == [0, 1]

    def test_malformed_config_file(self, capsys, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        code, _, err = run(capsys, "fix", "--config", str(config))
        assert code == 2 and "error:" in err


class TestBuild:
    def test_digest_depends_on_config(self, capsys):
        _, out_a, _ = run(
            capsys, "--format", "json", "build", "--star", "basic", "--S", "1,2"
        )
        _, out_a2, _ = run(
            capsys, "--format", "json", "build", "--star", "basic", "--S", "1,2"
        )
        _, out_b, _ = run(
            capsys, "--format", "json", "build", "--star", "basic", "--S", "1,3"
        )
        digest = lambda text: json.loads(text)["config_sha256"]
        assert digest(out_a) == digest(out_a2)
        assert digest(out_a) != digest(out_b)

    def test_text_report(self, capsys):
        code, out, _ = run(
            capsys, "build", "--star", "seq", "--S", "0,1", "--s", "pi.rho"
        )
        assert code == 0
        assert "kind seq" in out
        assert "control: pi.rho" in out
        assert "pinned cells:" in out

    def test_star_required(self, capsys):
        code, _, err = run(capsys, "build")
        assert code == 2 and "--star" in err


class TestExport:
    def test_round_trip_through_check(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        code, out, _ = run(capsys, "export", "--model", "full:2", "--out", str(path))
        assert code == 0
        assert json.loads(out)["written"] == str(path)
        code, _, _ = run(
            capsys, "check", "--model", str(path), "--suite", "cr_equational"
        )
        assert code == 0

    def test_export_to_stdout(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "export", "--model", "full:1")
        assert code == 0
        payload = json.loads(out)
        assert payload["base_size"] == 1 and payload["full"] is True

    def test_text_prints_the_json(self, capsys):
        code, text, _ = run(capsys, "export", "--model", "full:1")
        assert (code, text) == run(capsys, "--format", "json", "export", "--model", "full:1")[:2]
        assert code == 0 and text.startswith("{")

    def test_full2_prints_the_json_dumps_bytes_in_both_formats(self, capsys):
        want = json.dumps(relcore.model_to_dict(relcore.full_pra(2)), indent=2, sort_keys=True)
        for argv in (["export"], ["--format", "json", "export"]):
            assert run(capsys, *argv, "--model", "full:2")[:2] == (0, want + "\n")


BASIC_TARGET = ["--star", "basic", "--S", "1"]


class TestCountChecks:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", *BASIC_TARGET, "--formula", "1 = 1", "--window", "5000"],
            ["eval", *BASIC_TARGET, "--formula", "1 = 1", "--window", "0"],
            ["fix", *BASIC_TARGET, "--window", "-5"],
            ["fix", *BASIC_TARGET, "--window", "2000000"],
            ["check", *BASIC_TARGET, "--suite", "cfa", "--trials", "-1"],
        ],
    )
    def test_rejected_before_the_pairing_is_built(self, capsys, monkeypatch, argv):
        def unreachable(config):
            raise AssertionError("pairing built before the count checks")

        monkeypatch.setattr(constructions, "build_from_config", unreachable)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("model", ["full:4", "missing.json"])
    def test_sampled_count_rejected_before_the_model_loads(self, capsys, monkeypatch, model):
        def unreachable(spec):
            raise AssertionError("model loaded before the count checks")

        monkeypatch.setattr(relcore, "full_pra", unreachable)
        monkeypatch.setattr(relcore, "load_model", unreachable)
        code, out, err = run(capsys, *CHECK_MODEL, model, "--sampled", "0")
        assert code == 2 and out == ""
        assert "error: sampled count must be at least 1, got 0" in err

    def test_seed_with_a_zero_sampled_count_reports_the_count(self, capsys):
        # --sampled 0 is given, so --seed has a reader; the count is what is wrong.
        code, out, err = run(capsys, *CHECK_MODEL, "full:1", "--sampled", "0", "--seed", "3")
        assert (code, out) == (2, "")
        assert "error: sampled count must be at least 1, got 0" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["check", *BASIC_TARGET, "--suite", "cfa", "--sampled", "5"],
                "error: --sampled needs --model",
            ),
            (
                ["check", "--model", "full:2", "--suite", "cr_equational", "--trials", "5"],
                "error: --trials needs --star or --config",
            ),
            (
                ["check", "--model", "full:1", "--suite", "cr_equational", "--seed", "9"],
                "error: --seed needs --sampled or --star or --config",
            ),
            (
                ["eval", "--model", "full:2", "--formula", "1' <= 1", "--window", "5"],
                "error: --window needs --star or --config",
            ),
            (["fix", "--window", "5"], "error: --window needs --star or --config"),
            (
                ["check", "--model", "full:1", *BASIC_TARGET, "--suite", "cfa"],
                "error: argument --star: not allowed with argument --model",
            ),
            (
                ["build", "--config", "c.json", *BASIC_TARGET],
                "error: argument --star: not allowed with argument --config",
            ),
            (["fix", "--config", "c.json", "--S", "1"], "error: --S needs --star"),
            (
                ["eval", "--model", "full:1", "--formula", "1 = 1", "--s", "pi"],
                "error: --s needs --star",
            ),
            (
                ["build", "--star", "tree", "--S", "0", "--t", "bin nil nil", "--s", "pi"],
                "error: argument --s: not allowed with argument --t",
            ),
        ],
        ids=[
            "sampled-on-star", "trials-on-model", "seed-on-exhaustive", "window-on-model",
            "window-on-fix-without-target",
            "model-and-star", "config-and-star",
            "members-on-config", "control-on-model", "two-controls",
        ],
    )
    def test_ignored_option_refused_before_any_work(
        self, capsys, monkeypatch, tmp_path, argv, message
    ):
        def unreachable(*args):
            raise AssertionError("a target was read before its options were checked")

        monkeypatch.setattr(constructions, "build_from_config", unreachable)
        monkeypatch.setattr(relcore, "full_pra", unreachable)
        monkeypatch.setattr(relcore, "load_model", unreachable)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({"kind": "basic", "S": [1]}))
        code, out, err = run_to_exit(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err

    def test_control_refused_as_in_a_config_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "basic", "S": [1], "control": "bin nil nil"}))
        flags = run(capsys, "build", *BASIC_TARGET, "--t", "bin nil nil")
        file = run(capsys, "build", "--config", str(path))
        assert flags == file == (2, "", "error: basic construction takes no control\n")


class TestArgumentErrors:
    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--model", "full:1", "--suite", "boolean"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_exhaustive_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--model", "full:1", "--suite", "cr_tarski", "--exhaustive"])
        assert exc.value.code == 2

    def test_unknown_star_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fix", "--star", "spiral"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "spec", ["full:+2", "full: 2", "full:2 ", "full:1_0", "full:\u0663", "full:-1", "full:"]
    )
    def test_full_base_is_ascii_digits_only(self, capsys, spec):
        # int() takes each of these; the spec takes only ASCII decimal digits.
        code, out, err = run_to_exit(capsys, "check", "--model", spec, "--suite", "cr_equational")
        assert (code, out) == (2, "")
        assert err == f"error: bad model spec {spec!r}; expected full:N or a path\n"

    @pytest.mark.parametrize("flag", ["--support-bound", "--urelement-bound"])
    def test_bound_flags_removed(self, capsys, flag):
        # The sampled path's probe sizes are forkmodel constants.
        code, out, err = run_to_exit(capsys, "check", *BASIC_TARGET, "--suite", "cfa", flag, "5")
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 5" in err


EVAL_X = ["eval", "--model", "full:2", "--formula", "x <= 1", "--bind"]
CHECK_MODEL = ["check", "--suite", "cr_tarski", "--model"]
MODEL_FILE = {"base_size": 2, "carrier": [[], IDENT2, DIV2, UNIT2], "unit": UNIT2}
TREE_STAR = ["build", "--star", "tree", "--S", "0", "--t"]
EVAL_FULL1 = ["eval", "--model", "full:1", "--formula"]

DEEP = "[" * 100_000
# name: (content of in.json, its raw text if a str, or None; argv); a_dir is a directory.
MALFORMED = {
    "bind-short-pair": ({"x": [[0]]}, [*EVAL_X, "in.json"]),
    "bind-not-a-list": ({"x": 5}, [*EVAL_X, "in.json"]),
    "bind-string-entry": ({"x": [["a", 1]]}, [*EVAL_X, "in.json"]),
    "model-string-carrier": ({**MODEL_FILE, "carrier": "abc"}, [*CHECK_MODEL, "in.json"]),
    "model-short-pair": ({**MODEL_FILE, "unit": [[0, 0], [0]]}, [*CHECK_MODEL, "in.json"]),
    "config-string-members": ({"kind": "basic", "S": "abc"}, ["build", "--config", "in.json"]),
    "config-int-members": ({"kind": "basic", "S": 5}, ["build", "--config", "in.json"]),
    "config-null-member": ({"kind": "basic", "S": [None]}, ["build", "--config", "in.json"]),
    "config-float-member": ({"kind": "basic", "S": [1.7]}, ["build", "--config", "in.json"]),
    "config-digit-string-members": ({"kind": "basic", "S": "12"}, ["build", "--config", "in.json"]),
    "config-bool-member": ({"kind": "basic", "S": [True]}, ["build", "--config", "in.json"]),
    "config-mixed-members": ({"kind": "basic", "S": [1, "a"]}, ["build", "--config", "in.json"]),
    "config-list-member": ({"kind": "basic", "S": [[1]]}, ["build", "--config", "in.json"]),
    "model-float-base-size": ({"base_size": 2.9, "full": True}, [*CHECK_MODEL, "in.json"]),
    "model-string-base-size": ({"base_size": "2", "full": "false"}, [*CHECK_MODEL, "in.json"]),
    "model-string-full": ({"base_size": 2, "full": "false"}, [*CHECK_MODEL, "in.json"]),
    "model-bool-base-size": ({"base_size": True, "full": True}, [*CHECK_MODEL, "in.json"]),
    "tree-with-hole": (None, [*TREE_STAR, "bin _ nil"]),
    "tree-is-hole": (None, [*TREE_STAR, "_"]),
    "config-directory": (None, ["build", "--config", "a_dir"]),
    "model-directory": (None, [*CHECK_MODEL, "a_dir"]),
    "bind-directory": (None, [*EVAL_X, "a_dir"]),
    "export-to-directory": (None, ["export", "--model", "full:1", "--out", "a_dir"]),
    "formula-3000-parens": (None, [*EVAL_FULL1, "(" * 3000 + "x" + ")" * 3000 + " = 0"]),
    "formula-170-parens": (None, [*EVAL_FULL1, "(" * 170 + "x" + ")" * 170]),
    "formula-3000-complements": (None, [*EVAL_FULL1, "~" * 3000 + "x"]),
    "formula-3000-nots": (None, [*EVAL_FULL1, "!" * 3000 + "x = 0"]),
    "formula-3000-compose-operands": (None, [*EVAL_FULL1, ";".join(["x"] * 3000) + " = 0"]),
    "formula-3000-converses": (None, [*EVAL_FULL1, "x" + "^" * 3000 + " = 0"]),
    "formula-3000-conjuncts": (None, [*EVAL_FULL1, " /\\ ".join(["x = 0"] * 3000)]),
    "formula-3000-implications": (None, [*EVAL_FULL1, " -> ".join(["x = 0"] * 3000)]),
    "check-missing-model-sampled-0": (None, [*CHECK_MODEL, "missing.json", "--sampled", "0"]),
    "check-full4-sampled-0": (None, [*CHECK_MODEL, "full:4", "--sampled", "0"]),
    "formula-non-ascii-name": (None, [*EVAL_FULL1, "ǆ = 0"]),
    "formula-non-ascii-digit": (None, [*EVAL_FULL1, "x² = 0"]),
    "tree-3000-parens": (None, [*TREE_STAR, "(" * 3000 + "nil" + ")" * 3000]),
    "tree-3000-bins": (None, [*TREE_STAR, "bin " * 3000 + "nil " * 3001]),
    "config-100000-brackets": (DEEP, ["build", "--config", "in.json"]),
    "config-members-100000-deep": (
        '{"kind": "basic", "S": ' + DEEP, ["build", "--config", "in.json"]
    ),
    "bind-100000-brackets": (DEEP, [*EVAL_X, "in.json"]),
    "model-100000-brackets": (DEEP, [*CHECK_MODEL, "in.json"]),
}

# name: (content of in.json or None, argv, the one line on stderr).
REFUSED = {
    "model-spec-full-x": (
        None, ["eval", "--model", "full:x", "--formula", "1 = 1"],
        "bad model spec 'full:x'; expected full:N or a path",
    ),
    "bind-list": ([[0, 1]], [*EVAL_X, "in.json"], "bindings file must hold a JSON object"),
    # An empty path is a path: it names no file, whichever option gives it.
    **{
        f"empty-{name}": (None, argv, "[Errno 2] No such file or directory: ''")
        for name, argv in [
            ("model-check", ["check", "--model", "", "--suite", "cr_tarski"]),
            ("model-eval", ["eval", "--model", "", "--formula", "1=1"]),
            ("model-export", ["export", "--model", ""]),
            ("config", ["check", "--config", "", "--suite", "cfa"]),
            ("bind", [*EVAL_FULL1, "1=1", "--bind", ""]),
            ("out", ["export", "--model", "full:1", "--out", ""]),
        ]
    },
    "complement-of-formula": (
        None, [*EVAL_FULL1, "~(1=1)"], "'~' takes terms, found a formula (at position 0)"
    ),
    "tree-digit": (
        None, ["build", "--star", "tree", "--S", "1", "--t", "bin nil 7"],
        "unexpected character '7' (at position 8)",
    ),
    "model-base-size-17": (
        {**MODEL_FILE, "base_size": 17}, [*CHECK_MODEL, "in.json"],
        "base size 17 outside [0, 16]",
    ),
    "model-without-unit": (
        {key: MODEL_FILE[key] for key in ("base_size", "carrier")}, [*CHECK_MODEL, "in.json"],
        "malformed model data: 'unit'",
    ),
    **{
        f"members-{name}": (
            None, ["build", "--star", "basic", "--S", members],
            f"bad member list {members!r}: expected ASCII decimal digits, got {bad!r}",
        )
        for name, members, bad in [
            ("underscore", "1_0", "1_0"),
            ("sign", "+3", "+3"),
            ("arabic-indic", "\u0661", "\u0661"),
            ("letter", "1, x ,2", "x"),
        ]
    },
}


class TestRefusalMessages:
    @pytest.mark.parametrize("content, argv, message", REFUSED.values(), ids=REFUSED.keys())
    def test_exits_two_with_one_error_line(
        self, capsys, tmp_path, monkeypatch, content, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        if content is not None:
            (tmp_path / "in.json").write_text(json.dumps(content))
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestMalformedInput:
    @pytest.mark.parametrize("content, argv", MALFORMED.values(), ids=MALFORMED.keys())
    def test_exits_two_without_traceback(self, capsys, tmp_path, monkeypatch, content, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a_dir").mkdir()
        if content is not None:
            text = content if isinstance(content, str) else json.dumps(content)
            (tmp_path / "in.json").write_text(text)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        assert out == ""


def fresh_env():
    """This process's environment, with the tested relfork first on PYTHONPATH."""
    src = str(pathlib.Path(relfork.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_fresh(argv, closed=None, buffered=True, cwd=None, to_file=False):
    """Exit code, stdout and stderr of ``python -m relfork.cli`` in a new process.

    The process starts in ``cwd`` (default: this one's directory), and
    its output is decoded as UTF-8 with line endings as written.
    ``closed`` names the stream ("stdout" or "stderr") given a pipe whose
    read end is closed before the run starts, so that its first flush
    fails whatever the timing; it then reads "".  ``buffered`` False runs
    with PYTHONUNBUFFERED set, so that a failed write leaves nothing for
    the interpreter's flush at exit; True, the default, runs without it.
    ``to_file`` True gives stdout a regular file, read back after the
    run, in place of a pipe.
    """
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    if closed is not None:
        streams[closed] = write_end
    with tempfile.TemporaryFile() as out_file:
        if to_file:
            streams["stdout"] = out_file
        try:
            done = subprocess.run(
                [sys.executable, "-m", "relfork.cli", *argv],
                **streams,
                env=env,
                cwd=cwd,
                timeout=60,
            )
        finally:
            os.close(write_end)
        out_file.seek(0)
        stdout = out_file.read() if to_file else done.stdout
    out, err = ((stream or b"").decode("utf-8") for stream in (stdout, done.stderr))
    return done.returncode, out, err


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--model", "full:1", "--formula", "1 = 1"],
            ["--format", "json", "check", "--model", "full:1", "--suite", "cr_equational"],
        ],
    )
    def test_exits_two_without_traceback(self, argv):
        code, _, err = run_fresh(argv, closed="stdout")
        assert code == 2
        assert "error:" in err and "Traceback" not in err


class TestClosedStderr:
    @pytest.mark.parametrize(
        "want, argv",
        [
            (0, ["eval", "--model", "full:1", "--formula", "1 = 1"]),
            (1, ["eval", "--model", "full:1", "--formula", "1 = 0"]),
            (2, ["eval", "--model", "full:1", "--formula", "x = 0"]),
            (0, ["check", "--star", "basic", "--S", "1,2", "--suite", "cfa"]),
            (1, ["--format", "json", "check", "--star", "basic", "--S", "1,2", "--suite", "cfau"]),
        ],
        ids=["true", "false", "usage-error", "check-star-pass", "check-star-fail"],
    )
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_keeps_the_verdicts_exit_code_and_stdout(self, want, argv, buffered):
        # The elapsed-seconds and error lines cannot be written; the
        # verdict's code and stdout are those of a normal run.
        code, out, err = run_fresh(argv, buffered=buffered)
        assert code == want and "Traceback" not in err
        assert run_fresh(argv, closed="stderr", buffered=buffered) == (want, out, "")


# argparse writes these itself, help to stdout and a refusal to stderr, and
# leaves them in the stream's buffer for the flush at exit.
ARGPARSE_EXITS = {
    "help": (0, ["--help"]),
    "check-help": (0, ["check", "--help"]),
    "bad-suite": (2, ["check", "--suite", "nope"]),
}


class TestArgparseExits:
    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        # The width argparse wraps to, in this process and in the fresh ones.
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("to_file", [False, True], ids=["pipe", "file"])
    @pytest.mark.parametrize("want, argv", ARGPARSE_EXITS.values(), ids=ARGPARSE_EXITS.keys())
    def test_prints_in_full(self, capsys, want, argv, to_file):
        code, out, err = run_to_exit(capsys, *argv)
        assert code == want and (out if want == 0 else err).startswith("usage: relfork")
        assert run_fresh(argv, to_file=to_file) == (code, out, err)

    @pytest.mark.parametrize("closed", ["stdout", "stderr"])
    @pytest.mark.parametrize("want, argv", ARGPARSE_EXITS.values(), ids=ARGPARSE_EXITS.keys())
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_a_closed_stream_keeps_the_exit_code(self, capsys, want, argv, closed, buffered):
        # The text that cannot be written is dropped; the other stream's is whole.
        _, out, err = run_to_exit(capsys, *argv)
        kept = (want, "", err) if closed == "stdout" else (want, out, "")
        assert run_fresh(argv, closed=closed, buffered=buffered) == kept


def parse_outcome(parser, argv):
    """What a parser makes of argv: the namespace's vars, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMAND_WORDS = ("check", "eval", "fix", "build", "export")


def shell_words(line):
    """The words of a shell line, with ;|&()<> runs as words of their own."""
    lexer = shlex.shlex(line, posix=True, punctuation_chars=";&|()<>")
    lexer.whitespace_split = True
    return list(lexer)


def until_operator(words):
    """The words before the first shell operator, less the 2 of a 2> redirection."""
    args = []
    for word in words:
        if word and set(word) <= set(";&|()<>"):
            if word[0] in "<>" and args[-1:] == ["2"]:
                args.pop()
            break
        args.append(word)
    return args


def relfork_args(words):
    """The relfork arguments among a line's words: from the command word (and a
    --format before it) to the first shell operator; None without a command word."""
    start = next((i for i, w in enumerate(words) if w in COMMAND_WORDS), None)
    if start is None:
        return None
    if words[start - 2 : start - 1] == ["--format"]:
        start -= 2
    return until_operator(words[start:])


def literal(args):
    """Shell arguments with each variable replaced by a plain value."""
    return ["1" if word.startswith("$") else word for word in args]


def ci_argvs():
    """The relfork argv of every workflow line, through the shell functions that wrap it."""
    templates, name, argvs, run_indent = {}, None, [], None
    workflow = ROOT / ".github" / "workflows" / "tests.yml"
    for line in workflow.read_text().splitlines():
        indent = len(line) - len(line.lstrip())
        if run_indent is not None and line.strip() and indent <= run_indent:
            run_indent = None
        if line.strip() == "run: |":
            run_indent = indent
        if run_indent is None or indent == run_indent:
            continue
        defined = re.match(r"\s*(\w+)\(\) \{", line)
        name = defined.group(1) if defined else name
        words = shell_words(line)
        if "$@" in words and "relfork.cli" in words:
            at, cli_at = words.index("$@"), words.index("relfork.cli")
            suffix = until_operator(words[at + 1 :])
            templates[name] = (words[cli_at + 1 : at], suffix, "shift" in words)
        elif "$@" in words or defined:
            continue
        elif words and words[0] in templates:
            prefix, suffix, shift = templates[words[0]]
            argvs.append(literal(prefix + until_operator(words[1 + shift :]) + suffix))
        elif (args := relfork_args(words)) is not None:
            argvs.append(literal(args))
    return argvs


def readme_argvs():
    """The argv of every command in the README's command-line examples."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", text, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("relfork ")]
    return [relfork_args(shell_words(line)) for line in lines]


def workload_argvs(tmp_path, monkeypatch):
    """The argv of every benchmark job, as perfbench/run.py hands them to the CLI."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclass looks its module up
    spec.loader.exec_module(workloads)
    return [
        ["--format", "json", *job.argv]
        for size in ("tiny", "full")
        for workload in workloads.WORKLOADS
        for job in workloads.build_jobs(workload, 11, size, str(tmp_path))
    ]


# Flags, values and words from every corner of argparse's grammar.
FLAG_TOKENS = (
    "--model", "--star", "--config", "--S", "--t", "--s", "--suite", "--sampled", "--seed",
    "--trials", "--formula", "--bind", "--window", "--out", "--format",
    "-h", "--help", "--", "--st", "--se", "--model=full:2", "--window=5", "--format=json",
)
VALUE_TOKENS = (
    "text", "json", "basic", "tree", "pi", "rho", "seq", "cfa", "cfau", "cr_tarski",
    "cr_equational", "check", "full:2", "1,2", "bin nil nil", "x = x",
    "0", "1", "5", "64", "007", "9" * 5000, "-5", "-x", "a b", "", "\u0663", "-h", "--", "--s",
)
# A good value for each required option, so that accepted argv are common.
REQUIRED = {"check": ["--suite", "cfa"], "eval": ["--formula", "x = x"], "export": ["--model", "a"]}


@st.composite
def table_argvs(draw):
    formats = [[], ["--format", "json"], ["--format", "text"], ["--format", "xml"]]
    argv = draw(st.sampled_from(formats))
    command = draw(st.sampled_from([*COMMAND_WORDS, "nope"]))
    argv.append(command)
    if draw(st.booleans()):
        argv += REQUIRED.get(command, [])
    token = st.sampled_from(FLAG_TOKENS + VALUE_TOKENS)
    pair = st.tuples(st.sampled_from(FLAG_TOKENS), st.sampled_from(VALUE_TOKENS)).map(list)
    for item in draw(st.lists(st.one_of(token.map(lambda t: [t]), pair), max_size=4)):
        argv += item
    return argv


class TestOptionTable:
    """The table parser takes the usual argv and leaves the rest to argparse,
    whose parser, built from the same table, is the one written out in
    ``helpers.reference_parser``."""

    @settings(max_examples=300, deadline=None)
    @given(argv=table_argvs())
    def test_agrees_with_the_reference_parser(self, argv):
        want = parse_outcome(reference_parser(), argv)
        assert parse_outcome(cli.build_parser(), argv) == want
        table = cli._parse_table(argv)
        event("table" if table is not None else "argparse")
        if table is not None:
            assert vars(table) == want

    @pytest.mark.parametrize("source", ["workloads", "readme", "ci"])
    def test_usual_argv_take_the_table_path(self, source, tmp_path, monkeypatch):
        if source == "workloads":
            argvs = workload_argvs(tmp_path, monkeypatch)
        else:
            argvs = readme_argvs() if source == "readme" else ci_argvs()
        assert len(argvs) >= {"workloads": 50, "readme": 10, "ci": 70}[source]
        # Only the CI's usage refusals are argparse's to print.
        refused = []
        for argv in argvs:
            want = parse_outcome(reference_parser(), argv)
            table = cli._parse_table(argv)
            if isinstance(want, dict):
                assert table is not None and vars(table) == want, argv
            else:
                assert table is None and want[0] == 2
                refused.append(argv)
        assert len(refused) == (4 if source == "ci" else 0)

    @pytest.mark.parametrize("command", [None, *COMMAND_WORDS])
    def test_help_is_the_reference_help(self, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if command is None else [command, "--help"]
        want = parse_outcome(reference_parser(), argv)
        assert want[0] == 0 and want[1].startswith("usage: relfork")
        assert parse_outcome(cli.build_parser(), argv) == want


class TestProcessEntry:
    """``run`` is the process entry: ``main`` with the collector off, then ``os._exit``."""

    @pytest.fixture
    def exits(self, monkeypatch):
        """The codes handed to ``os._exit``, which returns instead; the
        collector is restored to its state before the test."""
        codes = []
        monkeypatch.setattr(os, "_exit", codes.append)
        enabled = gc.isenabled()
        yield codes
        if enabled:
            gc.enable()

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("golden, exit_code, argv", PINNED.values(), ids=PINNED.keys())
    def test_fresh_process_prints_the_golden_bytes(self, golden, exit_code, argv, fmt, suffix):
        code, out, _ = run_fresh(["--format", fmt, *argv], cwd=GOLDEN)
        assert code == exit_code
        assert out.encode("utf-8") == (GOLDEN / f"{golden}.{suffix}").read_bytes()

    @pytest.mark.parametrize("outcome", [0, 1, 2, SystemExit(2)], ids=["0", "1", "2", "exit"])
    def test_exits_with_mains_code(self, monkeypatch, exits, outcome):
        collector = []

        def fake_main():
            collector.append(gc.isenabled())
            if isinstance(outcome, SystemExit):
                raise outcome
            return outcome

        monkeypatch.setattr(cli, "main", fake_main)
        gc.enable()
        cli.run()
        assert collector == [False]
        assert exits == [outcome.code if isinstance(outcome, SystemExit) else outcome]

    class FailingStream:
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_a_failed_flush_keeps_the_code(self, monkeypatch, exits, stream):
        monkeypatch.setattr(cli, "main", lambda: 1)
        monkeypatch.setattr(sys, stream, self.FailingStream())
        cli.run()
        assert exits == [1]

    @pytest.mark.parametrize(
        "want, argv",
        [
            (0, ["eval", "--model", "full:1", "--formula", "1 = 1"]),
            (1, ["eval", "--model", "full:1", "--formula", "1 = 0"]),
            (2, ["eval", "--model", "full:1", "--formula", "x = 0"]),
            (2, ["fix", "--no-such-flag"]),
        ],
        ids=["true", "false", "usage-error", "argparse-refusal"],
    )
    def test_main_never_freezes(self, capsys, monkeypatch, exits, want, argv):
        # Nor does it touch the collector or exit the process: tests and
        # the traced benchmark call it many times in one process.
        monkeypatch.setattr(gc, "freeze", lambda: pytest.fail("main froze the heap"))
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert run_to_exit(capsys, *argv)[0] == want
            assert gc.isenabled() is enabled
        assert exits == []

    def test_no_command_registers_an_atexit_handler(self):
        # os._exit skips them; a fresh process counts them around the
        # imports and runs of every command, on both kinds of target.
        script = "\n".join([
            "import atexit, contextlib, io, json, sys",
            "before = atexit._ncallbacks()",
            "from relfork.cli import main",
            "for argv in json.loads(sys.argv[1]):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0, argv",
            "sys.exit(atexit._ncallbacks() - before)",
        ])
        commands = [
            ["check", "--star", "basic", "--S", "1,2", "--suite", "cfa"],
            ["check", "--model", "full:2", "--suite", "cr_tarski", "--sampled", "10"],
            ["eval", "--model", "full:2", "--formula", "1 = 1"],
            ["eval", "--star", "tree", "--S", "1", "--t", "bin nil nil", "--formula", "pi = pi"],
            ["fix", "--star", "seq", "--S", "1", "--s", "pi"],
            ["build", "--star", "rho", "--S", "1"],
            ["export", "--model", "full:1"],
        ]
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            env=fresh_env(), stderr=subprocess.PIPE, timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()

    @pytest.mark.filterwarnings("ignore:'relfork.cli' found in sys.modules:RuntimeWarning")
    def test_module_entry_runs_through_run(self, capsys, monkeypatch, exits):
        monkeypatch.setattr(sys, "argv", ["relfork", "eval", "--model", "full:1", "--formula", "1 = 0"])
        runpy.run_module("relfork.cli", run_name="__main__")
        assert exits == [1] and not gc.isenabled()
        assert capsys.readouterr().out == "1 = 0  [exact]\nfalse\n"

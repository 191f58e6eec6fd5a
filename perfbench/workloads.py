"""Job lists of the three benchmark workloads and their known answers.

Every expected result here is written from the mathematics of the
models, never recorded from the program:

* a full proper relation algebra satisfies every ``cr_tarski`` and
  ``cr_equational`` axiom;
* a direct product of two non-trivial algebras satisfies every axiom
  except Tarski's simplicity axiom ``x;1 = 1 \\/ 1;~x = 1``;
* an exhaustive pass checks ``|carrier| ** vars`` assignments, a
  sampled pass with K samples checks K;
* each construction pins its controlled fixpoints to exactly S, so a
  scan of ``[0, W)`` finds ``S`` restricted to the window;
* every kind passes ``cfa``; ``cfau`` fails only on ``basic``, which is
  bijective and so has no urelement;
* ``pi # rho`` is the identity on non-urelements, so ``pi # rho = 1'``
  and ``~(pi # rho) = 0'`` hold on a window exactly when the window holds
  no urelement (true for ``basic``; every other kind leaves the first
  residual element of block 0 outside the range of star, and that
  element is at most ``|S|``); urelements have no projections, so
  ``1u;1 <= ~(pi;1)`` holds in every model.

A reported counterexample is re-checked by the pair-set evaluator at
the end of this file, which shares no code with the program.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

Pair = Tuple[int, int]

WORKLOADS = ("finite-check", "fixpoint-scan", "fork-models")
# The unit of work_per_s differs by workload; this is its name in each.
RATE_NAMES = {
    "finite-check": "assignments_per_s",
    "fixpoint-scan": "scan_elems_per_s",
    "fork-models": "window_cells_per_s",
}

# Axiom texts with their number of distinct variables, by suite.
CR_TARSKI = (
    ("x + y = y + x", 2),
    ("x + (y + z) = (x + y) + z", 3),
    ("~(~x + ~y) + ~(~x + y) = x", 2),
    ("(x = y /\\ x = z) -> y = z", 3),
    ("x = y -> (x + z = y + z /\\ x & z = y & z)", 3),
    ("x + y = y + x /\\ x & y = y & x", 2),
    ("x + (y & z) = (x + y) & (x + z) /\\ x & (y + z) = (x & y) + (x & z)", 3),
    ("x + 0 = x /\\ x & 1 = x", 1),
    ("x + ~x = 1 /\\ x & ~x = 0", 1),
    ("~1 = 0", 0),
    ("x^^ = x", 1),
    ("(x;y)^ = y^;x^", 2),
    ("x;(y;z) = (x;y);z", 3),
    ("x;1' = x", 1),
    ("x;1 = 1 \\/ 1;~x = 1", 1),
    ("(x;y) & z^ = 0 -> (y;z) & x^ = 0", 3),
)
CR_EQUATIONAL = (
    ("x;(y;z) = (x;y);z", 3),
    ("(x + y);z = x;z + y;z", 3),
    ("(x + y)^ = x^ + y^", 2),
    ("x^^ = x", 1),
    ("x;1' = x", 1),
    ("(x;y)^ = y^;x^", 2),
    ("(x;y) & z <= (x & (z;y^));(y & (x^;z))", 3),
)
SUITES = {"cr_tarski": CR_TARSKI, "cr_equational": CR_EQUATIONAL}
SIMPLICITY = "x;1 = 1 \\/ 1;~x = 1"

KINDS = ("basic", "tree", "pi", "rho", "seq")
CONTROLS = {"tree": "bin (bin nil nil) nil", "seq": "pi.rho"}
CFA_NAMES = ("cfa1", "cfa2", "cfa3")

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is
# the harness self-check and only has to exercise every job type.
SIZES = {
    "full": {
        "full3_tarski_k": 4000,
        "full3_equational_k": 6000,
        "exhaustive_base": 2,
        "fail_product": (2, 1),
        "sampled_product": (2, 2),
        "sampled_product_k": 1500,
        "fix_members": 512,
        "fix_window": 1 << 14,
        "cfa_members": 4,
        "cfa_trials": 200,
        "witness_window": 4096,
        "predicate_eq_window": 400,
        "predicate_leq_window": 500,
    },
    "tiny": {
        "full3_tarski_k": 40,
        "full3_equational_k": 40,
        "exhaustive_base": 1,
        "fail_product": (1, 1),
        "sampled_product": (1, 1),
        "sampled_product_k": 40,
        "fix_members": 16,
        "fix_window": 256,
        "cfa_members": 3,
        "cfa_trials": 10,
        "witness_window": 128,
        "predicate_eq_window": 40,
        "predicate_leq_window": 40,
    },
}


@dataclass
class Job:
    """One CLI run: its arguments, its set-up target and its known answer."""

    name: str
    argv: List[str]
    target: Dict
    kind: str  # check-model | fix | check-star | eval
    expect: Dict = field(default_factory=dict)
    work: int = 0  # scanned elements or window cells; checks count their payload
    setup_size: Optional[int] = None  # carrier size the set-up probe reports


def _star_args(config: Dict) -> List[str]:
    args = ["--star", config["kind"], "--S", ",".join(map(str, config["S"]))]
    if config["kind"] == "tree":
        args += ["--t", config["control"]]
    elif config["kind"] == "seq":
        args += ["--s", config["control"]]
    return args


def _star_config(kind: str, members: Sequence[int]) -> Dict:
    config = {"kind": kind, "S": sorted(members)}
    if kind in CONTROLS:
        config["control"] = CONTROLS[kind]
    return config


# ---------------------------------------------------------------------------
# Product models, written by the benchmark itself


def _full_square(offset: int, n: int) -> List[Pair]:
    return [(offset + a, offset + b) for a in range(n) for b in range(n)]


def product_carrier(n1: int, n2: int) -> List[FrozenSet[Pair]]:
    """Carrier of full_pra(n1) x full_pra(n2) on the disjoint union of bases."""
    squares = (_full_square(0, n1), _full_square(n1, n2))
    parts = []
    for square in squares:
        subsets = []
        for code in range(1 << len(square)):
            subsets.append(frozenset(p for i, p in enumerate(square) if code >> i & 1))
        parts.append(subsets)
    return [a | b for a in parts[0] for b in parts[1]]


def write_product_model(path: str, n1: int, n2: int, rng: random.Random) -> int:
    """Write the product model as a model file; returns its carrier size."""
    carrier = [sorted(rel) for rel in product_carrier(n1, n2)]
    rng.shuffle(carrier)
    data = {
        "base_size": n1 + n2,
        "full": False,
        "carrier": [[list(p) for p in rel] for rel in carrier],
        "unit": [list(p) for p in _full_square(0, n1) + _full_square(n1, n2)],
        "identity": "auto",
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return len(carrier)


# ---------------------------------------------------------------------------
# Workload job lists


def _check_model_job(name, model, suite, carrier_size, sampled=None, seed=None, product=None):
    """A check of one suite on a finite model; a product fails only simplicity."""
    argv = ["check", "--model", model, "--suite", suite]
    if sampled is not None:
        argv += ["--sampled", str(sampled), "--seed", str(seed)]
    fails = (SIMPLICITY,) if product and suite == "cr_tarski" else ()
    axioms = []
    for text, nvars in SUITES[suite]:
        checked = sampled if sampled is not None else carrier_size ** nvars
        axioms.append({"axiom": text, "valid": text not in fails, "checked": checked})
    expect = {"axioms": axioms, "exit": 1 if fails else 0}
    if fails:
        expect["product"] = product
    target = {"full": int(model[5:])} if model.startswith("full:") else {"model": model}
    return Job(name, argv, target, "check-model", expect, setup_size=carrier_size)


def finite_check_jobs(seed: int, size: Dict, workdir: str) -> List[Job]:
    rng = random.Random(f"finite-check/{seed}")
    n = size["exhaustive_base"]
    fail_path = os.path.join(workdir, "product_fail.json")
    sampled_path = os.path.join(workdir, "product_sampled.json")
    fail_size = write_product_model(fail_path, *size["fail_product"], rng)
    sampled_size = write_product_model(sampled_path, *size["sampled_product"], rng)
    return [
        _check_model_job(
            "full3-tarski-sampled", "full:3", "cr_tarski", 512,
            size["full3_tarski_k"], rng.randrange(1 << 31),
        ),
        _check_model_job(
            "full3-equational-sampled", "full:3", "cr_equational", 512,
            size["full3_equational_k"], rng.randrange(1 << 31),
        ),
        _check_model_job(f"full{n}-tarski-exhaustive", f"full:{n}", "cr_tarski", 1 << (n * n)),
        _check_model_job(
            f"full{n}-equational-exhaustive", f"full:{n}", "cr_equational", 1 << (n * n)
        ),
        _check_model_job(
            "product-tarski-exhaustive", fail_path, "cr_tarski", fail_size,
            product=size["fail_product"],
        ),
        _check_model_job(
            "product-equational-sampled", sampled_path, "cr_equational", sampled_size,
            size["sampled_product_k"], rng.randrange(1 << 31), product=size["sampled_product"],
        ),
    ]


def fixpoint_scan_jobs(seed: int, size: Dict, workdir: str) -> List[Job]:
    rng = random.Random(f"fixpoint-scan/{seed}")
    window = size["fix_window"]
    jobs = []
    for kind in KINDS:
        members = rng.sample(range(2 * window), size["fix_members"])
        config = _star_config(kind, members)
        jobs.append(
            Job(
                name=f"fix-{kind}",
                argv=["fix"] + _star_args(config) + ["--window", str(window)],
                target={"star": config},
                kind="fix",
                expect={
                    "window": window,
                    "candidates": config["S"],
                    "fixpoints": [u for u in config["S"] if u < window],
                },
                work=window,
            )
        )
    return jobs


def fork_models_jobs(seed: int, size: Dict, workdir: str) -> List[Job]:
    rng = random.Random(f"fork-models/{seed}")
    configs = {
        kind: _star_config(kind, rng.sample(range(12), size["cfa_members"])) for kind in KINDS
    }
    jobs = []
    for suite in ("cfa", "cfau"):
        for kind in KINDS:
            names = CFA_NAMES + (("cfau",) if suite == "cfau" else ())
            failing = {"cfau"} if kind == "basic" else set()
            jobs.append(
                Job(
                    name=f"{suite}-{kind}",
                    argv=["check"] + _star_args(configs[kind]) + [
                        "--suite", suite,
                        "--trials", str(size["cfa_trials"]),
                        "--seed", str(rng.randrange(1 << 31)),
                    ],
                    target={"star": configs[kind]},
                    kind="check-star",
                    expect={
                        "results": {name: name not in failing for name in names},
                        "exit": 1 if failing & set(names) else 0,
                    },
                )
            )
    evals = (
        ("witness-basic", "basic", "pi # rho = 1'", size["witness_window"], True),
        ("witness-tree", "tree", "pi # rho = 1'", size["witness_window"], False),
        ("predicate-eq-basic", "basic", "~(pi # rho) = 0'", size["predicate_eq_window"], True),
        ("predicate-leq-tree", "tree", "1u;1 <= ~(pi;1)", size["predicate_leq_window"], True),
    )
    for name, kind, formula, window, value in evals:
        jobs.append(
            Job(
                name=f"eval-{name}",
                argv=["eval"] + _star_args(configs[kind]) + [
                    "--formula", formula, "--window", str(window),
                ],
                target={"star": configs[kind]},
                kind="eval",
                expect={"value": value, "exit": 0 if value else 1, "window": window},
                work=window * window,
            )
        )
    return jobs


def build_jobs(workload: str, seed: int, size_name: str, workdir: str) -> List[Job]:
    builders = {
        "finite-check": finite_check_jobs,
        "fixpoint-scan": fixpoint_scan_jobs,
        "fork-models": fork_models_jobs,
    }
    return builders[workload](seed, SIZES[size_name], workdir)


# ---------------------------------------------------------------------------
# Verdict checks


def check_job(job: Job, code: int, stdout: bytes, stderr: bytes) -> List[str]:
    """Problems with one job's outcome; empty when it matches the known answer."""
    if b"Traceback" in stderr:
        return ["traceback on stderr"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"stdout is not JSON (exit {code})"]
    checkers = {
        "check-model": _check_model_payload,
        "fix": _check_fix_payload,
        "check-star": _check_star_payload,
        "eval": _check_eval_payload,
    }
    problems = checkers[job.kind](job, payload)
    expected_exit = job.expect.get("exit", 0)
    if code != expected_exit:
        problems.append(f"exit {code}, expected {expected_exit}")
    return problems


def _check_model_payload(job: Job, payload: Dict) -> List[str]:
    problems = []
    results = payload.get("results", [])
    expected = job.expect["axioms"]
    if [r.get("axiom") for r in results] != [a["axiom"] for a in expected]:
        return ["axiom list differs from the suite"]
    for got, want in zip(results, expected):
        if got["valid"] != want["valid"]:
            problems.append(f"{want['axiom']}: valid={got['valid']}")
        elif want["valid"] and got["checked"] != want["checked"]:
            problems.append(
                f"{want['axiom']}: checked {got['checked']}, expected {want['checked']}"
            )
        elif not want["valid"]:
            problems += _check_counterexample(job, got)
    if payload.get("all_valid") != all(a["valid"] for a in expected):
        problems.append("all_valid disagrees with the axiom verdicts")
    return problems


def _check_counterexample(job: Job, entry: Dict) -> List[str]:
    """The simplicity counterexample must be the first failing carrier element."""
    n1, n2 = job.expect["product"]
    unit = frozenset(_full_square(0, n1) + _full_square(n1, n2))
    cx = entry.get("counterexample") or {}
    if set(cx) != {"x"}:
        return ["counterexample does not bind exactly x"]
    x = frozenset(tuple(p) for p in cx["x"])
    order = sorted(product_carrier(n1, n2), key=lambda rel: _rows(rel, n1 + n2))
    failing = [i for i, rel in enumerate(order) if not simplicity_holds(rel, unit)]
    if not failing or order[failing[0]] != x:
        return ["counterexample is not the first failing assignment"]
    if entry["checked"] != failing[0] + 1:
        return [f"checked {entry['checked']} assignments, expected {failing[0] + 1}"]
    return []


def _check_fix_payload(job: Job, payload: Dict) -> List[str]:
    problems = []
    for key in ("window", "candidates", "fixpoints"):
        if payload.get(key) != job.expect[key]:
            problems.append(f"{key} differs from the known answer")
    if payload.get("matches_candidates") is not True:
        problems.append("matches_candidates is not true")
    return problems


def _check_star_payload(job: Job, payload: Dict) -> List[str]:
    got = {r.get("name"): r.get("passed") for r in payload.get("results", [])}
    problems = []
    if got != job.expect["results"]:
        problems.append(f"axiom verdicts {got}, expected {job.expect['results']}")
    if payload.get("all_valid") != all(job.expect["results"].values()):
        problems.append("all_valid disagrees with the axiom verdicts")
    return problems


def _check_eval_payload(job: Job, payload: Dict) -> List[str]:
    problems = []
    if payload.get("value") is not job.expect["value"]:
        problems.append(f"value {payload.get('value')}, expected {job.expect['value']}")
    if payload.get("mode") != f"window[0,{job.expect['window']})":
        problems.append(f"mode {payload.get('mode')!r}")
    return problems


# ---------------------------------------------------------------------------
# Independent pair-set evaluator for the counterexample check


def _rows(rel: FrozenSet[Pair], n: int) -> Tuple[int, ...]:
    """Row-bitmask tuple: the documented canonical carrier order."""
    rows = [0] * n
    for a, b in rel:
        rows[a] |= 1 << b
    return tuple(rows)


def compose_pairs(r: FrozenSet[Pair], s: FrozenSet[Pair]) -> FrozenSet[Pair]:
    return frozenset((a, c) for a, b in r for b2, c in s if b == b2)


def simplicity_holds(x: FrozenSet[Pair], unit: FrozenSet[Pair]) -> bool:
    """x;1 = 1 or 1;~x = 1, with 1 the unit and ~ the complement in it."""
    return compose_pairs(x, unit) == unit or compose_pairs(unit, unit - x) == unit

"""In-process micro-benchmarks of single layers, through public functions.

Usage: ``python perfbench/micro.py SEED``; prints one JSON object of
metric name to value.  ``ROADMAP_FIGURES`` holds the baseline the
project's roadmap recorded for the same measurements (2 vCPU, Python
3.11.7), so that a run can say where it differs by more than 1.5x.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from relfork import (
    ForkBackend,
    build_star_basic,
    build_star_tree,
    check_formula,
    eval_term,
    full_pra,
    parse_formula,
    parse_term,
    parse_tree,
    window,
)

CLOCK = time.perf_counter

ROADMAP_FIGURES = {
    "relcore.union.us": 3.6,
    "relcore.compose.us": 2.3,
    "terms.modular_law.us_per_assignment": 18.0,
    "constructions.tree_star.us.S5": 2.0,
    "constructions.tree_star.us.S64": 4.0,
    "constructions.tree_star.us.S512": 25.7,
    "forkmodel.window_witness_4096.ms": 8.0,
    "forkmodel.window_predicate_1000.ms": 2300.0,
}

MODULAR_LAW = "(x;y) & z <= (x & (z;y^));(y & (x^;z))"
CONTROL = "bin (bin nil nil) nil"


def per_call(fn, calls: int, repeats: int) -> float:
    """Median seconds per call of fn() over the repeats."""
    times = []
    for _ in range(repeats):
        start = CLOCK()
        for _ in range(calls):
            fn()
        times.append((CLOCK() - start) / calls)
    return statistics.median(times)


def relcore_ops(rng: random.Random) -> dict:
    carrier = full_pra(3).carrier
    pairs = [(rng.choice(carrier), rng.choice(carrier)) for _ in range(64)]
    for r, s in pairs:
        r.compose(s)  # fill the composition cache: the figure is a cache hit

    def unions():
        for r, s in pairs:
            r.union(s)

    def composes():
        for r, s in pairs:
            r.compose(s)

    return {
        "relcore.union.us": per_call(unions, 200, 5) / len(pairs) * 1e6,
        "relcore.compose.us": per_call(composes, 200, 5) / len(pairs) * 1e6,
    }


def modular_law(rng: random.Random) -> dict:
    model = full_pra(3)
    formula = parse_formula(MODULAR_LAW)
    k = 3000
    times = []
    for _ in range(3):
        start = CLOCK()
        report = check_formula(formula, model, strategy=("sampled", k), seed=rng.randrange(1 << 31))
        times.append(CLOCK() - start)
        if not report.valid or report.checked != k:
            raise SystemExit("modular law failed on full_pra(3)")
    return {"terms.modular_law.us_per_assignment": statistics.median(times) / k * 1e6}


def tree_star(rng: random.Random) -> dict:
    out = {}
    control = parse_tree(CONTROL)
    grid = [(u, v) for u in range(40) for v in range(40)]
    scan = range(2000)
    for n in (5, 64, 512):
        members = rng.sample(range(2 * n), n)
        pf = build_star_tree(control, members)
        star, unstar = pf.star, pf.unstar

        def stars():
            for u, v in grid:
                star(u, v)

        def unstars():
            for w in scan:
                unstar(w)

        out[f"constructions.tree_star.us.S{n}"] = per_call(stars, 1, 5) / len(grid) * 1e6
        if n != 64:
            out[f"constructions.unstar.us.S{n}"] = per_call(unstars, 1, 5) / len(scan) * 1e6
    return out


def windows(rng: random.Random) -> dict:
    backend = ForkBackend(build_star_basic(rng.sample(range(12), 4)))
    witness = eval_term(parse_term("pi # rho"), {}, backend)
    predicate = eval_term(parse_term("~(pi # rho)"), {}, backend)
    return {
        "forkmodel.window_witness_4096.ms": per_call(lambda: window(witness, 4096), 1, 3) * 1e3,
        "forkmodel.window_predicate_1000.ms": per_call(lambda: window(predicate, 1000), 1, 1)
        * 1e3,
    }


def notes(metrics: dict) -> list:
    """Measurements that differ from the roadmap baseline by more than 1.5x."""
    out = []
    for name, figure in sorted(ROADMAP_FIGURES.items()):
        ratio = metrics[name] / figure
        if not 1 / 1.5 <= ratio <= 1.5:
            out.append(f"{name} = {metrics[name]:.4g}, {ratio:.2f}x the roadmap figure {figure:g}")
    return out


def main(argv) -> int:
    rng = random.Random(f"micro/{argv[0]}")
    metrics = {}
    for bench in (relcore_ops, modular_law, tree_star, windows):
        metrics.update(bench(rng))
    print(json.dumps({"metrics": metrics, "notes": notes(metrics)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

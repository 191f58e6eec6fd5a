"""Run ``relfork.cli`` with spans and counters wrapped around its layers.

Usage: ``python perfbench/traced_cli.py TRACE_OUT JOB_ID CLI_ARG...``

The wrappers are installed from outside: the module attributes and
class methods the CLI reaches are replaced before ``main`` runs, and
nothing under ``src/`` changes.  Coarse functions (one call per axiom,
scan, window or model) record a span each: name, start, end, parent
span and job id.  Hot functions (``FiniteRelation`` operations,
``star``/``unstar``, ``tree_map``) are too frequent to keep a span per
call, so they only add to per-name call counts and busy time.  Both
kinds subtract their duration from the enclosing call, which gives each
name its self time.  Everything stays in memory and is written to
TRACE_OUT as JSON when the CLI returns.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict

CLOCK = time.perf_counter


class Tracer:
    """Spans, per-name call statistics and counters of one process."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans = []  # [name, start, end, parent, job]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        # One frame per open wrapped call: [time covered by children, span id].
        self.frames = [[0.0, -1]]

    def wrap(self, name, fn, span=False, on_call=None):
        frames, spans = self.frames, self.spans
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        job_id = self.job_id

        def wrapped(*args, **kwargs):
            parent = frames[-1][1]
            span_id = parent
            if span:
                span_id = len(spans)
                spans.append([name, 0.0, 0.0, parent, job_id])
            frame = [0.0, span_id]
            frames.append(frame)
            start = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = CLOCK()
                frames.pop()
                duration = end - start
                frames[-1][0] += duration
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                if span:
                    spans[span_id][1] = start
                    spans[span_id][2] = end
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def patch(self, owner, attr, name, span=False, on_call=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), span, on_call))

    def dump(self, path: str, extra: dict) -> None:
        data = {
            "job": self.job_id,
            "spans": self.spans,
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
        data.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


def _region_size(args) -> int:
    return next(len(a) for a in args if isinstance(a, range))


def _window_path(rel) -> str:
    if rel.support_hint is not None:
        return "support"
    if rel.witnesses is not None:
        return "witness"
    return "predicate"


def install(tracer: Tracer) -> None:
    """Wrap the public functions the CLI reaches, in the modules it reads them from."""
    from relfork import cli, constructions, forkmodel, relcore, terms

    counts = tracer.counts

    def count_assignments(args, kwargs, report):
        counts["terms.check_formula.assignments"] += report.checked

    tracer.patch(
        terms, "check_formula", "terms.check_formula", span=True, on_call=count_assignments
    )
    tracer.patch(terms, "parse_formula", "terms.parse_formula", span=True)
    tracer.patch(terms, "eval_term", "terms.eval_term", span=True)

    rel = relcore.FiniteRelation
    for method in ("compose", "converse", "union", "meet", "complement_in", "is_subset"):
        tracer.patch(rel, method, f"relcore.{method}")
    rel.from_pairs = classmethod(
        tracer.wrap("relcore.from_pairs", rel.from_pairs.__func__, span=True)
    )
    tracer.patch(relcore, "full_pra", "relcore.full_pra", span=True)
    tracer.patch(relcore, "load_model", "relcore.load_model", span=True)

    build = constructions.build_from_config

    def traced_build(config):
        pf = build(config)
        return dataclasses.replace(
            pf,
            star=tracer.wrap("constructions.star", pf.star),
            unstar=tracer.wrap("constructions.unstar", pf.unstar),
        )

    constructions.build_from_config = tracer.wrap(
        "constructions.build_from_config", traced_build, span=True
    )
    tracer.patch(constructions, "parse_tree", "btree.parse_tree", span=True)
    tracer.patch(constructions, "parse_seq", "seqs.parse_seq", span=True)

    def count_scan(args, kwargs, result):
        counts["forkmodel.fix_scan.elems"] += _region_size(args)

    for scan in ("fix_members", "fix_tree_members", "fix_proj_members", "fix_seq_members"):
        tracer.patch(forkmodel, scan, "forkmodel.fix_scan", span=True, on_call=count_scan)
    tracer.patch(forkmodel, "tree_map", "btree.tree_map")

    window = forkmodel.window

    def traced_window(rel, n, *args, **kwargs):
        counts[f"forkmodel.window.calls.{_window_path(rel)}"] += 1
        counts["forkmodel.window.cells"] += n * n
        return window(rel, n, *args, **kwargs)

    forkmodel.window = tracer.wrap("forkmodel.window", traced_window, span=True)

    def count_trials(args, kwargs, report):
        counts["forkmodel.cfa_axiom_check.trials"] += kwargs.get("trials", 200)

    tracer.patch(
        forkmodel, "cfa_axiom_check", "forkmodel.cfa_axiom_check", span=True,
        on_call=count_trials,
    )
    tracer.patch(cli, "main", "cli.main", span=True)


def _cache_counts() -> dict:
    """Hits and misses of relcore's composition cache, when it has one."""
    from relfork import relcore

    info = getattr(getattr(relcore, "_compose_rows", None), "cache_info", None)
    if info is None:
        return {}
    stats = info()
    return {"relcore.compose_cache.hits": stats.hits, "relcore.compose_cache.misses": stats.misses}


def main(argv) -> int:
    trace_out, job_id, cli_args = argv[0], int(argv[1]), argv[2:]
    started = CLOCK()
    import relfork.cli

    import_s = CLOCK() - started
    tracer = Tracer(job_id)
    install(tracer)
    code = 2
    try:
        code = relfork.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        tracer.counts.update(_cache_counts())
        tracer.dump(trace_out, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

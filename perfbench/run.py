"""End-to-end benchmark of the relfork CLI, with a traced per-layer run.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Each workload is a closed loop with one client: its job list runs back
to back, one fresh ``python -m relfork.cli --format json ...`` process
per job, so every job pays interpreter start, import, target set-up
and cold ``relcore`` caches as a user does.  ``--seed`` derives the
member sets and the ``--seed`` values the jobs receive; the product
model files are written into ``perfbench/_out/work`` first.

``--trace 0`` measures set-up (three rounds of fresh processes that only
build each distinct target; the median per target, summed over the
jobs) and then repeats passes over the job list for ``--seconds``, at
least two.  The fixed program ``reference.py`` runs just before every
timed process; each time is taken relative to that run and reported in
seconds at the reference's nominal speed (see ``measure``).  A pass is
the sum of each job's median over the passes, and the rate uses the same
medians.
``--trace 1`` alternates two untraced and two traced passes (through
``traced_cli.py``), runs the micro-benchmarks of ``micro.py`` and
reports per-layer metrics.  Every job's verdict is checked against a
known answer (``workloads.py``) and the stdout digests of all passes
must agree.  The last stdout line is the JSON result whose metric names
and units are those of ``BENCHMARK.json``; the full report also goes
to ``perfbench/_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
CLOCK = time.perf_counter

JOB_TIMEOUT_S = 150
SETUP_ROUNDS = 3
MIN_PASSES = 2
TRACE_PAIRS = 2
LAYERS = ("process", "cli", "terms", "relcore", "forkmodel", "constructions", "btree", "seqs")


@dataclass
class Outcome:
    """Outcome of one process: exit code, wall time, peak RSS and output,
    and the wall time of the reference run just before it, if any."""

    code: int
    wall: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    ref_s: Optional[float] = None


def spawn(argv, env, tag: str) -> "Outcome":
    """Run one process to completion; its own rusage gives the peak RSS."""
    out_path, err_path = OUT / "stdout" / f"{tag}.out", OUT / "stdout" / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = CLOCK()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = CLOCK() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        proc.returncode, wall, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes()
    )


def child_env() -> dict:
    """The caller's environment with src/ on the path and bytecode caching
    on, so that after the warm-up import every job loads relfork from
    __pycache__ as an installed package would."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Passes


def spawn_gauged(argv, env, tag: str) -> "Outcome":
    """spawn() after one run of the reference program, whose wall time the
    outcome keeps as ref_s."""
    ref = spawn([sys.executable, str(HERE / "reference.py")], env, f"{tag}-ref")
    if ref.code != 0 or ref.stdout != f"{reference.CHECKSUM}\n".encode():
        raise RuntimeError(f"reference program failed: {ref.stderr[-500:]!r}")
    outcome = spawn(argv, env, tag)
    outcome.ref_s = ref.wall
    return outcome


def run_pass(jobs, env, label: str, trace_dir=None, gauged=False):
    """Run the job list back to back; returns the pass wall time and outcomes.
    When gauged, the reference program runs before every job."""
    outcomes = []
    start = CLOCK()
    for i, job in enumerate(jobs):
        cli = ["--format", "json"] + job.argv
        if trace_dir is None:
            argv = [sys.executable, "-m", "relfork.cli"] + cli
        else:
            trace_out = str(trace_dir / f"{i}.json")
            argv = [sys.executable, str(HERE / "traced_cli.py"), trace_out, str(i)] + cli
        outcomes.append((spawn_gauged if gauged else spawn)(argv, env, f"{label}-{i}"))
    return CLOCK() - start, outcomes


def verify(jobs, outcomes, label: str, problems: list) -> list:
    """Check every verdict; returns the per-job stdout digests."""
    digests = []
    for job, outcome in zip(jobs, outcomes):
        for problem in workloads.check_job(job, outcome.code, outcome.stdout, outcome.stderr):
            problems.append((f"{label} {job.name}", problem))
        digests.append(hashlib.sha256(outcome.stdout).hexdigest())
    return digests


def job_work(job, outcome) -> int:
    if job.kind != "check-model":
        return job.work
    try:
        return sum(r["checked"] for r in json.loads(outcome.stdout)["results"])
    except (ValueError, KeyError, TypeError):
        return 0


def pass_metrics(jobs, wall, outcomes) -> dict:
    """Figures of one pass, kept in the report; elapsed_s includes the
    reference runs."""
    return {
        "elapsed_s": wall,
        "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024,
        "work": sum(job_work(job, o) for job, o in zip(jobs, outcomes)),
        "job_wall_s": [o.wall for o in outcomes],
        "job_ref_s": [o.ref_s for o in outcomes],
    }


def measure_setup(jobs, env, rounds: int):
    """Set-up cost of the job list: the summed wall time of fresh processes
    that only build each job's target.  Jobs that share a target share its
    probe; each distinct target is built once per round, and its median
    over the rounds counts once per job that uses it.  Returns the sum in
    seconds and in reference runs (see measure), and every probe's times."""
    targets = {json.dumps(job.target, sort_keys=True): job for job in jobs}
    probes = defaultdict(list)  # target -> [(wall, reference wall)]
    for r in range(rounds):
        for i, (key, job) in enumerate(targets.items()):
            argv = [sys.executable, str(HERE / "setup_probe.py"), key]
            outcome = spawn_gauged(argv, env, f"setup{r}-{i}")
            expected = b"" if job.setup_size is None else f"{job.setup_size}\n".encode()
            if outcome.code != 0 or outcome.stdout != expected:
                raise RuntimeError(f"set-up probe for {job.name} failed: {outcome.stderr[-500:]!r}")
            probes[key].append((outcome.wall, outcome.ref_s))
    keys = [json.dumps(job.target, sort_keys=True) for job in jobs]
    raw = sum(statistics.median(w for w, _ in probes[key]) for key in keys)
    refs = sum(statistics.median(w / ref for w, ref in probes[key]) for key in keys)
    return raw, refs, probes


# ---------------------------------------------------------------------------
# Traced run


def layer_metrics(jobs, traced, trace_dir) -> dict:
    """Per-layer figures of the last traced pass, from its trace files."""
    calls, counts = defaultdict(int), defaultdict(int)
    total_s, self_s = defaultdict(float), defaultdict(float)
    for i in range(len(jobs)):
        data = json.loads((trace_dir / f"{i}.json").read_text())
        for table, into in ((data["calls"], calls), (data["total_s"], total_s),
                            (data["self_s"], self_s), (data["counts"], counts)):
            for name, value in table.items():
                into[name] += value
    layer_self = defaultdict(float)
    for name, seconds in self_s.items():
        layer_self[name.split(".", 1)[0]] += seconds
    job_time = sum(o.wall for o in traced)
    layer_self["process"] = job_time - total_s["cli.main"]

    assignments = counts["terms.check_formula.assignments"]
    elems = counts["forkmodel.fix_scan.elems"]
    m = {
        "terms.check_formula.s": total_s["terms.check_formula"],
        "terms.check_formula.assignments": assignments,
        "terms.check_formula.us_per_assignment":
            total_s["terms.check_formula"] / assignments * 1e6 if assignments else 0.0,
        "terms.parse_formula.s": total_s["terms.parse_formula"],
        "terms.eval_term.s": total_s["terms.eval_term"],
        "relcore.compose.calls": calls["relcore.compose"],
        "relcore.converse.calls": calls["relcore.converse"],
        "relcore.boolean.calls": sum(
            calls[f"relcore.{op}"] for op in ("union", "meet", "complement_in", "is_subset")
        ),
        "relcore.compose_cache.hits": counts["relcore.compose_cache.hits"],
        "relcore.compose_cache.misses": counts["relcore.compose_cache.misses"],
        "relcore.full_pra.s": total_s["relcore.full_pra"],
        "relcore.load_model.s": total_s["relcore.load_model"],
        "relcore.from_pairs.s": total_s["relcore.from_pairs"],
        "constructions.build_from_config.s": total_s["constructions.build_from_config"],
        "btree.parse_tree.s": total_s["btree.parse_tree"],
        "seqs.parse_seq.s": total_s["seqs.parse_seq"],
        "constructions.star.calls": calls["constructions.star"],
        "constructions.unstar.calls": calls["constructions.unstar"],
        "forkmodel.fix_scan.s": total_s["forkmodel.fix_scan"],
        "forkmodel.fix_scan.elems": elems,
        "forkmodel.fix_scan.us_per_elem":
            total_s["forkmodel.fix_scan"] / elems * 1e6 if elems else 0.0,
        "btree.tree_map.calls": calls["btree.tree_map"],
        "forkmodel.window.s": total_s["forkmodel.window"],
        "forkmodel.window.cells": counts["forkmodel.window.cells"],
        "forkmodel.cfa_axiom_check.s": total_s["forkmodel.cfa_axiom_check"],
        "forkmodel.cfa_axiom_check.trials": counts["forkmodel.cfa_axiom_check.trials"],
        "cli.main.self_s": self_s["cli.main"],
    }
    for path in ("support", "witness", "predicate"):
        m[f"forkmodel.window.calls.{path}"] = counts[f"forkmodel.window.calls.{path}"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
        m[f"layer.{layer}.share"] = layer_self[layer] / job_time
    return m


def run_micro(env, seed: int):
    outcome = spawn([sys.executable, str(HERE / "micro.py"), str(seed)], env, "micro")
    if outcome.code != 0:
        raise RuntimeError(f"micro-benchmarks failed: {outcome.stderr[-500:]!r}")
    return json.loads(outcome.stdout)


def measure(jobs, env, seconds: float, problems: list):
    """Set-up rounds, then passes until the time is used; medians of both,
    at the reference speed of the host."""
    started = CLOCK()
    setup_raw, setup_refs, setup_probes = measure_setup(jobs, env, SETUP_ROUNDS)
    passes = []  # (wall, outcomes, digests)
    while len(passes) < MIN_PASSES or CLOCK() + statistics.median(
        p[0] for p in passes
    ) <= started + seconds:
        label = f"pass{len(passes)}"
        wall, outcomes = run_pass(jobs, env, label, gauged=True)
        passes.append((wall, outcomes, verify(jobs, outcomes, label, problems)))
    per_pass = [pass_metrics(jobs, wall, outcomes) for wall, outcomes, _ in passes]
    # On a shared 2-vCPU host the speed of the CPU moves by up to 1.5x,
    # within seconds and over minutes, and moves every process alike.  The
    # reference program, run just before each timed process, gauges the
    # speed that process met: a time is taken in reference runs, job wall
    # over reference wall, and reported in seconds at the reference's
    # nominal speed.  A change to relfork moves the job and not the
    # reference.  Each job counts with its median over the passes, which
    # drops the passes where the pairing missed a change of speed.
    job_refs = [
        statistics.median(p["job_wall_s"][i] / p["job_ref_s"][i] for p in per_pass)
        for i in range(len(jobs))
    ]
    work = [job_work(job, outcome) for job, outcome in zip(jobs, passes[0][1])]
    busy = sum(r for r, units in zip(job_refs, work) if units) * reference.NOMINAL_S
    metrics = {
        "wall_s": sum(job_refs) * reference.NOMINAL_S,
        "setup_s": setup_refs * reference.NOMINAL_S,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in per_pass),
        "work_per_s": sum(work) / busy if busy else 0.0,
    }
    report = {
        "raw_wall_s": sum(
            statistics.median(p["job_wall_s"][i] for p in per_pass) for i in range(len(jobs))
        ),
        "raw_setup_s": setup_raw,
        "reference_s": statistics.median(
            ref for p in per_pass for ref in p["job_ref_s"]
        ),
        "setup_probes_s": setup_probes,
        "passes": per_pass,
    }
    return metrics, passes, report


def measure_traced(jobs, env, seed: int, problems: list):
    """Untraced and traced passes in turn, then the micro-benchmarks."""
    trace_dir = OUT / "trace"
    for old in trace_dir.glob("*.json"):
        old.unlink()
    passes = []
    # Alternating the two kinds of pass keeps a drift in machine speed
    # from landing on one side of trace.overhead_s.
    for n in range(TRACE_PAIRS):
        for label, directory in ((f"untraced{n}", None), (f"traced{n}", trace_dir)):
            wall, outcomes = run_pass(jobs, env, label, directory)
            passes.append((wall, outcomes, verify(jobs, outcomes, label, problems)))
    metrics = layer_metrics(jobs, passes[-1][1], trace_dir)
    metrics["trace.overhead_s"] = statistics.median(p[0] for p in passes[1::2]) - (
        statistics.median(p[0] for p in passes[::2])
    )
    micro = run_micro(env, seed)
    metrics.update(micro["metrics"])
    report = {
        "pass_walls_s": [p[0] for p in passes],
        "micro_notes": micro["notes"],
        "spans_dir": str(trace_dir.relative_to(ROOT)),
    }
    return metrics, passes, report


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "relfork" / "cli.py").is_file():
        print(f"error: no relfork sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    for sub in ("work", "stdout", "results", "trace"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    env = child_env()
    jobs = workloads.build_jobs(args.workload, args.seed, args.size, "perfbench/_out/work")
    warm = spawn([sys.executable, "-c", "import relfork.cli"], env, "warm-up")
    if warm.code != 0:
        print(f"error: cannot import relfork: {warm.stderr[-500:]!r}", file=sys.stderr)
        return 2

    problems = []  # (job run, what is wrong)
    if args.trace == 0:
        metrics, passes, report = measure(jobs, env, args.seconds, problems)
    else:
        metrics, passes, report = measure_traced(jobs, env, args.seed, problems)
    digests = passes[0][2]
    for n, (_, _, other) in enumerate(passes[1:], 1):
        for job, first, again in zip(jobs, digests, other):
            if first != again:
                problems.append((f"pass{n} {job.name}", "stdout digest differs from pass0"))
    failed = len({run for run, _ in problems})
    attempted = len(jobs) * len(passes)

    env_record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "passes": len(passes),
        "trace.overhead_s": metrics.get("trace.overhead_s"),
    }
    rate_name = workloads.RATE_NAMES[args.workload]
    report.update(
        env=env_record,
        jobs=[{"name": j.name, "argv": j.argv, "stdout_sha256": d} for j, d in zip(jobs, digests)],
        problems=[f"{run}: {what}" for run, what in problems],
        failed_jobs=failed,
        attempted_jobs=attempted,
        metrics=metrics,
    )
    if "work_per_s" in metrics:
        report[rate_name] = metrics["work_per_s"]
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for note in report.get("micro_notes", []):
        print(f"note: {note}")
    print("env: " + json.dumps(env_record, sort_keys=True))
    summary = {
        "failed_jobs": {"value": failed, "unit": "count"},
        "attempted_jobs": {"value": attempted, "unit": "count"},
    }
    if rate_name in report:
        summary[rate_name] = {"value": report[rate_name], "unit": "1/s"}
    for name in ("raw_wall_s", "raw_setup_s", "reference_s"):
        if name in report:
            summary[name] = {"value": report[name], "unit": "s"}
    print("summary: " + json.dumps(summary, sort_keys=True))

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              f"BENCHMARK.json {section}", file=sys.stderr)
        return 3
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

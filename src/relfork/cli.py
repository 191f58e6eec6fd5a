"""Command line interface.

Subcommands:

* ``check``: run an axiom suite, either against a finite model
  (``cr_tarski`` / ``cr_equational``, exhaustive or sampled assignments)
  or against a built pairing function (``cfa`` / ``cfau``, exact over N
  from the construction layout).
* ``eval``: evaluate one formula; exact over a finite model, compared
  on a window over a pairing function.
* ``fix``: enumerate the fixpoints of a built pairing's control on a
  scan window and compare them with the layout's candidates; a
  mismatch exits 1.
* ``build``: build a pairing function and print its layout report,
  together with a digest of the canonical configuration.
* ``export``: write a finite model to JSON.

All randomness is seeded; stdout for a fixed seed is byte-stable.  The
elapsed wall time goes to stderr so it never disturbs captured output.
A command returns its payload, exit code and verdict's ``Scope``, whose
``label()`` the headers and JSON ``scope``/``mode`` print.  A stdout that
cannot be written, a closed pipe included, exits 2 like any other error;
a stderr that cannot be written changes no exit code.

Every run is a fresh process, so each command imports only what it uses:
the pairing modules (``forkmodel``, ``constructions``) load on the
branches that build or read a pairing, never for a finite model, and the
formula module ``terms`` only where a formula is parsed or checked
(``eval``, ``check --model`` and ``--sampled``'s range check), so the
parser takes the suite names from ``errors.SUITES``.  No command loads
``hashlib``, which brings in OpenSSL: the config digest comes from
CPython's own ``sha256`` module.  The target's options, the window caps
and the sampled count are checked first, against constants that need no
pairing code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from . import relcore
from .errors import SCAN_CAP, SUITES, WINDOW_CAP, RelforkError
from .node import Scope

if TYPE_CHECKING:
    from . import forkmodel


class UsageError(RelforkError):
    pass


# ---------------------------------------------------------------------------
# Target resolution


def _parse_members(text: Optional[str]) -> Tuple[int, ...]:
    if not text:
        return ()
    members = [part.strip() for part in text.split(",")]
    for part in members:
        # int() would also take a sign, underscores and non-ASCII digits.
        if part and not (part.isascii() and part.isdigit()):
            raise UsageError(
                f"bad member list {text!r}: expected ASCII decimal digits, got {part!r}"
            )
    return tuple(int(part) for part in members if part)


def _full_base(spec: str) -> Optional[int]:
    """N for the spec ``full:N``, None for a model file path."""
    if not spec.startswith("full:"):
        return None
    digits = spec[len("full:") :]
    # int() would also take a sign, spaces, underscores and non-ASCII digits.
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"bad model spec {spec!r}; expected full:N or a path")
    return int(digits)


def _resolve_model(spec: str) -> relcore.AlgebraModel:
    n = _full_base(spec)
    return relcore.load_model(spec) if n is None else relcore.full_pra(n)


def _read_json_object(path: str, what: str) -> Dict:
    """The JSON object in the named file; a RelforkError on any other content."""
    data = relcore.read_json(path, what)
    if not isinstance(data, dict):
        raise UsageError(f"{what} file must hold a JSON object")
    return data


def _star_config(args) -> Dict:
    """The target's {kind, S, control}; build_from_config judges the control."""
    if args.config:
        return _read_json_object(args.config, "config")
    if not args.star:
        raise UsageError("need --star KIND (or --config FILE)")
    config: Dict = {"kind": args.star, "S": list(_parse_members(args.members))}
    control = args.tree if args.tree is not None else args.seq
    if control is not None:
        config["control"] = control
    elif args.star in ("tree", "seq"):
        flag = "--t TREE" if args.star == "tree" else "--s SEQ"
        raise UsageError(f"kind {args.star} needs {flag}")
    return config


def _resolve_star(args) -> Tuple[forkmodel.PairingFunction, Dict]:
    from . import constructions

    config = _star_config(args)
    return constructions.build_from_config(config), config


def _config_digest(config: Dict) -> str:
    """The sha256 of the canonical config, which check, fix and build print."""
    # hashlib loads OpenSSL; CPython's own sha256 module is far lighter.
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            # A CPython configured with --with-builtin-hashlib-hashes
            # leaving out sha256 has neither module.
            from hashlib import sha256

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _star_name(config: Dict) -> str:
    control = config.get("control")
    suffix = f" control={control}" if control is not None else ""
    return f"star:{config.get('kind')} S={config.get('S')}{suffix}"


# ---------------------------------------------------------------------------
# Argument checks

# Options that only some targets read: dest, flag and the options that read it.
_TARGET_OPTIONS = (
    ("sampled", "--sampled", ("model",)), ("trials", "--trials", ("star", "config")),
    ("seed", "--seed", ("sampled", "star", "config")), ("window", "--window", ("star", "config")),
    ("members", "--S", ("star",)), ("tree", "--t", ("star",)), ("seq", "--s", ("star",)),
)


def _check_args(args) -> None:
    """Refuse options the target ignores, and counts out of range, before any work."""
    for dest, flag, readers in _TARGET_OPTIONS:
        given = getattr(args, dest, None) is not None
        if given and all(getattr(args, r) is None for r in readers):
            raise UsageError(f"{flag} needs {' or '.join('--' + r for r in readers)}")
    cap = {"fix": SCAN_CAP, "eval": WINDOW_CAP}.get(args.command)
    if cap is not None and args.window is not None and args.window > cap:
        raise UsageError(f"--window {args.window} exceeds cap {cap}")
    for name in ("window", "trials"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise UsageError(f"--{name} must be at least 1, got {value}")
    if getattr(args, "sampled", None) is not None:
        from . import terms

        terms.sample_count(("sampled", args.sampled))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> Tuple[Dict, int, Scope]:
    suite = args.suite
    if args.model:
        seed = 0 if args.seed is None else args.seed
        strategy = ("sampled", args.sampled) if args.sampled is not None else "exhaustive"
        if suite not in ("cr_tarski", "cr_equational"):
            raise UsageError(
                f"suite {suite!r} needs a pairing function target; use --star"
            )
        from . import terms

        texts = terms.AXIOM_TEXTS[suite]
        model = _resolve_model(args.model)
        reports = terms.check_suite(texts, model, strategy=strategy, seed=seed)
        results = [
            {
                "axiom": text,
                "valid": report.valid,
                "checked": report.checked,
                "counterexample": report.counterexample_text(),
            }
            for text, report in zip(texts, reports)
        ]
        all_valid = all(report.valid for report in reports)
        payload = {
            "target": f"model:{args.model}",
            "suite": suite,
            "strategy": reports[0].scope.label(),
            "seed": seed,
            "results": results,
            "all_valid": all_valid,
        }
        return payload, 0 if all_valid else 1, reports[0].scope

    if suite not in ("cfa", "cfau"):
        raise UsageError(f"suite {suite!r} needs a finite model target; use --model")
    from . import forkmodel

    pf, config = _resolve_star(args)
    report = forkmodel.cfa_axiom_check(pf, include_urelement_axiom=(suite == "cfau"))
    payload = {
        "target": _star_name(config),
        "suite": suite,
        "config_sha256": _config_digest(config),
        "scope": report.scope.label(),
        "results": [
            {
                "name": r.name,
                "description": r.description,
                "passed": r.passed,
                "detail": r.detail,
                "witness": r.witness,
            }
            for r in report.results
        ],
        "all_valid": report.all_passed,
    }
    return payload, 0 if report.all_passed else 1, report.scope


def _cmd_eval(args) -> Tuple[Dict, int, Scope]:
    from . import terms

    formula = terms.parse_formula(args.formula)
    data = _read_json_object(args.bind, "bindings") if args.bind else {}
    bindings = {name: relcore.pairs_from_json(pairs) for name, pairs in data.items()}
    if args.model:
        model = _resolve_model(args.model)
        env = {
            name: relcore.FiniteRelation.from_pairs(model.base_size, pairs)
            for name, pairs in bindings.items()
        }
        value = terms.eval_formula(formula, env, model)
        scope = Scope("exact", None)
        target = f"model:{args.model}"
    else:
        from . import forkmodel

        pf, config = _resolve_star(args)
        env = {
            name: forkmodel.LazyRelation.from_support(pairs)
            for name, pairs in bindings.items()
        }
        window = 200 if args.window is None else args.window
        value = terms.eval_formula(formula, env, forkmodel.ForkBackend(pf, window=window))
        scope = Scope("window", window)
        target = _star_name(config)
    payload = {
        "formula": terms.pretty(formula),
        "target": target,
        "mode": scope.label(),
        "value": value,
    }
    return payload, 0 if value else 1, scope


def _cmd_fix(args) -> Tuple[Dict, int, Scope]:
    from . import forkmodel

    pf, config = _resolve_star(args)
    window = 1000 if args.window is None else args.window
    layout = pf.meta
    fixpoints = forkmodel.fix_members(pf, range(window), layout.control)
    candidates = layout.s_values
    matches = fixpoints == tuple(u for u in candidates if u < window)
    payload = {
        "target": _star_name(config),
        "config_sha256": _config_digest(config),
        "window": window,
        "fixpoints": list(fixpoints),
        "candidates": list(candidates),
        "matches_candidates": matches,
    }
    return payload, 0 if matches else 1, Scope("window", window)


def _cmd_build(args) -> Tuple[Dict, int, None]:
    from . import constructions

    pf, config = _resolve_star(args)
    payload = constructions.layout_report(pf)
    payload["config"] = config
    payload["config_sha256"] = _config_digest(config)
    return payload, 0, None


def _cmd_export(args) -> Tuple[Dict, int, None]:
    model = _resolve_model(args.model)
    if args.out:
        relcore.save_model(model, args.out)
        return {"written": args.out, "base_size": model.base_size}, 0, None
    return relcore.model_to_dict(model), 0, None


# ---------------------------------------------------------------------------
# Rendering and argument wiring


def _render_text(payload: Dict, scope: Optional[Scope]) -> str:
    lines = []
    if "results" in payload:
        seed = f", seed {payload['seed']}" if scope.kind == "sampled" else ""
        lines.append(f"{payload['suite']} on {payload['target']}  [{scope.label()}{seed}]")
        for entry in payload["results"]:
            mark = "ok  " if entry.get("valid", entry.get("passed")) else "FAIL"
            label = entry.get("axiom", entry.get("description", ""))
            lines.append(f"  {mark} {label}")
            counterexample = entry.get("counterexample") or entry.get("witness")
            if counterexample is not None and not entry.get(
                "valid", entry.get("passed")
            ):
                lines.append(
                    f"       counterexample: {json.dumps(counterexample, sort_keys=True)}"
                )
        verdict = "pass" if payload["all_valid"] else "FAIL"
        lines.append(f"result: {verdict}")
    elif "value" in payload:
        lines.append(f"{payload['formula']}  [{scope.label()}]")
        lines.append("true" if payload["value"] else "false")
    elif "fixpoints" in payload:
        lines.append(f"{payload['target']} window [0,{scope.bound})")
        lines.append(f"fixpoints:  {payload['fixpoints']}")
        lines.append(f"candidates: {payload['candidates']}")
        lines.append(
            "agreement:  yes" if payload["matches_candidates"] else "agreement:  NO"
        )
    elif "star_grid" in payload:
        lines.append(f"kind {payload['kind']}, members {payload['members']}")
        if payload.get("control"):
            lines.append(f"control: {payload['control']}")
        lines.append(f"reserved: {payload['reserved']}")
        for block in payload["blocks"]:
            lines.append(
                f"block {block['index']} ({block['name']}): {block['first_elements']} ..."
            )
        lines.append(f"pinned cells: {len(payload['table'])}")
        lines.append(f"config sha256: {payload['config_sha256']}")
    else:
        lines.append(json.dumps(payload, indent=2, sort_keys=True))
    return "\n".join(lines)


def _add_target_args(parser: argparse.ArgumentParser, with_model: bool = True) -> None:
    target = parser.add_mutually_exclusive_group()
    if with_model:
        target.add_argument("--model", help="finite model: full:N or a JSON file path")
    target.add_argument(
        "--star",
        choices=("basic", "tree", "pi", "rho", "seq"),
        help="construction kind for a pairing-function target",
    )
    target.add_argument("--config", help="JSON config file {kind, S, control}")
    parser.add_argument("--S", dest="members", help="members, e.g. 1,2")
    control = parser.add_mutually_exclusive_group()
    control.add_argument("--t", dest="tree", help="control tree, e.g. 'bin (bin nil nil) nil'")
    control.add_argument("--s", dest="seq", help="control sequence, e.g. pi.rho")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfork",
        description="Verification workbench for relation and fork algebras.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run an axiom suite")
    _add_target_args(p_check)
    p_check.add_argument(
        "--suite",
        required=True,
        choices=SUITES,
        help="axiom suite to run",
    )
    p_check.add_argument(
        "--sampled",
        type=int,
        metavar="K",
        help="check K random assignments (default: every assignment)",
    )
    p_check.add_argument(
        "--seed", type=int, help="seed of --sampled (default 0); a pairing ignores it"
    )
    p_check.add_argument(
        "--trials", type=int, help="a pairing ignores it: its fork axioms are certified exactly"
    )
    p_check.set_defaults(func=_cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate one formula")
    _add_target_args(p_eval)
    p_eval.add_argument("--formula", required=True)
    p_eval.add_argument("--bind", help="JSON file binding variables to pair lists")
    p_eval.add_argument("--window", type=int, help="window over a pairing (default 200)")
    p_eval.set_defaults(func=_cmd_eval)

    p_fix = sub.add_parser("fix", help="enumerate controlled fixpoints")
    _add_target_args(p_fix, with_model=False)
    p_fix.add_argument(
        "--window",
        type=int,
        help=f"scan [0, WINDOW) for fixpoints (default 1000, capped by SCAN_CAP = {SCAN_CAP})",
    )
    p_fix.set_defaults(func=_cmd_fix)

    p_build = sub.add_parser("build", help="build a pairing and report its layout")
    _add_target_args(p_build, with_model=False)
    p_build.set_defaults(func=_cmd_build)

    p_export = sub.add_parser("export", help="write a finite model to JSON")
    p_export.add_argument("--model", required=True)
    p_export.add_argument("--out", help="output path (default stdout)")
    p_export.set_defaults(func=_cmd_export)

    return parser


def _note(line: str) -> None:
    """Print a line to stderr; one that cannot be written is dropped.

    The exit code is the verdict's, whether or not anyone reads stderr.
    """
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        # A buffered stderr keeps the line; the interpreter's flush at exit
        # would fail on it too and exit 120, so that flush goes to the null
        # device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        _check_args(args)
        payload, code, scope = args.func(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True), flush=True)
        else:
            print(_render_text(payload, scope), flush=True)
    except (RelforkError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader has gone: the interpreter's flush at exit writes
            # what is still buffered to the null device, not to the pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _note(f"error: {exc}")
        return 2
    _note(f"elapsed-seconds: {time.monotonic() - started:.3f}")
    return code


if __name__ == "__main__":
    sys.exit(main())

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
A command returns its payload, exit code and the lines it prints in
text mode; ``export`` returns None for them and prints its JSON in both
formats.  The text headers and JSON ``scope``/``mode`` print the
verdict's ``Scope.label()``.  A stdout that
cannot be written, a closed pipe included, exits 2 like any other error;
a stderr that cannot be written changes no exit code.

Every run is a fresh process, so each command imports only what it uses:
the pairing modules (``forkmodel``, ``constructions``) load on the
branches that build or read a pairing, never for a finite model, and the
formula module ``terms`` only where a formula is parsed or checked
(``eval``, ``check --model`` and ``--sampled``'s range check), so the
parser takes the suite names from ``errors.SUITES``.  No command loads
``hashlib``, which brings in OpenSSL: the config digest comes from
CPython's own ``sha256`` module.  JSON is written by ``relcore.json_text``,
so only a run that reads a JSON file (a ``--model`` path, ``--config`` or
``--bind``) imports ``json``.  The target's options, the window caps and
the sampled count are checked first, against constants that need no
pairing code.

Each option is declared once, in the option table.  ``main`` reads the
usual argv, ``[--format F] COMMAND (--flag VALUE)*`` with exact flags,
from the table in one pass, so a run does not import ``argparse`` (nor
``gettext`` and ``locale`` with it).  Only help, refusals and rare
spellings (an abbreviated flag, ``--flag=value``, a negative number, a
repeated flag) go to ``build_parser``, the argparse parser of the same
table, which prints and exits as argparse does.

``run`` is the process entry of the console script and ``python -m
relfork.cli``: ``main`` with the cyclic collector off, then a flush of
stdout and stderr and ``os._exit``.  The interpreter's teardown (module
cleanup, the final collection, atexit handlers) is safe to skip, as
relfork registers no ``atexit`` handler and holds no file open at exit
but stdout and stderr.  ``main`` neither turns the collector off nor
exits, so one process may call it often.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from . import relcore
from .errors import SCAN_CAP, SUITES, WINDOW_CAP, RelforkError
from .node import Scope

if TYPE_CHECKING:
    import argparse

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
    if args.config is not None:
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

    canonical = relcore.json_text(config, separators=(",", ":"))
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


def _suite_text(payload: Dict, scope: Scope, rows) -> List[str]:
    """A suite's text: its header, a line per (passed, label, counterexample) and the verdict."""
    seed = f", seed {payload['seed']}" if scope.kind == "sampled" else ""
    lines = [f"{payload['suite']} on {payload['target']}  [{scope.label()}{seed}]"]
    for passed, label, counterexample in rows:
        lines.append(f"  {'ok  ' if passed else 'FAIL'} {label}")
        if not passed and counterexample is not None:
            lines.append(f"       counterexample: {relcore.json_text(counterexample)}")
    lines.append(f"result: {'pass' if payload['all_valid'] else 'FAIL'}")
    return lines


def _cmd_check(args) -> Tuple[Dict, int, List[str]]:
    suite = args.suite
    if args.model is not None:
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
        rows = [(r["valid"], r["axiom"], r["counterexample"]) for r in results]
        return payload, 0 if all_valid else 1, _suite_text(payload, reports[0].scope, rows)

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
    rows = [(r.passed, r.description, r.witness) for r in report.results]
    return payload, 0 if report.all_passed else 1, _suite_text(payload, report.scope, rows)


def _cmd_eval(args) -> Tuple[Dict, int, List[str]]:
    from . import terms

    formula = terms.parse_formula(args.formula)
    data = _read_json_object(args.bind, "bindings") if args.bind is not None else {}
    bindings = {name: relcore.pairs_from_json(pairs) for name, pairs in data.items()}
    if args.model is not None:
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
    text = [f"{payload['formula']}  [{payload['mode']}]", "true" if value else "false"]
    return payload, 0 if value else 1, text


def _cmd_fix(args) -> Tuple[Dict, int, List[str]]:
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
    text = [
        f"{payload['target']} window [0,{window})",
        f"fixpoints:  {payload['fixpoints']}",
        f"candidates: {payload['candidates']}",
        f"agreement:  {'yes' if matches else 'NO'}",
    ]
    return payload, 0 if matches else 1, text


def _cmd_build(args) -> Tuple[Dict, int, List[str]]:
    from . import constructions

    pf, config = _resolve_star(args)
    payload = constructions.layout_report(pf)
    payload["config"] = config
    payload["config_sha256"] = _config_digest(config)
    text = [f"kind {payload['kind']}, members {payload['members']}"]
    if payload["control"]:
        text.append(f"control: {payload['control']}")
    text.append(f"reserved: {payload['reserved']}")
    for block in payload["blocks"]:
        text.append(f"block {block['index']} ({block['name']}): {block['first_elements']} ...")
    text.append(f"pinned cells: {len(payload['table'])}")
    text.append(f"config sha256: {payload['config_sha256']}")
    return payload, 0, text


def _cmd_export(args) -> Tuple[Dict, int, None]:
    model = _resolve_model(args.model)
    if args.out is not None:
        relcore.save_model(model, args.out)
        return {"written": args.out, "base_size": model.base_size}, 0, None
    return relcore.model_to_dict(model), 0, None


# ---------------------------------------------------------------------------
# Option table

# Each option once: its flag, its mutually exclusive group (or None) and
# the keywords of add_argument.  build_parser builds argparse from it, and
# _parse_table reads the usual argv from it without importing argparse.
_FORMAT = (
    "--format", None, {"choices": ("text", "json"), "default": "text", "help": "output format"}
)
_STAR_TARGET = (
    ("--star", "target", {
        "choices": ("basic", "tree", "pi", "rho", "seq"),
        "help": "construction kind for a pairing-function target",
    }),
    ("--config", "target", {"help": "JSON config file {kind, S, control}"}),
    ("--S", None, {"dest": "members", "help": "members, e.g. 1,2"}),
    ("--t", "control", {"dest": "tree", "help": "control tree, e.g. 'bin (bin nil nil) nil'"}),
    ("--s", "control", {"dest": "seq", "help": "control sequence, e.g. pi.rho"}),
)
_MODEL = ("--model", "target", {"help": "finite model: full:N or a JSON file path"})
_TARGET = (_MODEL,) + _STAR_TARGET
# Subcommand: its help, its handler and its options, in the order help lists them.
_COMMANDS = {
    "check": ("run an axiom suite", _cmd_check, _TARGET + (
        ("--suite", None, {"required": True, "choices": SUITES, "help": "axiom suite to run"}),
        ("--sampled", None, {
            "type": int, "metavar": "K",
            "help": "check K random assignments (default: every assignment)",
        }),
        ("--seed", None, {
            "type": int, "help": "seed of --sampled (default 0); a pairing ignores it",
        }),
        ("--trials", None, {
            "type": int, "help": "a pairing ignores it: its fork axioms are certified exactly",
        }),
    )),
    "eval": ("evaluate one formula", _cmd_eval, _TARGET + (
        ("--formula", None, {"required": True}),
        ("--bind", None, {"help": "JSON file binding variables to pair lists"}),
        ("--window", None, {"type": int, "help": "window over a pairing (default 200)"}),
    )),
    "fix": ("enumerate controlled fixpoints", _cmd_fix, _STAR_TARGET + (
        ("--window", None, {"type": int, "help": (
            f"scan [0, WINDOW) for fixpoints (default 1000, capped by SCAN_CAP = {SCAN_CAP})"
        )}),
    )),
    "build": ("build a pairing and report its layout", _cmd_build, _STAR_TARGET),
    "export": ("write a finite model to JSON", _cmd_export, (
        ("--model", None, {"required": True}),
        ("--out", None, {"help": "output path (default stdout)"}),
    )),
}


def _dest(flag: str, spec: Dict) -> str:
    return spec.get("dest", flag[2:])


def _parse_table(argv: List[str]) -> Optional[SimpleNamespace]:
    """argparse's namespace for argv, read from the option table alone.

    This takes the shape of every usual run, ``[--format F] COMMAND
    (--flag VALUE)*``: each flag is an exact flag of its place and is given
    once, no value starts with '-', an int is ASCII digits, and the
    choices, required options and exclusive groups hold.  Any other argv
    (help, a refusal, an abbreviation, ``--flag=value``, a negative number)
    gives None, and argparse decides it, printing what it prints.
    """
    values: Dict = {"format": "text"}
    options, given, groups = (_FORMAT,), set(), set()
    tokens = iter(argv)
    for token in tokens:
        option = next((o for o in options if o[0] == token), None)
        if option is None:
            if "command" in values or token not in _COMMANDS:
                return None
            _, func, options = _COMMANDS[token]
            values.update({_dest(flag, spec): None for flag, _, spec in options})
            values.update(command=token, func=func)
            continue
        flag, group, spec = option
        dest, value = _dest(flag, spec), next(tokens, None)
        if value is None or value.startswith("-") or dest in given or group in groups:
            return None
        given.add(dest)
        if group is not None:
            groups.add(group)
        if spec.get("type") is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than int() takes from a string
                return None
        elif value not in spec.get("choices", (value,)):
            return None
        values[dest] = value
    required = (_dest(flag, spec) for flag, _, spec in options if spec.get("required"))
    if "command" not in values or not given.issuperset(required):
        return None
    return SimpleNamespace(**values)


def _add_options(parser: argparse.ArgumentParser, options) -> None:
    groups: Dict = {}
    for flag, group, spec in options:
        if group is not None and group not in groups:
            groups[group] = parser.add_mutually_exclusive_group()
        groups.get(group, parser).add_argument(flag, **spec)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the option table; only help and refusals need it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="relfork",
        description="Verification workbench for relation and fork algebras.",
    )
    _add_options(parser, (_FORMAT,))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        _add_options(command, options)
        command.set_defaults(func=func)
    return parser


def _note(line: str) -> None:
    """Print a line to stderr; one that cannot be written is dropped.

    The exit code is the verdict's, whether or not anyone reads stderr.
    """
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        # A buffered stderr keeps the line; a caller that exits through the
        # interpreter would fail to flush it too and exit 120, so that flush
        # goes to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_table(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        _check_args(args)
        payload, code, text = args.func(args)
        if args.format == "json" or text is None:
            print(relcore.json_text(payload, indent=2), flush=True)
        else:
            print("\n".join(text), flush=True)
    except (RelforkError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader has gone: the flush at exit writes what is still
            # buffered to the null device, not to the pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _note(f"error: {exc}")
        return 2
    _note(f"elapsed-seconds: {time.monotonic() - started:.3f}")
    return code


def run() -> None:
    """``main`` with the collector off, then ``os._exit``; argparse's exits too.

    The teardown is skipped but for the flush of stdout and stderr, as no
    atexit handler or other open file is left; a failed flush keeps the code.
    """
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()

"""Start-up footprint: the modules each entry point loads in a fresh process.

Every CLI run is a new interpreter, so what a command imports is part of
its wall time.  Each check subtracts the modules a bare interpreter
already holds (``site`` may pull in some of the standard library).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relfork
from relfork import cli

SRC = str(Path(relfork.__file__).resolve().parents[1])
MARK = "modules:"


def new_modules(code: str) -> set:
    """Modules loaded by running code in a fresh interpreter, less a bare one's."""

    def loaded(prefix: str) -> set:
        probe = f"{prefix}\nimport sys\nprint({MARK!r}, *sorted(sys.modules))"
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        line = next(x for x in done.stdout.splitlines() if x.startswith(MARK))
        return set(line.split()[1:])

    return loaded(code) - loaded("")


def test_import_package_loads_no_submodule():
    loaded = new_modules("import relfork")
    assert "relfork" in loaded
    assert not {name for name in loaded if name.startswith("relfork.")}


# argparse imports gettext, and gettext's first lookup imports locale.  The
# option table parses every command below without them.
ARGPARSE = {"argparse", "gettext", "locale"}
# relfork writes JSON with relcore.json_text; only reading a file loads json.
JSON = {"json", "json.decoder", "json.scanner", "json.encoder", "_json"}


def test_check_model_loads_no_pairing_code():
    loaded = new_modules(
        "from relfork.cli import main\n"
        "assert main(['check', '--model', 'full:2', '--suite', 'cr_equational']) == 0"
    )
    assert {"relfork.cli", "relfork.relcore", "relfork.terms"} <= loaded
    assert not loaded & {"relfork.forkmodel", "relfork.constructions", "dataclasses", "hashlib"}
    assert not loaded & ARGPARSE
    assert not loaded & JSON


def test_eval_model_loads_no_pairing_code():
    # eval checks --window against its cap before it knows the target kind.
    loaded = new_modules(
        "from relfork.cli import main\n"
        "assert main(['eval', '--model', 'full:2', '--formula', \"1' <= 1\"]) == 0"
    )
    assert {"relfork.cli", "relfork.relcore", "relfork.terms"} <= loaded
    assert not loaded & {"relfork.forkmodel", "relfork.constructions", "dataclasses"}
    assert not loaded & ARGPARSE
    assert not loaded & JSON


STAR_COMMANDS = {
    "fix": ["fix", "--star", "basic", "--S", "1,2"],
    "check": ["check", "--star", "basic", "--S", "1,2", "--suite", "cfa"],
    "build": ["build", "--star", "tree", "--S", "1,2", "--t", "bin nil nil"],
    "eval": ["eval", "--star", "basic", "--S", "1,2", "--formula", "pi # rho = 1'",
             "--window", "64"],
}


@pytest.mark.parametrize("argv", STAR_COMMANDS.values(), ids=STAR_COMMANDS.keys())
def test_star_command_loads_no_hashlib_dataclasses_or_inspect(argv):
    # No command loads hashlib: the config digest uses CPython's own sha256.
    # PairingFunction is a Node, so no pairing loads dataclasses (or, through
    # it, inspect).  Only eval reads a formula, so only eval loads terms.
    loaded = new_modules(f"from relfork.cli import main\nassert main({argv!r}) == 0")
    assert {"relfork.forkmodel", "relfork.constructions"} <= loaded
    assert not loaded & {"hashlib", "_hashlib", "dataclasses", "inspect"}
    assert ("relfork.terms" in loaded) == (argv[0] == "eval")
    assert not loaded & ARGPARSE
    assert not loaded & JSON


@pytest.mark.parametrize(
    "argv",
    [["check", "--model", "model.json", "--suite", "cr_equational"],
     ["build", "--config", "config.json"]],
    ids=["check-model", "build-config"],
)
def test_reading_a_json_file_loads_json(tmp_path, argv):
    # read_json imports json itself, so a --model or --config file reaches it.
    relfork.save_model(relfork.full_pra(1), str(tmp_path / "model.json"))
    (tmp_path / "config.json").write_text('{"kind": "basic", "S": [1, 2]}')
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    loaded = new_modules(f"from relfork.cli import main\nassert main({argv!r}) == 0")
    assert {"json", "json.decoder"} <= loaded


@pytest.mark.parametrize(
    "argv, want", [(["--help"], 0), (["check", "--suite", "nope"], 2)], ids=["help", "refusal"]
)
def test_help_and_refusals_load_argparse(argv, want):
    loaded = new_modules(
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "from io import StringIO\n"
        "from relfork.cli import main\n"
        "with redirect_stdout(StringIO()), redirect_stderr(StringIO()):\n"
        "    try:\n"
        f"        main({argv!r})\n"
        "    except SystemExit as exc:\n"
        f"        assert exc.code == {want}\n"
        "    else:\n"
        "        raise AssertionError('argparse did not exit')"
    )
    assert ARGPARSE <= loaded


def test_dataclasses_replace_loads_dataclasses_on_first_use():
    # perfbench/traced_cli.py rebuilds every built pairing this way.
    loaded = new_modules(
        "import sys\n"
        "from relfork.constructions import build_from_config\n"
        "pf = build_from_config({'kind': 'basic', 'S': [1, 2]})\n"
        "assert 'dataclasses' not in sys.modules\n"
        "import dataclasses\n"
        "def star(u, v):\n"
        "    return pf.star(u, v)\n"
        "moved = dataclasses.replace(pf, star=star)\n"
        "assert type(moved) is type(pf) and moved.star is star\n"
        "assert moved.unstar == pf.unstar and moved.meta is pf.meta\n"
        "assert moved != pf and moved.star(3, 4) == pf.star(3, 4)"
    )
    assert "dataclasses" in loaded


def test_config_digest_is_sha256_of_the_canonical_config(tmp_path):
    def sha256(config):
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    configs = [
        {},
        {"kind": "basic", "S": [1, 2]},
        {"S": [3, 7, 20], "kind": "tree", "control": "bin (bin nil nil) nil"},
        {"kind": "basic", "S": list(range(0, 1024, 2))},
    ]
    # A --config file is digested as read, extra keys and all.
    path = tmp_path / "config.json"
    path.write_text('{"kind": "seq", "S": [0, 1], "control": "pi.rho",\n "note": "\u00e9t\u00e9",'
                    ' "extra": {"b": [1.5, null], "a": true}}')
    args = cli._parse_table(["build", "--config", str(path)])
    configs.append(cli._star_config(args))
    assert len(configs[3]["S"]) == 512 and "extra" in configs[-1]
    for config in configs:
        assert cli._config_digest(config) == sha256(config)


def test_config_digest_falls_back_to_hashlib(monkeypatch):
    # A None entry in sys.modules makes its import raise ImportError.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    config = {"kind": "basic", "S": [1, 2]}
    want = hashlib.sha256(b'{"S":[1,2],"kind":"basic"}').hexdigest()
    assert cli._config_digest(config) == want


def test_cfa_check_loads_no_constructions():
    # A layout's certify is found on pf.meta, so the dependency runs one way:
    # a pairing without one is refused without importing constructions.
    loaded = new_modules(
        "from relfork.errors import RelforkError\n"
        "from relfork.forkmodel import PairingFunction, cfa_axiom_check\n"
        "pf = PairingFunction(star=lambda u, v: 2 * u + v, unstar=lambda w: None)\n"
        "try:\n"
        "    cfa_axiom_check(pf)\n"
        "except RelforkError as exc:\n"
        "    assert \"meta's own\" in str(exc)\n"
        "else:\n"
        "    raise AssertionError('a hand-built pairing was certified')"
    )
    assert "relfork.forkmodel" in loaded and "relfork.constructions" not in loaded


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from relfork import *", namespace)
    assert len(relfork.__all__) == 102
    for name in relfork.__all__:
        assert namespace[name] is getattr(relfork, name)
    assert set(relfork.__all__) <= set(dir(relfork))


def test_each_name_comes_from_its_submodule():
    for name, module in relfork._HOME.items():
        assert getattr(relfork, name) is getattr(getattr(relfork, module), name)
    assert relfork.terms.Var is relfork.Var

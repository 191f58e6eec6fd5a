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


def test_check_model_loads_no_pairing_code():
    loaded = new_modules(
        "from relfork.cli import main\n"
        "assert main(['check', '--model', 'full:2', '--suite', 'cr_equational']) == 0"
    )
    assert {"relfork.cli", "relfork.relcore", "relfork.terms"} <= loaded
    assert not loaded & {"relfork.forkmodel", "relfork.constructions", "dataclasses", "hashlib"}


def test_eval_model_loads_no_pairing_code():
    # eval checks --window against its cap before it knows the target kind.
    loaded = new_modules(
        "from relfork.cli import main\n"
        "assert main(['eval', '--model', 'full:2', '--formula', \"1' <= 1\"]) == 0"
    )
    assert {"relfork.cli", "relfork.relcore", "relfork.terms"} <= loaded
    assert not loaded & {"relfork.forkmodel", "relfork.constructions", "dataclasses"}


def test_eval_star_loads_no_hashlib():
    # No command loads hashlib: the config digest uses CPython's own sha256.
    loaded = new_modules(
        "from relfork.cli import main\n"
        "assert main(['eval', '--star', 'basic', '--S', '1,2', '--formula', 'pi # rho = 1\\'', "
        "'--window', '64']) == 0"
    )
    assert {"relfork.forkmodel", "relfork.constructions"} <= loaded
    assert "hashlib" not in loaded


STAR_COMMANDS = {
    "fix": ["fix", "--star", "basic", "--S", "1,2"],
    "check": ["check", "--star", "basic", "--S", "1,2", "--suite", "cfa"],
    "build": ["build", "--star", "tree", "--S", "1,2", "--t", "bin nil nil"],
}


@pytest.mark.parametrize("argv", STAR_COMMANDS.values(), ids=STAR_COMMANDS.keys())
def test_star_command_loads_no_hashlib_and_no_terms(argv):
    loaded = new_modules(f"from relfork.cli import main\nassert main({argv!r}) == 0")
    assert {"relfork.forkmodel", "relfork.constructions"} <= loaded
    assert not loaded & {"hashlib", "_hashlib", "relfork.terms"}


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
    args = cli.build_parser().parse_args(["build", "--config", str(path)])
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

"""The package's source parses under the oldest grammar it supports.

``pyproject.toml`` asks for Python >= 3.10, so each module must parse
with ``ast.parse(..., feature_version=(3, 10))``, whatever interpreter
runs this test; later syntax such as ``except*`` or ``type X = ...``
fails it.  This checks grammar only, not the standard library API: a
call to a function added after 3.10 still passes.
"""

import ast
from pathlib import Path

import pytest

import relfork

SOURCES = sorted(Path(relfork.__file__).parent.glob("*.py"))


def test_every_module_is_found():
    assert {"__init__.py", "cli.py", "forkmodel.py", "relcore.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_under_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

"""The README's Python examples run, in order, as one session."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 4
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)

"""Self-check of the benchmark harness at tiny sizes.

Run with ``python -m pytest perfbench/test_selfcheck.py``.  Every
workload runs untraced and traced with its verdict checks on; nothing
here gates on a timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_its_known_answers(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }

"""Fixed reference program that gauges the host's speed during a run.

Usage: ``python perfbench/reference.py``; prints one checksum line.

It shares no code with relfork and never changes, so its wall time moves
only with the host.  It does the kind of work the CLI jobs do: interpreter
start, the same standard-library imports, then integer arithmetic on
tuples, dicts, sets and frozensets in pure Python.  ``run.py`` runs it in
a fresh process just before every timed process, takes that process's
wall time as a multiple of the reference's, and reports it in seconds at
``NOMINAL_S``.
"""

from __future__ import annotations

import argparse  # noqa: F401  imported for its start-up cost, as the CLI does
import hashlib  # noqa: F401
import json  # noqa: F401
import random  # noqa: F401
from dataclasses import dataclass  # noqa: F401
from typing import Dict, FrozenSet, List  # noqa: F401

NOMINAL_S = 0.12  # its median on the reference host (2 vCPU) in a quiet period
CHECKSUM = 43957


def work() -> int:
    acc = 0
    seen = set()
    table = {}
    for i in range(40000):
        a, b = divmod(i * 2654435761 % 1000003, 997)
        pair = (a, b)
        if pair in seen:
            acc += 1
        else:
            seen.add(pair)
        table[b] = table.get(b, 0) + a
    sets = [frozenset(range(k % 23)) for k in range(2000)]
    for x, y in zip(sets, sets[1:]):
        acc += len(x | y) + len(x & y)
    return acc + sum(table.values()) % 7


if __name__ == "__main__":
    print(work())

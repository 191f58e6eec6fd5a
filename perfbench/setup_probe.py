"""Build one job's target in a fresh process, with no checking.

Usage: ``python perfbench/setup_probe.py TARGET_JSON`` where the target
is ``{"full": N}``, ``{"model": PATH}`` or ``{"star": CONFIG}``.  Only
public functions run: ``relcore.full_pra``, ``relcore.load_model`` and
``constructions.build_from_config``.  Prints the carrier size of a
finite model and nothing for a pairing function.
"""

from __future__ import annotations

import json
import sys

from relfork import constructions, relcore


def main(argv) -> int:
    target = json.loads(argv[0])
    if "full" in target:
        print(len(relcore.full_pra(target["full"]).carrier))
    elif "model" in target:
        print(len(relcore.load_model(target["model"]).carrier))
    else:
        constructions.build_from_config(target["star"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

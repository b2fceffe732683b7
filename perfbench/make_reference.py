"""Regenerate ``reference.json``: the protocol validation tables per seed.

Each pass of the protocol workload is compared with the table stored here
for its seed, at the tolerance in ``workloads.py``. Regenerate only when
the protocol's results are meant to change, from the root of a checkout:

    python3 perfbench/make_reference.py
"""

import json
import os
import sys
from pathlib import Path

os.environ.update({"IMPARTIAL_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402

SEEDS = sorted({*range(100), DEFAULT_SEED, HELD_OUT_SEED})


def main() -> None:
    name = "protocol_blackbox"
    out = {name: {}}
    for seed in SEEDS:
        wl = workloads.make(name, seed, ROOT)
        wl.generate()
        out[name][str(seed)] = wl.run_pass().raw["table"]
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

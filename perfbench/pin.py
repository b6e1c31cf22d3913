#!/usr/bin/env python3
"""Rewrites `perfbench/pins.json` from the run records in `perfbench/out/`.

Usage: python3 perfbench/pin.py SEED [SEED ...]

Pins the digest of every passing cell that the records of the given seeds
hold, for both trace modes. Run the benchmark at those seeds first, and
re-pin only when a change is meant to alter the simulated statistics.
"""

import glob
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main():
    seeds = {int(s) for s in sys.argv[1:]}
    if not seeds:
        sys.exit(__doc__)
    pins = {}
    for path in sorted(glob.glob(os.path.join(BENCH_DIR, "out", "*-trace[01].json"))):
        with open(path) as f:
            record = json.load(f)
        if record["seed"] not in seeds:
            continue
        for cell in record["cells"]:
            if cell["ok"] and cell["mode"] in ("full", "setup", "checked"):
                by_seed = pins.setdefault(record["workload"], {}).setdefault(cell["mode"], {})
                by_seed[str(cell["seed"])] = cell["out"]["digest"]
    with open(os.path.join(BENCH_DIR, "pins.json"), "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()

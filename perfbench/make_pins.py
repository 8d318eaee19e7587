#!/usr/bin/env python3
"""Regenerates pins.json, the pinned output digest of every workload per seed.

    python3 perfbench/make_pins.py [--seeds 0-63] [--workload W ...]

Each digest is taken from one op of the workload with no pin given, so
the run checks itself against its own reference first (a serial grid, the
in-memory allocation, or repeated weeks) and refuses to pin a run that
fails that check. A change that keeps the program's outputs must leave
this file unchanged; regenerate it only for a change meant to alter them.
"""

import argparse
import json
import os
import re
import subprocess
import sys

import run

DIGEST = re.compile(r"^(\w+): seed (\d+) digest ([0-9a-f]{64})", re.M)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-63", type=parse_seeds)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS,
                        help="regenerate only these (default: all)")
    args = parser.parse_args()
    binary = run.build()
    path = os.path.join(run.HERE, "pins.json")
    with open(path, encoding="utf-8") as handle:
        pins = json.load(handle)
    for workload in args.workload or run.WORKLOADS:
        pins[workload] = {}
        for seed in args.seeds:
            result = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0",
                 "--workdir", os.path.relpath(run.build_dir())],
                capture_output=True, text=True, check=False)
            report = json.loads(result.stdout.strip().splitlines()[-1])
            found = DIGEST.search(result.stderr)
            if result.returncode != 0 or not report["correct"] or not found:
                sys.exit(f"{workload} seed {seed} failed:\n{result.stderr}")
            pins[workload][str(seed)] = found.group(3)
            print(workload, seed, found.group(3), flush=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 20 --trace 0

Run it from the repository root. The executable is built with CMake
under $CARGO_TARGET_DIR (default .bench_build); the first run builds the
library modules, later runs rebuild only what changed. Build output goes
to standard error, so the last line of standard output is the
benchmark's JSON result.

pins.json beside this file pins the output digest of every workload for
seeds 0..N-1. A --seed is taken modulo N, so every run's inputs are one
of the pinned sets and every run is checked against its pin; a seed
whose pin is missing is refused.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_grid", "tree_round", "facility_week")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found beside perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, check=False)
        if result.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench")


def pinned_inputs(seed):
    """Returns the input seed for --seed and every workload's pin for it."""
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        pins = json.load(handle)
    input_seed = seed % max(1, len(pins.get(WORKLOADS[0], {})))
    missing = [workload for workload in WORKLOADS
               if str(input_seed) not in pins.get(workload, {})]
    if missing:
        sys.exit(f"perfbench: no pinned digest of {', '.join(missing)} "
                 f"for input seed {input_seed}")
    return input_seed, [f"{workload}={pins[workload][str(input_seed)]}"
                        for workload in WORKLOADS]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    input_seed, pins = pinned_inputs(args.seed)
    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(input_seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.relpath(build_dir())]
    for pin in pins:
        command += ["--pin", pin]
    try:
        result = subprocess.run(command, check=False, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --runs 10 [--workload tree_round ...]
                                    [--save set1.json] [--against set0.json]

Runs run.py untraced --runs times per workload, each time with another
seed (1, 2, ...), at the run length BENCHMARK.json fixes. For every
end-to-end metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the interquartile
range as a share of the median, next to the metric's bound. Every run
must report correct=true.

--save writes every value of the set to a JSON file; --against reads
such a file from an earlier set and also prints how far each median has
moved from that set's. The exit status is 0 only if every spread, that
of setup_s too, stays within its metric's bound and, with --against,
every median stays within its bound of the earlier set's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--save", help="write this set's values here")
    parser.add_argument("--against", help="a file --save wrote earlier")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            earlier = json.load(f)

    steady = True
    saved = {}
    for workload in workloads:
        values = {metric["name"]: [] for metric in spec["end_to_end"]}
        for seed in range(1, args.runs + 1):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                    text=True, check=False)
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed:\n{result.stderr}")
            report = json.loads(lines[-1])
            if not report["correct"] or report["failed"] != 0:
                sys.exit(f"{workload} seed {seed} failed its output check")
            for name, metric in report["metrics"].items():
                values[name].append(metric["value"])
        saved[workload] = values
        print(f"{workload} ({args.runs} runs, {spec['run_seconds']} s each)")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, mid, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / mid
            steady = steady and spread <= metric["bound"]
            line = (f"  {metric['name']:<18} median {mid:12.6g} "
                    f"{metric['unit']:<4} q1 {q1:12.6g} q3 {q3:12.6g}"
                    f"  iqr/median {spread:6.3f} (bound {metric['bound']})")
            if metric["name"] in earlier.get(workload, {}):
                before = statistics.median(earlier[workload][metric["name"]])
                moved = mid / before - 1.0
                steady = steady and abs(moved) <= metric["bound"]
                line += f"  median moved {moved:+.3f}"
            print(line)
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w", encoding="utf-8") as f:
            json.dump(saved, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs (--scale-down).

    python3 perfbench/test_perfbench.py

Builds the executable through run.py, then checks that each workload
reports exactly the metric names and units BENCHMARK.json declares, that
a wrong pinned digest is reported as failed ops rather than as a pass,
that run.py maps every seed onto a pinned input set and refuses one
whose pin is missing, and that run.py fails without printing a result
when the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

import run

WRONG_PIN = "0" * 64


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = load_spec()

    def invoke(self, workload, trace, seconds=1, pins=()):
        command = [self.binary, "--workload", workload, "--seed", "7",
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--scale-down", "--workdir",
                   os.path.relpath(run.build_dir())]
        for pin in pins:
            command += ["--pin", pin]
        result = subprocess.run(command, capture_output=True, text=True,
                                check=False, timeout=120)
        self.assertEqual(result.returncode, 0, result.stderr)
        report = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(set(report), {"correct", "attempted", "failed",
                                       "metrics"})
        return report

    def assert_metrics(self, report, declared):
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(report["metrics"]), set(units))
        for name, metric in report["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_of_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                report = self.invoke(workload, trace=0)
                self.assertTrue(report["correct"])
                self.assertGreater(report["attempted"], 0)
                self.assertEqual(report["failed"], 0)
                self.assert_metrics(report, self.spec["end_to_end"])
                for name, metric in report["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        report = self.invoke("tree_round", trace=1, seconds=3)
        self.assertTrue(report["correct"])
        self.assert_metrics(report, self.spec["per_layer"])
        metrics = report["metrics"]
        self.assertEqual(metrics["tree_round.net.protocol_errors"]["value"], 0)
        self.assertEqual(
            metrics["tree_round.net.policies_per_round"]["value"], 400)

    def test_wrong_pin_counts_every_op_as_failed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                report = self.invoke(workload, trace=0,
                                     pins=[f"{workload}={WRONG_PIN}"])
                self.assertFalse(report["correct"])
                self.assertGreater(report["attempted"], 0)
                self.assertEqual(report["failed"], report["attempted"])

    def test_every_seed_runs_on_a_pinned_input_set(self):
        with open(os.path.join(run.HERE, "pins.json"), encoding="utf-8") as f:
            pinned = len(json.load(f)[run.WORKLOADS[0]])
        input_seed, pins = run.pinned_inputs(pinned + 5)
        self.assertEqual(input_seed, 5)
        self.assertEqual((input_seed, pins), run.pinned_inputs(5))
        self.assertEqual([pin.split("=")[0] for pin in pins],
                         list(run.WORKLOADS))

    def test_a_seed_without_a_pin_is_refused(self):
        pins = {workload: {"0": WRONG_PIN, "1": WRONG_PIN}
                for workload in run.WORKLOADS}
        del pins[run.WORKLOADS[-1]]["1"]
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as scratch:
            with open(os.path.join(scratch, "pins.json"), "w",
                      encoding="utf-8") as f:
                json.dump(pins, f)
            with mock.patch.object(run, "HERE", scratch):
                self.assertEqual(run.pinned_inputs(2)[0], 0)
                with self.assertRaises(SystemExit):
                    run.pinned_inputs(3)

    def test_run_py_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as scratch:
            shutil.copytree(run.HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "sweep_grid", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=scratch, capture_output=True, text=True,
                check=False, timeout=120,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(result.returncode, 0)
            self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/tests/run_tests.py

Builds the driver and perfbench_measure_test (GoogleTest: percentile
rule, seeded streams, span self times), runs the latter, and checks that
the metric and workload names the driver prints match BENCHMARK.json and
perfbench/layer_map.json.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)


def load(path):
    with open(os.path.join(run.ROOT, path)) as f:
        return json.load(f)


def driver_names():
    out = subprocess.run([run.DRIVER, "--list-metrics"], check=True,
                         capture_output=True, text=True).stdout
    names = {"end_to_end": {}, "per_layer": {}, "workload": {}}
    for line in out.splitlines():
        kind, name, *unit = line.split()
        names[kind][name] = unit[0] if unit else None
    return names


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("driver build failed")
        cls.benchmark = load("BENCHMARK.json")
        cls.names = driver_names()

    def test_measure_unit_tests(self):
        built = subprocess.run(["cmake", "--build", run.BUILD, "--target",
                                "perfbench_measure_test"], stdout=sys.stderr,
                               stderr=sys.stderr)
        if built.returncode != 0:
            self.skipTest("GoogleTest not available")
        done = subprocess.run([os.path.join(run.BUILD,
                                            "perfbench_measure_test")])
        self.assertEqual(done.returncode, 0)

    def test_end_to_end_names_match(self):
        for spec in self.benchmark["end_to_end"]:
            self.assertIn(spec["name"], self.names["end_to_end"])
            self.assertEqual(spec["unit"],
                             self.names["end_to_end"][spec["name"]])
        self.assertIn("setup_s", [m["name"]
                                  for m in self.benchmark["end_to_end"]])

    def test_per_layer_names_match(self):
        listed = {m["name"]: m["unit"] for m in self.benchmark["per_layer"]}
        self.assertEqual(listed, self.names["per_layer"])

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in self.benchmark["workloads"]],
                         list(self.names["workload"]))

    def test_layer_map_covers_every_per_layer_metric(self):
        layers = load("perfbench/layer_map.json")["layers"]
        self.assertEqual([entry["metric"] for entry in layers],
                         [m["name"] for m in self.benchmark["per_layer"]])
        workloads = {w["name"] for w in self.benchmark["workloads"]}
        for entry in layers:
            for target in entry["moves"]:
                self.assertIn(target, self.names["end_to_end"], entry)
            for workload in entry["workloads"]:
                self.assertIn(workload, workloads, entry)


if __name__ == "__main__":
    unittest.main()

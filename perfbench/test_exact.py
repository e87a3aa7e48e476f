#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_exact.py        (from the repository root)

For every workload and both trace modes it runs the benchmark twice with the
same seed and asserts that every exact counter (the report line's "exact"
block: bits, messages, codec bytes and calls, journal records, bytes and
syncs, checkpoint and trace bytes, crashes, worlds and covered weight,
synthesis stats, decision_round_mean) repeats bit-for-bit, that the result
line carries exactly the metrics BENCHMARK.json declares for the mode, and
that every run is correct with no failed item. A second seed must also
run with failed = 0.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 11
OTHER_SEED = 12
SECONDS = 1


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr[-4000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class ExactCounters(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def declared(self, trace):
        key = "per_layer" if trace else "end_to_end"
        return [(m["name"], m["unit"]) for m in self.spec[key]]

    def test_workloads(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    first_report, first = run(w["name"], SEED, trace)
                    second_report, second = run(w["name"], SEED, trace)
                    for report, result in ((first_report, first),
                                           (second_report, second)):
                        self.assertTrue(result["correct"], report["checks"])
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(
                            [(k, v["unit"]) for k, v in
                             result["metrics"].items()],
                            self.declared(trace))
                        self.assertEqual(report["env"]["seed"], SEED)
                    self.assertTrue(first_report["exact"])
                    self.assertEqual(first_report["exact"],
                                     second_report["exact"])

    def test_second_seed(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                report, result = run(w["name"], OTHER_SEED, 0)
                self.assertTrue(result["correct"], report["checks"])
                self.assertEqual(report["failed_frac"], 0)


if __name__ == "__main__":
    unittest.main()

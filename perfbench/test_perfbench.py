#!/usr/bin/env python3
"""The benchmark's own tests, on shrunken (--smoke) inputs.

    python3 perfbench/test_perfbench.py

1. Every workload prints every end-to-end metric of BENCHMARK.json with its
   unit and sample count, and its output checks pass.
2. Traced and untraced runs of every workload give identical outputs, and
   the traced run prints every per-layer metric with its self-time table
   and its overhead against the untraced half.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline", "advise", "stream", "sweep")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" %
                             (workload, trace, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def metric_lines(lines):
    """name -> (unit, note) from 'metric <name> <value> <unit> (<note>)'."""
    found = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+) \((.*)\)$", line)
        if m:
            float(m.group(2))
            found[m.group(1)] = (m.group(3), m.group(4))
    return found


def digests(lines):
    return sorted(line for line in lines if line.startswith("digest "))


class SmokeTest(unittest.TestCase):
    def check_result(self, result, names):
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(names))

    def test_end_to_end_metrics_print_with_unit_and_count(self):
        spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = run(workload, trace=0)
                self.check_result(result, spec)
                printed = metric_lines(lines)
                for name, unit in spec.items():
                    self.assertIn(name, printed)
                    self.assertEqual(printed[name][0], unit)
                    self.assertEqual(result["metrics"][name]["unit"], unit)
                    self.assertGreater(result["metrics"][name]["value"], 0)
                    if name != "peak_rss_mb":
                        self.assertRegex(printed[name][1],
                                         r"(n=\d+ ops|median of \d+ setups)")
                self.assertRegex(printed["op_p90_ms"][1], r"\d+ beyond")
                self.assertTrue(any(l.startswith("context {") for l in lines))
                self.assertEqual(len(digests(lines)),
                                 9 if workload == "sweep" else 10)

    def test_traced_run_matches_untraced(self):
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain, _ = run(workload, trace=0)
                traced, result = run(workload, trace=1)
                self.assertEqual(digests(traced), digests(plain))
                self.check_result(result, spec)
                printed = metric_lines(traced)
                for name, unit in spec.items():
                    self.assertEqual(printed[name][0], unit)
                self.assertRegex(printed["tracing.overhead_pct"][1],
                                 r"traced \(n=\d+\) vs untraced \(n=\d+\)")
                self.assertTrue(
                    any(re.match(r"span op\s+count=\d+ .*self_ms=", l)
                        for l in traced))


if __name__ == "__main__":
    unittest.main()

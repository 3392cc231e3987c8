"""Determinism and metric-math tests of the benchmark.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

The first run builds the benchmark (see perfbench/run.py).  The tests run
the perfbench binary directly with short --seconds; lossy_download always
runs its fixed 200 rotations, so its two runs take most of the time.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("replay_hot", "fresh_churn", "udp_loopback", "lossy_download")
# Workloads whose outputs pass their checks on the current code (see
# README.md for fresh_churn).
PASSING = ("replay_hot", "udp_loopback", "lossy_download")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build()
        cls.exe = os.path.join(cls.out, "perfbench")
        cls.runs = {}

    def perfbench(self, *args):
        return subprocess.run([self.exe, *args], capture_output=True,
                              text=True, timeout=170)

    def run_workload(self, workload, seed, seconds=1, trace=0):
        """Runs a workload once per argument set; returns (notes, result)."""
        key = (workload, seed, seconds, trace)
        if key not in self.runs:
            p = self.perfbench("run", "--workload", workload, "--seed",
                            str(seed), "--seconds", str(seconds), "--trace",
                            str(trace), "--gateway",
                            os.path.join(self.out, "bytecache_gateway"))
            lines = p.stdout.strip().splitlines()
            self.assertEqual(p.returncode, 0, p.stdout[-3000:] + p.stderr)
            self.runs[key] = (lines[:-1], json.loads(lines[-1]))
        return self.runs[key]

    def digest(self, workload, seed):
        p = self.perfbench("digest", "--workload", workload, "--seed", str(seed))
        self.assertEqual(p.returncode, 0, p.stderr)
        return p.stdout.strip()

    def test_metric_math_selftest(self):
        p = self.perfbench("selftest")
        self.assertEqual(p.returncode, 0, p.stdout)

    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        listed = self.perfbench("metrics").stdout.split("\n")
        e2e = [l.split()[1:] for l in listed if l.startswith("end_to_end ")]
        layer = [l.split()[1:] for l in listed if l.startswith("per_layer ")]
        self.assertEqual(e2e, [[m["name"], m["unit"]]
                               for m in spec["end_to_end"]])
        self.assertEqual(layer, [[m["name"], m["unit"]]
                                 for m in spec["per_layer"]])

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = self.digest(w, 7)
                self.assertEqual(a, self.digest(w, 7))
                self.assertNotEqual(a, self.digest(w, 8))

    def test_same_seed_same_outcomes(self):
        # wire_ratio, the simulated download times and the input digest
        # depend on the seed alone, not on timing.
        for w in PASSING:
            with self.subTest(workload=w):
                notes1, r1 = self.run_workload(w, 5)
                notes2, r2 = self.run_workload(w, 5, seconds=2)
                self.assertEqual(r1["metrics"]["wire_ratio"],
                                 r2["metrics"]["wire_ratio"])
                if w == "lossy_download":
                    for m in ("latency_us_p50", "latency_us_p95"):
                        self.assertEqual(r1["metrics"][m], r2["metrics"][m])
                digest = [n for n in notes1 if "digest" in n]
                self.assertEqual(digest,
                                 [n for n in notes2 if "digest" in n])
                self.assertIn(self.digest(w, 5), digest[0])

    def test_result_line_and_counts(self):
        for w in PASSING:
            with self.subTest(workload=w):
                notes, r = self.run_workload(w, 5)
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                # Every failure is counted against the attempts and named
                # (lossy_download counts a stalled trial as a failure).
                named = [n for n in notes if n.startswith("# failed trial")]
                self.assertEqual(r["failed"], len(named))
                self.assertLessEqual(r["failed"], r["attempted"])
                if w != "lossy_download":
                    self.assertEqual(r["failed"], 0)
                self.assertTrue(any(n.startswith("# env: build_type=Release "
                                                 "audit=off") for n in notes))
                for m in r["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_every_ratio_prints_its_base(self):
        notes, r = self.run_workload("replay_hot", 5, trace=1)
        absent = next((n for n in notes if n.startswith("# not on this")), "")
        for name, m in r["metrics"].items():
            if m["unit"] != "ratio" or name in absent.split():
                continue
            with self.subTest(metric=name):
                pat = re.compile(r"^# ratio %s = \S+ \(.+\) / \S+ \(.+\)$"
                                 % re.escape(name))
                self.assertTrue(any(pat.match(n) for n in notes), name)

    def test_percentiles_state_their_sample_count(self):
        for w in PASSING:
            with self.subTest(workload=w):
                notes, _ = self.run_workload(w, 5)
                counts = [int(m.group(1)) for n in notes
                          for m in [re.match(r"# samples: latency_us_\* over "
                                             r"(\d+)", n)] if m]
                self.assertEqual(len(counts), 1)
                self.assertGreaterEqual(counts[0], 200)  # p95 + 10 beyond


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Short-mode test of the benchmark.

    python3 perfbench/test_short.py

Runs every workload of BENCHMARK.json at tiny size through run.py,
untraced and traced, and checks that each named metric is present,
finite and carries its unit, that the output checks passed, and that
the traced run's span file parses and reconciles: spans nest inside
their parents, self times sum to the root spans, and the layer spans
account for the traced wall time within the declared bound. Also
checks that the benchmark refuses to run without the library sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "2", "--trace", str(trace)]
    if cwd == ROOT:
        cmd.append("--short")
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def self_times(events):
    """Self time of every span: duration minus its children's union."""
    kids = {i: [] for i in range(len(events))}
    for i, e in enumerate(events):
        parent = e["args"]["parent"]
        if parent >= 0:
            kids[parent].append((e["ts"], e["ts"] + e["dur"]))
    out = []
    for i, e in enumerate(events):
        begin, end = e["ts"], e["ts"] + e["dur"]
        covered, reach = 0.0, begin
        for b, x in sorted(kids[i]):
            lo, hi = max(b, reach), min(x, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(x, end))
        out.append(max(0.0, e["dur"] - covered))
    return out


class ShortMode(unittest.TestCase):

    def check_result(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        named = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in named})
        for m in named:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        detail = json.loads(lines[-2].split(" ", 1)[1])
        for key in ("nproc", "hardware_concurrency", "simd_backend",
                    "build_type", "compiler", "commit", "seed"):
            self.assertIn(key, detail["host"])
        self.assertNotEqual(detail["host"]["simd_backend"], "model")
        for phase in detail["phases"]:
            self.assertEqual(phase["sent"],
                             phase["succeeded"] + phase["failed"])
        return result, detail

    def check_spans(self, workload, detail):
        path = os.path.join(ROOT, ".bench_build", "traces",
                            "%s-seed%d.json" % (workload, SEED))
        self.assertEqual(detail["trace"]["file"], path)
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        self.assertGreater(len(events), 0)
        for i, e in enumerate(events):
            self.assertEqual(e["ph"], "X")
            self.assertEqual(e["args"]["span"], i)
            parent = e["args"]["parent"]
            self.assertLess(parent, i)
            if parent >= 0:
                p = events[parent]
                self.assertGreaterEqual(e["ts"], p["ts"] - 1e-3)
                self.assertLessEqual(e["ts"] + e["dur"],
                                     p["ts"] + p["dur"] + 1e-3)
                self.assertEqual(e["args"]["request"],
                                 p["args"]["request"])
        selfs = self_times(events)
        roots = sum(e["dur"] for e in events if e["args"]["parent"] < 0)
        self.assertAlmostEqual(sum(selfs), roots, delta=1e-6 * roots + 1)
        layer_us = sum(s for s, e in zip(selfs, events)
                       if e["args"]["parent"] >= 0)
        traced_us = detail["trace"]["traced_ms"] * 1000.0
        bound = detail["trace"]["coverage_bound"]
        self.assertGreaterEqual(layer_us / traced_us, 1 - bound - 1e-3)

    def test_workloads(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_result(w["name"], 0)
            with self.subTest(workload=w["name"], trace=1):
                _, detail = self.check_result(w["name"], 1)
                self.check_spans(w["name"], detail)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for p in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(tmp, p))
            done = run(BENCH["workloads"][0]["name"], 0, cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)

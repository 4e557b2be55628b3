#!/usr/bin/env python3
"""Smoke tests of the socket-mode benchmark.

    python3 sockbench/test_smoke.py

Runs every workload at small size, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit, that every
answer matched the simulated oracle and every daemon drained, and that the
provenance is recorded. Also checks that the benchmark refuses to run
without the repository's sources. The span arithmetic has unit tests in
`src/spans.rs` (`cargo test --manifest-path sockbench/Cargo.toml`).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("sockbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        prov = json.loads(lines[-2])["provenance"]
        for key in ("git_rev", "source_digest", "host", "nproc", "seed", "samples"):
            self.assertIn(key, prov)
        self.assertEqual(prov["clock"], "wall")
        self.assertEqual(prov["problems"], [])
        return result["metrics"]

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 0)
                self.assertEqual(m["ok_frac"]["value"], 1.0)
                self.assertGreater(m["lat_p50_ms"]["value"], 0.0)

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 1)
                for name in ("front.parse_us", "front.decompose_us", "coord.self_us",
                             "xchg.us", "peer.service_us"):
                    self.assertGreater(m[name]["value"], 0.0, name)
                self.assertGreaterEqual(m["scatter.overlap"]["value"], 1.0)

    def test_refuses_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("target"))
        done = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()

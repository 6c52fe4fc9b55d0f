#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny scale.

    python3 slcbench/selftest.py          # from the root of a checkout

Every workload runs untraced and traced with `--scale tiny`. Each run must
print exactly the metrics BENCHMARK.json names for its mode, with their
units, under names made of [A-Za-z0-9_.-], and report no failed operation
(the traced run's failures include the SLC replay mirror check). A copy of
the benchmark without the repository next to it must fail without printing
a result. The Rust unit tests run with `cargo test --manifest-path
slcbench/Cargo.toml`.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "slcbench" / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


class SpecTest(unittest.TestCase):
    def test_names_are_unique_and_well_formed(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)

    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class WorkloadTest(unittest.TestCase):
    def check_run(self, workload, trace):
        p = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], p.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertRegex(m["name"], NAME)
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0)

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1)

    def test_fails_without_the_repository(self):
        bare = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve() / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "slcbench", ignore=shutil.ignore_patterns("target", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            p = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

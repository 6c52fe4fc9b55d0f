#!/usr/bin/env python3
"""Self-test for check_bench_regression.py (stdlib only).

Run: python3 tools/test_check_bench_regression.py

Each case writes baseline/candidate bench JSON into a temp directory and
runs the gate's main() on them, checking the exit status and that the
offending ids are named.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check_bench_regression as gate  # noqa: E402

BASE = {
    "compress_block/bdi": 100.0,
    "compress_block/rans": 200.0,
    "decompress_block/bdi": 50.0,
    "eval/prepare_all": 1000.0,
    "engine/compress_e2e": 4000.0,
}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, rows):
        """Writes `rows` (a dict, or a list of (id, ns) pairs) as bench JSON."""
        pairs = rows.items() if isinstance(rows, dict) else rows
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as fh:
            json.dump({"bench": "codec_throughput", "unit": "ns_per_iter",
                       "results": [{"id": k, "ns_per_iter": v, "iterations": 1}
                                   for k, v in pairs]}, fh)
        return path

    def run_gate(self, base_path, cand_path):
        """Runs the gate; returns (exit status, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = gate.main([base_path, cand_path])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, base_rows, cand_rows):
        return self.run_gate(self.write("base.json", base_rows),
                             self.write("cand.json", cand_rows))

    def test_identical_id_sets_pass(self):
        code, out, _ = self.check(BASE, BASE)
        self.assertEqual(code, 0, out)
        self.assertIn("row set matches the baseline (5 rows)", out)

    def test_dropped_baseline_row_fails_and_is_named(self):
        cand = {k: v for k, v in BASE.items() if k != "compress_block/rans"}
        code, out, _ = self.check(BASE, cand)
        self.assertEqual(code, 1)
        self.assertIn("MISSING  compress_block/rans", out)

    def test_extra_candidate_row_fails_and_is_named(self):
        # A loop-generated id (`compress_block/<codec>`) is caught like any
        # other: the gate compares emitted ids, not source literals.
        cand = dict(BASE, **{"compress_block/x": 120.0, "sim/new_row": 10.0})
        code, out, _ = self.check(BASE, cand)
        self.assertEqual(code, 1)
        self.assertIn("UNLISTED compress_block/x", out)
        self.assertIn("UNLISTED sim/new_row", out)

    def test_duplicated_id_fails(self):
        repeated = list(BASE.items()) + [("compress_block/bdi", 90.0)]
        for base_rows, cand_rows in ((BASE, repeated), (repeated, BASE)):
            code, _, err = self.check(base_rows, cand_rows)
            self.assertEqual(code, 1)
            self.assertIn("repeats row id(s): compress_block/bdi", err)

    def test_uniform_slowdown_passes(self):
        code, out, _ = self.check(BASE, {k: 2 * v for k, v in BASE.items()})
        self.assertEqual(code, 0, out)
        self.assertIn("median machine-speed ratio: 2.00x", out)

    def test_single_row_slower_than_peers_fails(self):
        cand = dict(BASE, **{"eval/prepare_all": 2 * BASE["eval/prepare_all"]})
        code, out, _ = self.check(BASE, cand)
        self.assertEqual(code, 1)
        self.assertIn("eval/prepare_all: 2.00x", out)

    def test_pivot_clamps_when_most_rows_improve(self):
        # Four rows twice as fast, one unchanged: the median ratio is 0.5,
        # and an unclamped pivot would report the unchanged row at 2x.
        cand = {k: v / 2 for k, v in BASE.items()}
        cand["engine/compress_e2e"] = BASE["engine/compress_e2e"]
        code, out, _ = self.check(BASE, cand)
        self.assertEqual(code, 0, out)
        self.assertIn("median machine-speed ratio: 1.00x", out)

    def test_malformed_or_missing_json_exits_with_one_line(self):
        base = self.write("base.json", BASE)
        broken = os.path.join(self.tmp.name, "broken.json")
        with open(broken, "w") as fh:
            fh.write('{"results": [')
        wrong_shape = os.path.join(self.tmp.name, "shape.json")
        with open(wrong_shape, "w") as fh:
            json.dump({"results": [{"name": "compress_block/bdi"}]}, fh)
        missing = os.path.join(self.tmp.name, "absent.json")
        for cand in (broken, wrong_shape, missing):
            code, out, err = self.run_gate(base, cand)
            self.assertEqual(code, 1, cand)
            self.assertEqual(out, "")
            lines = err.splitlines()
            self.assertEqual(len(lines), 1, err)
            self.assertTrue(lines[0].startswith("check_bench_regression: "), err)
            self.assertIn(cand, lines[0])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 perfbench/test_bench.py

- Modeled identity: two same-seed runs of each workload give identical
  stats digests, modeled_us and modeled_uj_per_op, and another seed
  gives other inputs (another digest). A change that claims to touch
  host code only can prove with this that modeled results are unchanged.
- Deadline accounting: the known dispatch hang (nw_dispatch with a
  window of 8 outstanding commands per core) is cut at the deadline and
  every command it left unfinished counts as failed.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# One round after the setup-only repetitions.
SHORT_S = 0.01


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def summarize(self, workload, seed, **kw):
        records, cut = run.run_harness(self.binary, workload, seed,
                                       SHORT_S, None, **kw)
        return run.summarize(workload, seed, SHORT_S, 0, records, cut, [])

    def check_identity(self, workload):
        first, second, other = (self.summarize(workload, s)
                                for s in (7, 7, 8))
        for correct, attempted, failed, _, summary in (first, second,
                                                       other):
            self.assertTrue(correct, summary["errors"])
            self.assertEqual(failed, 0)
            self.assertGreater(attempted, 0)
        a, b, c = first[4], second[4], other[4]
        for key in ("digest", "modeled_us", "modeled_uj_per_op"):
            self.assertEqual(a[key], b[key], key)
        self.assertNotEqual(a["digest"], c["digest"])

    def test_memcpy_stream_identity(self):
        self.check_identity("memcpy_stream")

    def test_nw_dispatch_identity(self):
        self.check_identity("nw_dispatch")

    def test_dispatch_hang_counts_unfinished_ops_as_failed(self):
        correct, attempted, failed, metrics, summary = self.summarize(
            "nw_dispatch", 1, deadline=20, extra_args=("--window=8",))
        self.assertFalse(correct)
        self.assertIn("deadline expired", summary["errors"])
        self.assertGreater(failed, 0)
        self.assertLess(metrics["ok_op_frac"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark: its statistics, a smoke run of every
workload, and the counting of failed ops.

    python3 perfbench/test_run.py

The run cases build the harness first (as run.py does) and take about a
minute together.
"""
import statistics
import unittest

import run


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_percentile_interpolates_between_ranks(self):
        values = [float(i) for i in range(11)]  # 0..10
        self.assertEqual(run.percentile(values, 0), 0.0)
        self.assertEqual(run.percentile(values, 50), 5.0)
        self.assertAlmostEqual(run.percentile(values, 95), 9.5)
        self.assertEqual(run.percentile(values, 100), 10.0)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile([1.0] * 19))
        self.assertEqual(run.tail_percentile([1.0] * 20)[0], 50.0)
        self.assertEqual(run.tail_percentile([1.0] * 100)[0], 90.0)
        self.assertEqual(run.tail_percentile([1.0] * 999)[0], 90.0)
        self.assertEqual(run.tail_percentile([1.0] * 1000)[0], 99.0)

    def test_spread_is_quartile_distance_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / 5.5)
        self.assertEqual(run.spread([2.0] * 10), 0.0)

    def test_loc_counts_code_lines_only(self):
        text = "\n".join([
            "// comment", "", "int a;", "/* block", " still */", "/* one line */",
            "  int b;  // trailing", "   ", "/**/",
        ])
        self.assertEqual(run.count_loc(text), 2)


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_smoke_every_workload(self):
        self.assertTrue(run.smoke(self.binary, run.load_spec()))

    def test_osem_reproduces_fig4b_and_verifies_another_seed(self):
        result, _, raw = run.run_workload(self.binary, "osem", 42, 0, False)
        self.assertTrue(result["correct"])
        self.assertEqual(round(raw["sim_s"], 6), 0.003794)  # Fig. 4b, SkelCL, 4 GPUs
        result, _, raw = run.run_workload(self.binary, "osem", 7, 0, False)
        self.assertTrue(result["correct"])
        self.assertNotEqual(round(raw["sim_s"], 6), 0.003794)

    def measure(self, fault, op_timeout=run.OP_TIMEOUT):
        result, detail, _ = run.run_workload(self.binary, "cluster_mix", 7, 1.0, False,
                                             smoke=True, fault=fault, op_timeout=op_timeout)
        return result, detail

    def test_wrong_output_is_a_failed_op(self):
        result, detail = self.measure("wrong")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], 2)
        self.assertIn("wrong output", detail["failures"][0])

    def test_aborted_child_is_a_failed_op_and_the_run_goes_on(self):
        result, detail = self.measure("abort")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(detail["ops"], 2)  # a fresh child used the rest of the time

    def test_crash_at_exit_after_done_is_counted(self):
        result, detail = self.measure("abort_at_exit")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(detail["ops"], 2)
        self.assertIn("exit code", detail["failures"][0])

    def test_hung_child_is_killed_and_counted(self):
        result, detail = self.measure("hang", op_timeout=2.0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("timed out", detail["failures"][0])


if __name__ == "__main__":
    unittest.main()

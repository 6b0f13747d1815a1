#!/usr/bin/env python3
"""Unit tests for compare.py (stdlib unittest).

  python3 benchmark/test_compare.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.1},
]}


def report(workload, seed, throughput, latency, traced=False, correct=True,
           cycles=1000):
    return {"workload": workload, "seed": seed, "traced": traced,
            "smoke": False, "correct": correct,
            "invariants": {"reference_total_cycles": cycles + seed},
            "metrics": {
                "throughput_per_s": {"value": throughput, "unit": "1/s"},
                "latency_p50_ms": {"value": latency, "unit": "ms"}}}


def write_runs(directory, reports):
    for r in reports:
        name = "%s-seed%d%s.json" % (r["workload"], r["seed"],
                                     "-traced" if r["traced"] else "")
        with open(os.path.join(directory, name), "w") as f:
            json.dump(r, f)


class VerdictTest(unittest.TestCase):
    def test_clear_improvement_is_a_gain(self):
        result, won = compare.verdict([100, 101, 102, 103, 104],
                                      [110, 111, 112, 113, 114],
                                      "higher", 0.1)
        self.assertEqual(result, "gain")
        self.assertEqual(won, 1.0)

    def test_lower_is_better_direction(self):
        result, _ = compare.verdict([10.0, 10.1, 10.2, 10.3],
                                    [9.0, 9.1, 9.2, 9.3], "lower", 0.1)
        self.assertEqual(result, "gain")
        result, _ = compare.verdict([10.0, 10.1, 10.2, 10.3],
                                    [12.0, 12.1, 12.2, 12.3], "lower", 0.1)
        self.assertEqual(result, "regression")

    def test_worse_by_more_than_the_bound_is_a_regression(self):
        result, won = compare.verdict([100, 101, 102, 103],
                                      [85, 86, 87, 88], "higher", 0.1)
        self.assertEqual(result, "regression")
        self.assertEqual(won, 0.0)

    def test_worse_within_the_bound_is_not_a_regression(self):
        result, _ = compare.verdict([100, 101, 102, 103],
                                    [95, 96, 97, 98], "higher", 0.1)
        self.assertEqual(result, "unchanged")

    def test_gain_needs_nine_tenths_of_pairs(self):
        # The medians differ by more than the parent's IQR, but the change
        # wins only 8 of 10 pairs.
        parent = [100, 100, 100, 100, 100, 100, 100, 100, 130, 130]
        change = [110, 110, 110, 110, 110, 110, 110, 110, 100, 100]
        result, won = compare.verdict(parent, change, "higher", 0.25)
        self.assertAlmostEqual(won, 0.8)
        self.assertNotEqual(result, "gain")

    def test_gain_needs_a_difference_beyond_the_parent_iqr(self):
        parent = [100, 104, 108, 112, 116]
        change = [101, 105, 109, 113, 117]
        result, won = compare.verdict(parent, change, "higher", 0.25)
        self.assertEqual(won, 1.0)
        self.assertEqual(result, "unchanged")

    def test_ties_count_for_neither_side(self):
        _, won = compare.verdict([5, 5, 5, 5], [5, 5, 6, 6], "higher", 0.1)
        self.assertEqual(won, 0.5)

    def test_wide_spread_is_unresolved(self):
        parent = [60, 80, 100, 120, 140]
        change = [70, 85, 100, 118, 135]
        result, _ = compare.verdict(parent, change, "higher", 0.1)
        self.assertEqual(result, "unresolved")

    def test_wide_spread_with_every_run_better_is_not_unresolved(self):
        parent = [60, 70, 80, 90, 100]
        change = [101, 102, 103, 104, 105]
        result, _ = compare.verdict(parent, change, "higher", 0.05)
        self.assertNotEqual(result, "unresolved")

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4, 5]), (1.5, 3.0, 4.5))
        self.assertEqual(compare.quartiles([7]), (7, 7, 7))


class DirectoryTest(unittest.TestCase):
    def setUp(self):
        self.parent = tempfile.TemporaryDirectory()
        self.change = tempfile.TemporaryDirectory()
        self.spec_dir = tempfile.TemporaryDirectory()
        self.spec = os.path.join(self.spec_dir.name, "BENCHMARK.json")
        with open(self.spec, "w") as f:
            json.dump(SPEC, f)

    def tearDown(self):
        for d in (self.parent, self.change, self.spec_dir):
            d.cleanup()

    def run_main(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = compare.main([self.parent.name, self.change.name,
                                 "--spec", self.spec])
        return code, out.getvalue()

    def test_load_runs_keeps_untraced_reports_in_seed_order(self):
        write_runs(self.parent.name, [report("a", 3, 1, 1), report("a", 1, 1, 1),
                                      report("a", 2, 1, 1, traced=True),
                                      report("b", 1, 1, 1)])
        with open(os.path.join(self.parent.name, "a-seed1.trace.json"),
                  "w") as f:
            json.dump({"traceEvents": []}, f)
        runs = compare.load_runs(self.parent.name)
        self.assertEqual(sorted(runs), ["a", "b"])
        self.assertEqual([r["seed"] for r in runs["a"]], [1, 3])

    def test_identical_sets_report_no_gain_and_no_regression(self):
        reports = [report("w", s, 100 + s, 10 + 0.01 * s) for s in range(5)]
        write_runs(self.parent.name, reports)
        write_runs(self.change.name, reports)
        code, out = self.run_main()
        self.assertEqual(code, 0)
        self.assertEqual(out.count("| unchanged |"), 2)

    def test_regression_fails_the_comparison(self):
        write_runs(self.parent.name,
                   [report("w", s, 100 + s, 10) for s in range(5)])
        write_runs(self.change.name,
                   [report("w", s, 80 + s, 10) for s in range(5)])
        code, out = self.run_main()
        self.assertEqual(code, 1)
        self.assertIn("| w | throughput_per_s | 1/s |", out)
        self.assertIn("| regression |", out)

    def test_incorrect_run_fails_the_comparison(self):
        write_runs(self.parent.name, [report("w", 1, 100, 10)])
        write_runs(self.change.name, [report("w", 1, 100, 10, correct=False)])
        code, out = self.run_main()
        self.assertEqual(code, 1)
        self.assertIn("incorrect run: change w seed 1", out)

    def test_changed_invariant_fails_the_comparison(self):
        write_runs(self.parent.name, [report("w", 1, 100, 10),
                                      report("w", 2, 100, 10)])
        write_runs(self.change.name, [report("w", 1, 100, 10),
                                      report("w", 2, 100, 10, cycles=999)])
        code, out = self.run_main()
        self.assertEqual(code, 1)
        self.assertIn("invariant changed: w seed 2 reference_total_cycles", out)
        self.assertNotIn("seed 1", out)


if __name__ == "__main__":
    unittest.main()

"""Tests for e2e_ab.py's aggregation and gain rule.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import io
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import e2e_ab  # noqa: E402

SPECS = e2e_ab.load_specs()


def spec(name):
    return next(s for s in SPECS if s["name"] == name)


def fake_round(load_ms, run_ms=1000, rss_kb=1024, digest="a", failures=()):
    """One nvmdb_e2e round of two cells with the given per-cell times."""
    cells = []
    for engine in ("InP", "CoW"):
        cells.append({
            "engine": engine, "tasks": 100, "committed": 100,
            "open_ns": 0, "load_ns": load_ms * 10**6, "gen_ns": 0,
            "run_ns": run_ms * 10**6, "verify_ns": 0, "recover_ns": 10**6,
            "close_ns": 0,
            "digest": {"counters": digest, "latency": "l", "commits": "c",
                       "state": "s"},
            "failures": list(failures),
        })
    return {"peak_rss_kb": rss_kb, "cells": cells}


class QuartilesTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(e2e_ab.quartiles([5, 1, 3]), (1, 3, 5))
        self.assertEqual(e2e_ab.quartiles([4, 1, 3, 2]), (1.5, 2.5, 3.5))

    def test_single_value(self):
        self.assertEqual(e2e_ab.quartiles([7]), (7, 7, 7))


class BetterTest(unittest.TestCase):
    def test_direction_and_ties(self):
        self.assertEqual(e2e_ab.better(spec("setup_s"), 1.0, 2.0), 1)
        self.assertEqual(e2e_ab.better(spec("setup_s"), 2.0, 1.0), -1)
        self.assertEqual(e2e_ab.better(spec("run_tps"), 2.0, 1.0), 1)
        self.assertEqual(e2e_ab.better(spec("run_tps"), 1.0, 1.0), 0)


class CompareTest(unittest.TestCase):
    def test_gain_needs_wins_and_margin_over_parent_iqr(self):
        parent = [10.0, 10.5, 11.0, 10.2, 10.8, 10.4, 10.6, 10.1, 10.9, 10.3]
        change = [v - 3 for v in parent]
        r = e2e_ab.compare(spec("setup_s"), parent, change)
        self.assertEqual((r["wins"], r["losses"], r["pairs"]), (10, 0, 10))
        self.assertTrue(r["gain"])
        self.assertTrue(r["within_bound"])
        self.assertAlmostEqual(r["delta"], -3 / 10.45)

    def test_one_loss_in_ten_still_gains_two_do_not(self):
        parent = [10.0] * 10
        change = [7.0] * 9 + [11.0]
        self.assertTrue(e2e_ab.compare(spec("setup_s"), parent, change)[
            "gain"])
        change = [7.0] * 8 + [11.0, 11.0]
        self.assertFalse(e2e_ab.compare(spec("setup_s"), parent, change)[
            "gain"])

    def test_difference_inside_parent_iqr_is_no_gain(self):
        parent = [8.0, 12.0, 8.0, 12.0]
        change = [7.5, 11.5, 7.5, 11.5]
        r = e2e_ab.compare(spec("setup_s"), parent, change)
        self.assertEqual(r["wins"], 4)
        self.assertFalse(r["gain"])

    def test_bound_uses_better_direction(self):
        # run_tps is higher-is-better with a 0.24 bound.
        r = e2e_ab.compare(spec("run_tps"), [100.0] * 3, [80.0] * 3)
        self.assertTrue(r["within_bound"])
        r = e2e_ab.compare(spec("run_tps"), [100.0] * 3, [70.0] * 3)
        self.assertFalse(r["within_bound"])


class ReportTest(unittest.TestCase):
    def test_matching_digests_and_metric_rows(self):
        parent = [fake_round(100), fake_round(110)]
        change = [fake_round(50), fake_round(55)]
        out = io.StringIO()
        self.assertTrue(e2e_ab.report("tpcc", SPECS, parent, change, out))
        text = out.getvalue()
        self.assertIn("model digest: match", text)
        row = next(line for line in text.splitlines()
                   if line.startswith("setup_s"))
        self.assertIn("-50.0%", row)
        self.assertIn(" 2/2 ", row)

    def test_differing_digest_or_failure_is_reported(self):
        out = io.StringIO()
        self.assertFalse(e2e_ab.report(
            "tpcc", SPECS, [fake_round(100)], [fake_round(90, digest="b")],
            out))
        self.assertIn("model digest: DIFFER", out.getvalue())
        out = io.StringIO()
        self.assertFalse(e2e_ab.report(
            "tpcc", SPECS, [fake_round(100)],
            [fake_round(90, failures=["state differs"])], out))
        self.assertIn("FAILED InP: state differs", out.getvalue())

    def test_round_values_match_run_py_aggregation(self):
        values = e2e_ab.round_values(fake_round(100, run_ms=500,
                                                rss_kb=2048))
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["run_tps"], 200 / 1.0)
        self.assertAlmostEqual(values["recover_s"], 0.002)
        self.assertAlmostEqual(values["peak_rss_mb"], 2.0)


if __name__ == "__main__":
    unittest.main()

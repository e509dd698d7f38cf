"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import struct
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_rank_is_nearest_rank(self):
        self.assertEqual(metrics.rank_of(50, 10), 5)
        self.assertEqual(metrics.rank_of(99, 100), 99)
        self.assertEqual(metrics.rank_of(99, 101), 100)
        self.assertEqual(metrics.rank_of(0.001, 5), 1)
        self.assertEqual(metrics.rank_of(100, 5), 5)

    def test_highest_percentile_with_ten_samples_beyond(self):
        # p99 of 1000 samples has rank 990: exactly 10 beyond it.
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        # p99.9 of 10000 has rank 9990: exactly 10 beyond.
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        # 999 samples: p99 has rank 990, 9 beyond; p95 has 49 beyond.
        self.assertEqual(metrics.tail_percentile(999), 95.0)
        self.assertEqual(metrics.tail_percentile(100000), 99.99)
        # 90 samples: p90 leaves 9 beyond, p80 leaves 18.
        self.assertEqual(metrics.tail_percentile(90), 80.0)
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertIsNone(metrics.tail_percentile(0))

    def test_percentile_values(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([], 50), 0)

    def test_median(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])


class CellMedianTest(unittest.TestCase):
    def test_sum_of_per_cell_medians(self):
        def rnd(a, b):
            return {"cells": [{"engine": "InP", "run_ns": a},
                              {"engine": "CoW", "run_ns": b}]}
        # A hiccup in a different cell in each round is discarded.
        rounds = [rnd(100, 900), rnd(500, 200), rnd(110, 210)]
        self.assertEqual(
            metrics.cell_median_sum(rounds, metrics.phase_ns("run")),
            110 + 210)

    def test_phase_sum(self):
        cell = {p + "_ns": i for i, p in enumerate(metrics.PHASES)}
        self.assertEqual(metrics.phase_ns("open", "load", "gen")(cell), 3)
        self.assertEqual(metrics.phase_ns(*metrics.PHASES)(cell), 21)


class SelfTimeTest(unittest.TestCase):
    def test_disjoint_children(self):
        self.assertEqual(metrics.self_time(0, 100, [(10, 20), (30, 50)]), 70)

    def test_overlapping_children_count_once(self):
        # [10,40) and [30,60) overlap on [30,40): union covers 50.
        self.assertEqual(metrics.self_time(0, 100, [(10, 40), (30, 60)]), 50)
        # A child nested inside another adds nothing.
        self.assertEqual(metrics.self_time(0, 100, [(10, 90), (20, 30)]), 20)
        # Order does not matter.
        self.assertEqual(metrics.self_time(0, 100, [(30, 60), (10, 40)]), 50)

    def test_children_clipped_to_parent(self):
        self.assertEqual(metrics.self_time(10, 20, [(0, 15), (18, 30)]), 3)
        self.assertEqual(metrics.self_time(10, 20, [(30, 40)]), 10)
        self.assertEqual(metrics.self_time(10, 20, [(0, 40)]), 0)

    def test_touching_children(self):
        self.assertEqual(metrics.self_time(0, 10, [(0, 5), (5, 10)]), 0)

    def test_span_file_round_trip(self):
        names = ["txn", "workload.body", "engine.select", "engine.commit"]
        spans = [
            (0, 100, 0, 0, 7),     # 1 txn
            (5, 80, 1, 1, 7),      # 2 body
            (10, 30, 2, 2, 7),     # 3 select in body
            (25, 50, 2, 2, 7),     # 4 overlapping select in body
            (85, 95, 3, 1, 7),     # 5 commit, child of txn
            (100, 200, 0, 0, 8),   # 6 txn
            (110, 150, 1, 6, 8),   # 7 body with no engine calls
        ]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.bin")
            with open(path, "wb") as f:
                f.write(b"NVSPAN1\n" + struct.pack("<I", len(names)))
                for n in names:
                    f.write(struct.pack("<H", len(n)) + n.encode())
                f.write(struct.pack("<Q", len(spans)))
                for s in spans:
                    f.write(metrics.SPAN.pack(*s))
            got_names, it = metrics.read_spans(path)
            durations, body_self = metrics.span_stats(got_names, list(it))
        self.assertEqual(list(durations["engine.select"]), [20, 25])
        self.assertEqual(list(durations["txn"]), [100, 100])
        # Body 1: 75 long, selects cover [10,50) = 40. Body 2: no children.
        self.assertEqual(list(body_self), [35, 40])


class FailAccountingTest(unittest.TestCase):
    def test_failed_cells_count_all_their_transactions(self):
        cells = [{"tasks": 100, "failures": []},
                 {"tasks": 300, "failures": ["checksum differs"]},
                 {"tasks": 600, "failures": []}]
        attempted, failed, frac = metrics.fail_accounting(cells)
        self.assertEqual((attempted, failed), (1000, 300))
        self.assertAlmostEqual(frac, 0.3)

    def test_no_failures(self):
        self.assertEqual(metrics.fail_accounting(
            [{"tasks": 5, "failures": []}]), (5, 0, 0.0))

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(metrics.fail_accounting([]), (0, 0, 1.0))

    def test_cycle_failures_mark_the_engine(self):
        def cell(engine, ckpt=5, compact=5):
            return {"engine": engine, "ckpt_events": ckpt,
                    "compactions": compact,
                    "wa_tenths": [[10 * (k + 1), k + 1] for k in range(10)]}
        cells = [cell(k) for k in metrics.ENGINE_KINDS]
        self.assertEqual(metrics.cycle_failures("tpcc", cells), {})
        cells[0] = cell("InP", ckpt=2)
        self.assertEqual(list(metrics.cycle_failures("tpcc", cells)), ["InP"])
        # YCSB write-cold has no InP checkpoints by design.
        self.assertEqual(metrics.cycle_failures("ycsb-write-cold", cells), {})
        self.assertEqual(metrics.cycle_failures("ycsb-read-hot", cells), {})


class MetricFormatTest(unittest.TestCase):
    def test_entry_shape(self):
        name, entry = metrics.metric("engine.NVM-Log.run_s", 1.25, "s")
        self.assertEqual(name, "engine.NVM-Log.run_s")
        self.assertEqual(entry, {"value": 1.25, "unit": "s"})
        metrics.metric("run_tps", 10, "txn/s")
        metrics.metric("x", 0.5, "%")

    def test_rejects_bad_names_and_units(self):
        for bad in ("", "_lead", ".lead", "has space", "a" * 65, "a/b"):
            with self.assertRaises(ValueError):
                metrics.metric(bad, 1, "s")
        for bad in ("", "a" * 17, "m s", "s;"):
            with self.assertRaises(ValueError):
                metrics.metric("ok", 1, bad)

    def test_rejects_non_numbers(self):
        for bad in (None, "1", True, float("nan"), float("inf")):
            with self.assertRaises(ValueError):
                metrics.metric("ok", bad, "s")

    def test_benchmark_json_metrics_are_well_formed(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as f:
            bench = json.load(f)
        seen = set()
        for m in bench["end_to_end"] + bench["per_layer"]:
            metrics.metric(m["name"], 1, m["unit"])
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])


if __name__ == "__main__":
    unittest.main()

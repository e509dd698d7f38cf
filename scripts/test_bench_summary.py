#!/usr/bin/env python3
"""Tests for bench_summary.py: a cell that several figure reports share
(same "cell_id") counts once in the suite totals.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_summary  # noqa: E402


def cell(key, cell_id, wall, load, run, sim, committed):
    out = {
        "key": key,
        "committed": committed,
        "aborted": 0,
        "sim_ns": sim,
        "wall_ns": wall,
        "load_ns": load,
        "run_ns": run,
        "latency": {"count": committed, "p50_ns": 10, "p99_ns": 20,
                    "p999_ns": 30},
        "stalls": {"wal_ns": sim, "index_ns": 0},
        "metrics": {"tps_low_nvm": 1.0},
    }
    if cell_id is not None:
        out["cell_id"] = cell_id
    return out


def report(bench, cells):
    return {
        "bench": bench,
        "jobs": 1,
        "cells": cells,
        "total_wall_ns": sum(c["wall_ns"] for c in cells),
        "total_sim_ns": sum(c["sim_ns"] for c in cells),
    }


class SharedCellTest(unittest.TestCase):
    def setUp(self):
        shared = "ycsb InP balanced low-skew"
        # Two figures print the shared cell; each also has one of its own.
        self.reports = [
            report("fig_a", [
                cell({"engine": "InP"}, shared, 1000, 600, 300, 50, 7),
                cell({"engine": "CoW"}, "ycsb CoW balanced low-skew",
                     2000, 1200, 700, 80, 9),
            ]),
            report("fig_b", [
                cell({"mixture": "balanced", "engine": "InP"}, shared,
                     1000, 600, 300, 50, 7),
                cell({"engine": "NVM-InP"}, "tpcc NVM-InP balanced low-skew",
                     4000, 3000, 900, 200, 11),
            ]),
        ]

    def summarize(self, reports):
        with tempfile.TemporaryDirectory() as tmp:
            for r in reports:
                path = os.path.join(tmp, f"BENCH_{r['bench']}.json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(r, f)
            return bench_summary.summarize(
                bench_summary.load_reports(tmp), ["tps_low_nvm"])

    def test_shared_cell_counts_once_in_totals(self):
        row = self.summarize(self.reports)
        self.assertEqual(row["benches"], 2)
        self.assertEqual(row["cells"], 3)
        self.assertEqual(row["committed"], 7 + 9 + 11)
        self.assertEqual(row["total_wall_ns"], 1000 + 2000 + 4000)
        self.assertEqual(row["total_load_ns"], 600 + 1200 + 3000)
        self.assertEqual(row["total_run_ns"], 300 + 700 + 900)
        self.assertEqual(row["total_sim_ns"], 50 + 80 + 200)
        self.assertEqual(row["stalls_ns"]["wal"], 50 + 80 + 200)

    def test_per_bench_columns_keep_shared_cells(self):
        row = self.summarize(self.reports)
        # A figure's own wall time includes the cells it shares.
        self.assertEqual(row["wall_ns"], {"fig_a": 3000, "fig_b": 5000})
        self.assertIn("fig_a/InP", row["tps_low_nvm"])
        self.assertIn("fig_b/balanced InP", row["tps_low_nvm"])
        self.assertIn("fig_b/balanced InP", row["latency_p50_ns"])

    def test_cells_without_id_count_per_appearance(self):
        for r in self.reports:
            for c in r["cells"]:
                del c["cell_id"]
        row = self.summarize(self.reports)
        self.assertEqual(row["cells"], 4)
        self.assertEqual(row["total_wall_ns"], 8000)


if __name__ == "__main__":
    unittest.main()

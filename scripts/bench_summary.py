#!/usr/bin/env python3
"""Merge the per-figure BENCH_<name>.json reports into one summary row.

Each figure writes a machine-readable report (see testbed/bench_runner.h)
with one entry per cell: the cell key, commit counts, simulated
nanoseconds, host wall nanoseconds, and derived metrics such as throughput
per latency profile. This script folds a directory of those reports into
a single flat JSON object — one "trajectory row" a plotting or
regression-tracking pipeline can append per commit.

nvmdb_bench executes each distinct configuration once and lets several
figures print it (Figs. 9-10 read the Fig. 5-7 cells, for example), so
one executed cell can appear in several reports under the same
"cell_id". The suite totals count such a cell once: "cells" is the
number of executed cells, and "committed", "aborted" and every total_*
field sum over executed cells. Cells without a "cell_id" (Fig. 12)
count once per appearance. The per-bench "wall_ns" is each report's own
total and so includes the cells it shares. A full `nvmdb_bench` run
gives:

  {
    "benches": 12,
    "cells": 202,
    "committed": 1234567,
    "total_wall_ns": ...,          # harness cost of the whole suite
    "total_sim_ns": ...,           # modeled time the suite produced
    "total_load_ns": ...,          # wall time in cell load phases
    "total_run_ns": ...,           # wall time in cell measured phases
    "sim_wall_ratio": ...,         # simulator speed (higher = faster)
    "jobs": {"fig08_tpcc": 4, ...},
    "wall_ns": {"fig08_tpcc": ..., ...},   # per-figure cell wall time
    "tps_low_nvm": {"fig05_07_ycsb/read-only low InP": 117153.0, ...},
    "latency_p50_ns": {"fig05_07_ycsb/read-only low InP": 1536, ...},
    "latency_p99_ns": {...}, "latency_p999_ns": {...},
    "stalls_ns": {"wal": ..., "index": ..., ...},  # suite-wide per tag
    ...
  }

Latency percentiles come from each cell's "latency" object (simulated
clock, histogram bucket lower bounds — see common/histogram.h); cells
without a transaction run (count == 0, e.g. microbenchmarks) are
omitted. "stalls_ns" sums each executed cell's per-component stall attribution
("stalls" object) across the whole suite.

With --baseline DIR (a directory of BENCH_*.json from another build, e.g.
main before a simulator change) the row also carries wall_speedup:
baseline wall time over this run's wall time, overall and per bench —
the one number a perf-optimization PR is judged by.

Usage:
  scripts/bench_summary.py [--dir DIR] [--out FILE] [--metrics m1,m2]
                           [--baseline DIR]

Stdlib only; no third-party dependencies.
"""

import argparse
import glob
import json
import os
import sys


def load_reports(directory):
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path, "r", encoding="utf-8") as f:
                reports.append(json.load(f))
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_summary: skipping {path}: {err}", file=sys.stderr)
    return reports


def cell_label(cell):
    return " ".join(cell.get("key", {}).values())


def summarize(reports, metric_names):
    row = {
        "benches": len(reports),
        "cells": 0,
        "committed": 0,
        "aborted": 0,
        "total_wall_ns": 0,
        "total_sim_ns": 0,
        "total_load_ns": 0,
        "total_run_ns": 0,
        "jobs": {},
        "wall_ns": {},
    }
    metrics = {name: {} for name in metric_names}
    latency_cols = {"latency_p50_ns": {}, "latency_p99_ns": {},
                    "latency_p999_ns": {}}
    stalls_total = {}
    seen_ids = set()
    for report in reports:
        bench = report.get("bench", "?")
        row["jobs"][bench] = report.get("jobs", 0)
        row["wall_ns"][bench] = report.get("total_wall_ns", 0)
        for cell in report.get("cells", []):
            cell_id = cell.get("cell_id")
            executed = cell_id is None or cell_id not in seen_ids
            if cell_id is not None:
                seen_ids.add(cell_id)
            if executed:
                row["cells"] += 1
                row["committed"] += cell.get("committed", 0)
                row["aborted"] += cell.get("aborted", 0)
                row["total_wall_ns"] += cell.get("wall_ns", 0)
                row["total_sim_ns"] += cell.get("sim_ns", 0)
                row["total_load_ns"] += cell.get("load_ns", 0)
                row["total_run_ns"] += cell.get("run_ns", 0)
                for key, value in cell.get("stalls", {}).items():
                    tag = key[:-3] if key.endswith("_ns") else key
                    stalls_total[tag] = stalls_total.get(tag, 0) + value
            latency = cell.get("latency", {})
            if latency.get("count", 0) > 0:
                label = f"{bench}/{cell_label(cell)}"
                for pct in ("p50", "p99", "p999"):
                    latency_cols[f"latency_{pct}_ns"][label] = latency.get(
                        f"{pct}_ns", 0
                    )
            for name in metric_names:
                value = cell.get("metrics", {}).get(name)
                if value is not None:
                    metrics[name][f"{bench}/{cell_label(cell)}"] = value
    for name, values in latency_cols.items():
        if values:
            row[name] = values
    if stalls_total:
        row["stalls_ns"] = stalls_total
    row["sim_wall_ratio"] = (
        row["total_sim_ns"] / row["total_wall_ns"]
        if row["total_wall_ns"]
        else 0.0
    )
    for name in metric_names:
        if metrics[name]:
            row[name] = metrics[name]
    return row


def add_speedups(row, baseline_row):
    """Attach wall_speedup (baseline wall / current wall) to `row`."""
    speedup = {}
    base_walls = baseline_row.get("wall_ns", {})
    for bench, wall in row.get("wall_ns", {}).items():
        base = base_walls.get(bench, 0)
        if base and wall:
            speedup[bench] = round(base / wall, 3)
    overall = (
        round(baseline_row["total_wall_ns"] / row["total_wall_ns"], 3)
        if baseline_row.get("total_wall_ns") and row.get("total_wall_ns")
        else 0.0
    )
    row["wall_speedup"] = {"overall": overall, **speedup}


def main():
    parser = argparse.ArgumentParser(
        description="Merge BENCH_*.json reports into one summary row."
    )
    parser.add_argument(
        "--dir", default=".", help="directory holding BENCH_*.json files"
    )
    parser.add_argument(
        "--out", default="-", help="output file ('-' for stdout)"
    )
    parser.add_argument(
        "--metrics",
        default="tps_low_nvm",
        help="comma-separated per-cell metrics to flatten into the row",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="directory of baseline BENCH_*.json; adds wall_speedup "
        "(baseline wall / current wall) per bench and overall",
    )
    args = parser.parse_args()

    reports = load_reports(args.dir)
    if not reports:
        print(f"bench_summary: no BENCH_*.json in {args.dir}", file=sys.stderr)
        return 1

    metric_names = [m for m in args.metrics.split(",") if m]
    row = summarize(reports, metric_names)
    if args.baseline:
        baseline_reports = load_reports(args.baseline)
        if not baseline_reports:
            print(
                f"bench_summary: no baseline BENCH_*.json in {args.baseline}",
                file=sys.stderr,
            )
            return 1
        add_speedups(row, summarize(baseline_reports, []))
    text = json.dumps(row, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

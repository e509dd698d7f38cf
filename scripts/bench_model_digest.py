#!/usr/bin/env python3
"""Model-only digest of BENCH_*.json reports, for divergence diffing.

The simulator guarantees that its *model* output — commit counts,
simulated nanoseconds, derived throughput metrics — is bit-identical
across probe implementations (SIMD vs scalar), job counts, and host
speeds; only wall-clock fields may differ. This script projects a
directory of BENCH_<name>.json reports onto exactly the model fields and
prints a canonical JSON digest. CI diffs the digest of the tiny-scale
grid against the committed golden file bench/golden/model_digest_tiny.json:
any non-empty diff is a model divergence and fails the job. An intended
model change regenerates that file with this script and gives the reason
in CHANGES.md.

Excluded as host-dependent: jobs, wall_ns, load_ns, run_ns,
sim_wall_ratio, total_wall_ns, total_sim_wall_ratio.

Everything else is model output and *stays in the digest* — notably the
per-cell "latency" object (histogram-derived response-time percentiles
on the simulated clock; integer bucket lower bounds) and the "stalls"
object (per-component stall attribution in integer nanoseconds). Both
are bit-identical across probe implementations and job counts by
construction, so a divergence in either fails the CI diff just like a
counter drift would.

Usage:
  scripts/bench_model_digest.py [--dir DIR] [--out FILE]

Stdlib only; no third-party dependencies.
"""

import argparse
import glob
import json
import os
import sys

WALL_FIELDS = {
    "jobs",
    "wall_ns",
    "load_ns",
    "run_ns",
    "sim_wall_ratio",
    "total_wall_ns",
    "total_sim_wall_ratio",
}


def strip_wall(node):
    if isinstance(node, dict):
        return {
            k: strip_wall(v)
            for k, v in node.items()
            if k not in WALL_FIELDS
        }
    if isinstance(node, list):
        return [strip_wall(v) for v in node]
    return node


def main():
    parser = argparse.ArgumentParser(
        description="Project BENCH_*.json onto model-only fields."
    )
    parser.add_argument(
        "--dir", default=".", help="directory holding BENCH_*.json files"
    )
    parser.add_argument(
        "--out", default="-", help="output file ('-' for stdout)"
    )
    args = parser.parse_args()

    digest = {}
    for path in sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json"))):
        try:
            with open(path, "r", encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_model_digest: bad {path}: {err}", file=sys.stderr)
            return 1
        digest[os.path.basename(path)] = strip_wall(report)
    if not digest:
        print(
            f"bench_model_digest: no BENCH_*.json in {args.dir}",
            file=sys.stderr,
        )
        return 1

    text = json.dumps(digest, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

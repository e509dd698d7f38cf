#!/usr/bin/env python3
"""A/B comparison of two nvmdb_e2e binaries on one e2ebench workload.

    python3 scripts/e2e_ab.py --parent A/nvmdb_e2e --change B/nvmdb_e2e \
        --workload tpcc --seed 1 --pairs 10

Build each binary from its own checkout with the benchmark's own build:
    cmake -S e2ebench -B <dir> -DCMAKE_BUILD_TYPE=Release
    cmake --build <dir> --target nvmdb_e2e

Runs `--pairs` pairs of rounds (one nvmdb_e2e process each), alternating
which binary runs first in a pair. Each round is aggregated with
e2ebench/metrics.py exactly as `e2ebench/run.py --trace 0` aggregates
one round. For every end-to-end metric of BENCHMARK.json it prints the
parent and change medians with quartiles, the change's per-pair wins (a
tie counts for neither side), and whether the gain rule holds: wins in at
least nine tenths of the pairs and a median difference larger than the
parent's interquartile range. It also says whether every round of both
binaries gave the same model digest.

Exit status: 0 when the model digests match, 1 when they differ or a
round failed a check, 2 when a round could not run.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "e2ebench"))

import metrics  # noqa: E402

WORKLOADS = ("ycsb-read-hot", "ycsb-write-cold", "tpcc")
ROUND_TIMEOUT_S = 300


def load_specs(path=os.path.join(ROOT, "BENCHMARK.json")):
    """The end-to-end metric specs (name, unit, better, bound)."""
    with open(path) as f:
        return json.load(f)["end_to_end"]


def run_round(binary, workload, seed):
    """One nvmdb_e2e process; returns its result record."""
    res = subprocess.run([binary, "--workload", workload, "--seed",
                          str(seed)], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True,
                         timeout=ROUND_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError("%s exited with %d" % (binary, res.returncode))
    return json.loads(res.stdout.strip().splitlines()[-1])


def round_values(rnd):
    """End-to-end metric values of one round, keyed by name."""
    return {k: v["value"] for k, v in metrics.end_to_end([rnd]).items()}


def quartiles(values):
    """(q1, median, q3): medians of the lower and upper halves."""
    values = sorted(values)
    half = len(values) // 2
    lower = values[:half] or values
    upper = values[half + len(values) % 2:] or values
    return metrics.median(lower), metrics.median(values), \
        metrics.median(upper)


def better(spec, change, parent):
    """+1 when change beats parent on this metric, -1 when it loses."""
    if change == parent:
        return 0
    higher = spec["better"] == "higher"
    return 1 if (change > parent) == higher else -1


def compare(spec, parent_vals, change_vals):
    """Summary of one metric over paired rounds."""
    p1, pm, p3 = quartiles(parent_vals)
    c1, cm, c3 = quartiles(change_vals)
    outcomes = [better(spec, c, p) for p, c in zip(parent_vals, change_vals)]
    wins = outcomes.count(1)
    sign = 1 if spec["better"] == "higher" else -1
    gain = sign * (cm - pm)
    return {
        "name": spec["name"], "unit": spec["unit"],
        "parent": [p1, pm, p3], "change": [c1, cm, c3],
        "delta": (cm - pm) / pm if pm else 0.0,
        "wins": wins, "losses": outcomes.count(-1), "pairs": len(outcomes),
        "gain": wins * 10 >= 9 * len(outcomes) and gain > p3 - p1,
        "within_bound": gain >= -spec["bound"] * abs(pm),
    }


def digests(rounds):
    return sorted({metrics.round_digest(r)[0] for r in rounds})


def failures(rounds):
    return [(c["engine"], msg) for r in rounds for c in r["cells"]
            for msg in c["failures"]]


def report(workload, specs, parent_rounds, change_rounds, out=sys.stdout):
    """Prints the comparison; returns True when the model digests match
    and no round failed a check."""
    p_vals = [round_values(r) for r in parent_rounds]
    c_vals = [round_values(r) for r in change_rounds]
    print("workload %s, %d pairs" % (workload, len(p_vals)), file=out)
    print("%-12s %-8s %26s %26s %8s %6s %5s %5s" % (
        "metric", "unit", "parent q1/med/q3", "change q1/med/q3", "delta",
        "wins", "gain", "bound"), file=out)
    for spec in specs:
        r = compare(spec, [v[spec["name"]] for v in p_vals],
                    [v[spec["name"]] for v in c_vals])
        print("%-12s %-8s %26s %26s %+7.1f%% %3d/%-2d %5s %5s" % (
            r["name"], r["unit"],
            "/".join("%.4g" % x for x in r["parent"]),
            "/".join("%.4g" % x for x in r["change"]),
            100 * r["delta"], r["wins"], r["pairs"],
            "yes" if r["gain"] else "no",
            "ok" if r["within_bound"] else "WORSE"), file=out)
    pd, cd = digests(parent_rounds), digests(change_rounds)
    same = len(pd) == 1 and pd == cd
    print("model digest: %s (parent %s, change %s)" % (
        "match" if same else "DIFFER", ",".join(pd), ",".join(cd)),
        file=out)
    failed = failures(parent_rounds) + failures(change_rounds)
    for engine, msg in failed:
        print("FAILED %s: %s" % (engine, msg), file=out)
    return same and not failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent nvmdb_e2e")
    ap.add_argument("--change", required=True, help="change nvmdb_e2e")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    parent_rounds, change_rounds = [], []
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        for side, binary in order:
            try:
                rnd = run_round(binary, args.workload, args.seed)
            except (OSError, RuntimeError, ValueError, IndexError,
                    subprocess.TimeoutExpired) as e:
                print("e2e_ab: %s round %d: %s" % (side, i, e),
                      file=sys.stderr)
                return 2
            (parent_rounds if side == "parent" else change_rounds).append(
                rnd)
        print("pair %d done" % (i + 1), file=sys.stderr, flush=True)
    ok = report(args.workload, load_specs(), parent_rounds, change_rounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

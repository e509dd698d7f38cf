#!/usr/bin/env python3
"""End-to-end benchmark of nvmdb: one workload on all six engines.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds e2ebench/nvmdb_e2e.cc against ../src
(Release) into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench),
then runs the binary once per round until --seconds have passed (at least
MIN_ROUNDS rounds). Each round is a fresh process that runs the six engine
cells one after another. The last stdout line is the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (per-cell medians over rounds,
summed over the cells); --trace 1 alternates untraced and traced rounds
and reports the per-layer metrics.
Exit status: 0 when every check passed, 1 when a check failed or a round
did not finish, 2 when the benchmark could not run (bad arguments,
environment, build).
See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402

WORKLOADS = ("ycsb-read-hot", "ycsb-write-cold", "tpcc")
REFUSED_ENV = ("NVMDB_SHARED_CACHE", "NVMDB_FORCE_SCALAR_PROBE",
               "NVMDB_TRACE_DIR")
MIN_ROUNDS = 3          # untraced rounds per untraced run
MIN_TRACED_ROUNDS = 1   # of each kind per traced run
ROUND_TIMEOUT_S = 120
DEADLINE_S = 150        # start no round that could end after this
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("e2ebench: " + msg)
    sys.exit(2)


def build(bench_dir, build_dir):
    src = os.path.join(os.path.dirname(bench_dir), "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        die("nvmdb sources not found next to the benchmark (%s)" % src)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "nvmdb_e2e",
                  "-j", jobs])
    start = time.monotonic()
    for cmd in steps:
        left = BUILD_TIMEOUT_S - (time.monotonic() - start)
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=max(1, left))
        except (OSError, subprocess.TimeoutExpired) as e:
            die("build failed: %s" % e)
        if res.returncode != 0:
            die("build failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, "nvmdb_e2e")


def run_round(binary, workload, seed, spans_path):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if spans_path:
        cmd += ["--trace", "1", "--spans", spans_path]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             timeout=ROUND_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("round timed out")
        return None
    if res.returncode != 0:
        log("nvmdb_e2e exited with %d" % res.returncode)
        return None
    try:
        return json.loads(res.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("nvmdb_e2e printed no result")
        return None


def check_digests(rounds):
    """Every round of one invocation must give the same model digest; a
    round that differs from the first fails all its cells."""
    ref, _ = metrics.round_digest(rounds[0])
    for rnd in rounds[1:]:
        digest, parts = metrics.round_digest(rnd)
        if digest != ref:
            kind = "traced" if rnd["traced"] else "untraced"
            for c in rnd["cells"]:
                c["failures"].append(
                    "model digest of a %s round differs from the first "
                    "round (%s)" % (kind, parts))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    for var in REFUSED_ENV:
        if var in os.environ:
            die("refusing to run: %s is set and changes what is measured"
                % var)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "e2ebench")
    binary = build(bench_dir, build_dir)
    spans_path = os.path.join(build_dir, "spans_%s.bin" % args.workload)

    untraced, traced = [], []
    crashed = False
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        want_traced = bool(args.trace) and len(traced) < len(untraced)
        if args.trace:
            enough = (len(untraced) >= MIN_TRACED_ROUNDS and
                      len(traced) >= MIN_TRACED_ROUNDS)
        else:
            enough = len(untraced) >= MIN_ROUNDS
        if enough and elapsed >= args.seconds:
            break
        rounds = untraced + traced
        longest = max((r["wall_ns"] for r in rounds), default=0) / 1e9
        if enough and elapsed + 1.5 * longest > DEADLINE_S:
            break
        rnd = run_round(binary, args.workload, args.seed,
                        spans_path if want_traced else None)
        if rnd is None:
            crashed = True
            break
        (traced if want_traced else untraced).append(rnd)

    if crashed:
        log("e2ebench: a round did not finish; no result")
        return 1
    rounds = untraced + traced

    check_digests(rounds)
    first = rounds[0]
    span_durations, body_self = {}, []
    if args.trace:
        for engine, msgs in metrics.cycle_failures(
                args.workload, traced[0]["cells"]).items():
            for rnd in traced:
                for c in rnd["cells"]:
                    if c["engine"] == engine:
                        c["failures"].extend(msgs)
        names, spans = metrics.read_spans(spans_path)
        span_durations, body_self = metrics.span_stats(names, spans)
        os.remove(spans_path)

    all_cells = [c for r in rounds for c in r["cells"]]
    attempted, failed, fail_frac = metrics.fail_accounting(all_cells)
    for r in rounds:
        for c in r["cells"]:
            for msg in c["failures"]:
                log("FAILED %s round %s: %s" % (c["engine"],
                                                 "traced" if r["traced"]
                                                 else "untraced", msg))

    if args.trace:
        result = metrics.per_layer(untraced, traced, span_durations,
                                   body_self, fail_frac, first["partitions"],
                                   first["line_size"])
    else:
        result = metrics.end_to_end(untraced)

    digest, parts = metrics.round_digest(first)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "model_digest": digest, "model_digest_parts": parts,
        "build_type": first["build_type"], "compiler": first["compiler"],
        "nproc": os.cpu_count(),
        "commits": metrics.cell_sum(first["cells"], "committed"),
        "aborts": metrics.cell_sum(first["cells"], "aborted"),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Arithmetic of the end-to-end benchmark: percentiles, span self times,
failure accounting, metric formatting and the per-round aggregation.

Everything here is pure and deterministic; test_metrics.py covers it.
"""

import hashlib
import math
import re
import struct
from array import array

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Candidate percentiles for the tail metric, highest first.
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10

ENGINE_KINDS = ("InP", "CoW", "Log", "NVM-InP", "NVM-CoW", "NVM-Log")
ENGINE_OPS = ("select", "update", "insert", "delete", "scan", "secondary",
              "commit", "abort")
STALL_TAGS = ("wal", "index", "tuple", "allocator", "checkpoint", "recovery",
              "other")

# High-NVM profile of the paper (8x DRAM read latency, 9.5 GB/s writes);
# the model runs under the DRAM profile and the counters are
# latency-independent, so this profile's simulated time is derived.
HIGH_NVM = {"hit_ns": 3, "read_ns": 1280, "write_gbps": 9.5, "sync_ns": 100}

# Cycle checks: each must complete at least this many times on the
# workloads that name it.
MIN_CYCLES = 3
# nvm.write_amp (cumulative) must stay within this share over the last
# three tenths of the traced run.
MAX_WRITE_AMP_DRIFT = 0.10


def metric(name, value, unit):
    """One metric entry; rejects names and units outside the format."""
    if not NAME_RE.match(name):
        raise ValueError("bad metric name: %r" % name)
    if not UNIT_RE.match(unit):
        raise ValueError("bad metric unit: %r" % unit)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("metric %s: value must be a number" % name)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("metric %s: value must be finite" % name)
    return name, {"value": value, "unit": unit}


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of nothing")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def rank_of(pct, n):
    """Nearest rank (1-based) of the pct-th percentile of n samples."""
    return min(n, max(1, math.ceil(pct / 100.0 * n - 1e-9)))


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0
    return sorted_values[rank_of(pct, len(sorted_values)) - 1]


def tail_percentile(n):
    """The highest candidate percentile with at least MIN_BEYOND samples
    ranked above it, or None when even the median has fewer."""
    for pct in TAIL_CANDIDATES:
        if n - rank_of(pct, n) >= MIN_BEYOND:
            return pct
    return None


def covered(start, end, children):
    """Length of [start, end) covered by the union of the child intervals,
    each clipped to the parent."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(children):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start, end, children):
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(start, end, children)


def fail_accounting(cells):
    """(attempted, failed, fail_frac) over cell records: a cell with any
    failed check counts all its transactions as failed."""
    attempted = sum(c["tasks"] for c in cells)
    failed = sum(c["tasks"] for c in cells if c["failures"])
    return attempted, failed, (failed / attempted if attempted else 1.0)


# --- spans ------------------------------------------------------------------

SPAN = struct.Struct("<QQIIQ")


def read_spans(path):
    """Yield (start, end, name, parent, req) from a span file of nvmdb_e2e, with
    name resolved to its string."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"NVSPAN1\n":
        raise ValueError("not a span file: %s" % path)
    pos = 8
    (n_names,) = struct.unpack_from("<I", data, pos)
    pos += 4
    names = []
    for _ in range(n_names):
        (length,) = struct.unpack_from("<H", data, pos)
        pos += 2
        names.append(data[pos:pos + length].decode())
        pos += length
    (count,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if len(data) - pos != count * SPAN.size:
        raise ValueError("truncated span file: %s" % path)
    return names, SPAN.iter_unpack(memoryview(data)[pos:])


def span_stats(names, spans):
    """Durations per span name and self times of the transaction bodies.

    Spans come in open order, so a body's engine-call children directly
    follow it; each body is closed out when a span outside it appears."""
    durations = {n: array("q") for n in names}
    body_self = array("q")
    body_name = names.index("workload.body")
    body_id, body_span, children = 0, None, []
    for idx, (start, end, name, parent, _req) in enumerate(spans, 1):
        if body_span is not None and parent != body_id:
            body_self.append(self_time(body_span[0], body_span[1], children))
            body_span, children = None, []
        durations[names[name]].append(end - start)
        if name == body_name:
            body_id, body_span, children = idx, (start, end), []
        elif body_span is not None:
            children.append((start, end))
    if body_span is not None:
        body_self.append(self_time(body_span[0], body_span[1], children))
    return durations, body_self


# --- aggregation ------------------------------------------------------------


def cell_sum(cells, key):
    return sum(c[key] for c in cells)


def run_sum(cells, counter):
    return sum(c["run"][counter] for c in cells)


def derived_stall_ns(counters, profile, line_size):
    stall = (counters["hits"] * profile["hit_ns"] +
             counters["loads"] * profile["read_ns"])
    stall += int(counters["stores"] * line_size / profile["write_gbps"])
    stall += counters["syncs"] * profile["sync_ns"]
    return stall + counters["external_ns"]


def merged_hist_percentile(cells, pct):
    """Percentile of the cells' merged latency histograms, reported as the
    bucket's lower bound (LatencyHistogram::Percentile's convention)."""
    buckets = {}
    for c in cells:
        for lower, count in c["hist"]:
            buckets[lower] = buckets.get(lower, 0) + count
    total = sum(buckets.values())
    if total == 0:
        return 0
    rank = rank_of(pct, total)
    seen = 0
    for lower in sorted(buckets):
        seen += buckets[lower]
        if seen >= rank:
            return lower
    return max(buckets)


def round_digest(rnd):
    """Model digest of one round: every cell's counter, latency, commit and
    state digests, in engine order."""
    parts = {}
    for part in ("counters", "latency", "commits", "state"):
        h = hashlib.sha256()
        for c in rnd["cells"]:
            h.update(("%s:%s;" % (c["engine"], c["digest"][part])).encode())
        parts[part] = h.hexdigest()[:16]
    h = hashlib.sha256()
    for part in sorted(parts):
        h.update(parts[part].encode())
    return h.hexdigest()[:16], parts


PHASES = ("open", "load", "gen", "run", "verify", "recover", "close")


def cell_median_sum(rounds, fn):
    """Sum over engine cells of each cell's median over rounds of fn(cell).

    Every round repeats identical work, so a cell's median discards a
    host hiccup that hit it in one round without waiting for a round
    that no cell hiccuped in."""
    per_engine = {}
    for rnd in rounds:
        for c in rnd["cells"]:
            per_engine.setdefault(c["engine"], []).append(fn(c))
    return sum(median(v) for v in per_engine.values())


def phase_ns(*phases):
    return lambda c: sum(c[p + "_ns"] for p in phases)


def end_to_end(rounds):
    """End-to-end metrics over untraced rounds: host times are sums over
    the six cells of per-cell medians (cell_median_sum)."""
    committed = cell_sum(rounds[0]["cells"], "committed")
    run_s = cell_median_sum(rounds, phase_ns("run")) / 1e9
    return dict([
        metric("wall_s", cell_median_sum(rounds, phase_ns(*PHASES)) / 1e9,
               "s"),
        metric("setup_s",
               cell_median_sum(rounds, phase_ns("open", "load", "gen")) / 1e9,
               "s"),
        metric("run_tps", committed / run_s, "txn/s"),
        metric("recover_s",
               cell_median_sum(rounds, phase_ns("recover")) / 1e9, "s"),
        metric("peak_rss_mb",
               median([r["peak_rss_kb"] for r in rounds]) / 1024.0, "MB"),
    ])


def cycle_counts(cells):
    by = {c["engine"]: c for c in cells}
    return {
        "engine.InP.ckpt_cycles": by["InP"]["ckpt_events"],
        "engine.Log.flush_cycles": by["Log"]["ckpt_events"],
        "engine.Log.compact_cycles": by["Log"]["compactions"],
        "engine.NVM-Log.compact_cycles": by["NVM-Log"]["compactions"],
    }


def write_amp_tenths(cells):
    """Cumulative written bytes per user byte at each tenth of the run,
    summed over the cells."""
    tenths = []
    for k in range(10):
        written = sum(c["wa_tenths"][k][0] for c in cells)
        user = sum(c["wa_tenths"][k][1] for c in cells)
        tenths.append(written / user if user else 0.0)
    return tenths


def tail_drift(values, last=3):
    """Relative spread of the last `last` values against the final one."""
    tail = values[-last:]
    return (max(tail) - min(tail)) / tail[-1] if tail[-1] else float("inf")


def cycle_failures(workload, cells):
    """Checks that flushes, compactions and checkpoints cycle, and that
    write amplification levels off, on the workloads meant to show it.
    Returns {engine: [messages]}."""
    out = {}
    if workload not in ("ycsb-write-cold", "tpcc"):
        return out
    required = {
        "engine.Log.flush_cycles": "Log",
        "engine.Log.compact_cycles": "Log",
        "engine.NVM-Log.compact_cycles": "NVM-Log",
    }
    if workload == "tpcc":
        required["engine.InP.ckpt_cycles"] = "InP"
    counts = cycle_counts(cells)
    for name, engine in required.items():
        if counts[name] < MIN_CYCLES:
            out.setdefault(engine, []).append(
                "%s = %d, fewer than %d cycles" %
                (name, counts[name], MIN_CYCLES))
    drift = tail_drift(write_amp_tenths(cells))
    if drift > MAX_WRITE_AMP_DRIFT:
        for c in cells:
            out.setdefault(c["engine"], []).append(
                "nvm.write_amp drifts %.3f over the last tenths" % drift)
    return out


def per_layer(untraced, traced, span_durations, body_self, fail_frac,
              partitions, line_size):
    """Per-layer metrics of a traced invocation. `untraced`/`traced` are
    lists of round records; span data come from the first traced round."""
    out = []

    def med(fn):
        return cell_median_sum(untraced, fn)

    for name, phase in (("testbed.open_s", "open"),
                        ("workload.load_s", "load"),
                        ("workload.gen_s", "gen"),
                        ("testbed.run_s", "run"),
                        ("testbed.verify_s", "verify")):
        out.append(metric(name, med(phase_ns(phase)) / 1e9, "s"))
    for kind in ENGINE_KINDS:
        for phase in ("load", "run", "recover"):
            out.append(metric(
                "engine.%s.%s_s" % (kind, phase),
                med(lambda c, k=kind, p=phase:
                    c[p + "_ns"] if c["engine"] == k else 0) / 1e9, "s"))

    for op in ENGINE_OPS + ("txn",):
        span = "txn" if op == "txn" else "engine." + op
        values = sorted(span_durations.get(span, ()))
        # Below 20 samples no percentile has 10 beyond it: report the max.
        pct = tail_percentile(len(values)) or 100.0
        out.append(metric("engine.%s.count" % op, len(values), "count"))
        out.append(metric("engine.%s.ns_p50" % op, percentile(values, 50),
                          "ns"))
        out.append(metric("engine.%s.ns_pN" % op, percentile(values, pct),
                          "ns"))
    out.append(metric("workload.body_self_ns_p50",
                      percentile(sorted(body_self), 50), "ns"))

    model = untraced[0]["cells"]
    accesses = run_sum(model, "hits") + run_sum(model, "loads")
    load_accesses = sum(c["load"]["hits"] + c["load"]["loads"] for c in model)
    written = run_sum(model, "stores") * line_size
    user = cell_sum(traced[0]["cells"], "user_bytes")
    out += [
        metric("nvm.accesses", accesses, "count"),
        metric("nvm.hit_ratio", run_sum(model, "hits") / accesses, "ratio"),
        metric("nvm.loads", run_sum(model, "loads"), "count"),
        metric("nvm.stores", run_sum(model, "stores"), "count"),
        metric("nvm.syncs", run_sum(model, "syncs"), "count"),
        metric("nvm.write_amp", written / user if user else 0.0, "ratio"),
        metric("nvm.write_amp_tail_drift",
               tail_drift(write_amp_tenths(traced[0]["cells"])), "ratio"),
        metric("nvm.host_ns_per_access", med(phase_ns("run")) / accesses,
               "ns"),
        metric("nvm.load_host_ns_per_access",
               med(phase_ns("load")) / load_accesses, "ns"),
    ]
    for tag in STALL_TAGS:
        out.append(metric("nvm.stall.%s_ns" % tag,
                          sum(c["run"]["tag_ns"][tag] for c in model),
                          "sim_ns"))
    out += [
        metric("nvm.alloc.high_water_mb",
               max(c["alloc_high_water"] for c in model) / 2**20, "MB"),
        metric("space.bytes_per_user_byte",
               cell_sum(model, "footprint_bytes") /
               cell_sum(model, "state_bytes"), "ratio"),
        metric("nvm.wear.hotspot_factor",
               max(c["wear_hotspot"] for c in traced[0]["cells"]), "ratio"),
    ]
    committed = cell_sum(model, "committed")
    dram_s = sum(c["run"]["stall_ns"] for c in model) / partitions / 1e9
    high_s = sum(derived_stall_ns(c["run"], HIGH_NVM, line_size)
                 for c in model) / partitions / 1e9
    out += [
        metric("model.sim_tps_dram", committed / dram_s, "sim_txn/s"),
        metric("model.sim_tps_high_nvm", committed / high_s, "sim_txn/s"),
        metric("model.sim_p50_ns", merged_hist_percentile(model, 50),
               "sim_ns"),
        metric("model.sim_p99_ns", merged_hist_percentile(model, 99),
               "sim_ns"),
    ]
    for name, value in cycle_counts(traced[0]["cells"]).items():
        out.append(metric(name, value, "count"))
    overhead = (cell_median_sum(traced, phase_ns(*PHASES)) /
                med(phase_ns(*PHASES)) - 1.0)
    out += [
        metric("trace.overhead_frac", overhead, "ratio"),
        metric("fail_frac", fail_frac, "ratio"),
    ]
    return dict(out)

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "nvm/stall_tag.h"

namespace nvmdb {

/// One benchmark cell's results, as recorded by BenchRunner and emitted
/// into the machine-readable BENCH_<name>.json report.
///
/// `key` holds the cell's grid coordinates in declaration order (e.g.
/// {{"mixture","read-only"},{"skew","low"},{"engine","InP"}}); `metrics`
/// holds whatever derived numbers the bench wants tracked (throughput per
/// latency profile, loads, footprint bytes, ...).
struct BenchCell {
  std::vector<std::pair<std::string, std::string>> key;
  /// Identity of the executed configuration (the cell registry key of
  /// bench/cell_registry.h), emitted as "cell_id". Figures that print the
  /// same executed cell carry the same id, so its host time is counted
  /// once when reports are merged. Empty: not emitted.
  std::string id;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  /// Simulated nanoseconds the cell advanced the model clock (load phase
  /// included — this is the modeled work the cell represents).
  uint64_t sim_ns = 0;
  /// Host wall nanoseconds the cell took end to end. Left 0 by the cell
  /// body; the runner fills it from its own stopwatch around the body.
  uint64_t wall_ns = 0;
  /// Optional wall-time split filled by the cell body: host nanoseconds
  /// spent in the initial load phase vs the measured run phase. Their sum
  /// is below wall_ns (setup/teardown is neither). Zero when the cell has
  /// no such phases (e.g. recovery benches).
  uint64_t load_ns = 0;
  uint64_t run_ns = 0;
  /// Response-latency distribution of the measured run (simulated clock;
  /// see RunResult::latency). count == 0 when the cell has no txn run.
  LatencySummary latency;
  /// Simulated stall attributed per component tag over the measured run.
  StallBreakdown stalls;
  std::vector<std::pair<std::string, double>> metrics;

  /// Simulated ns produced per wall ns spent computing them (simulator
  /// speed; higher is faster).
  double SimWallRatio() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(sim_ns) /
                              static_cast<double>(wall_ns);
  }

  /// Space-separated key values ("InP read-only low") for progress lines.
  std::string Label() const;
};

/// Job pool for benchmark cells.
///
/// Every figure cell is fully independent: each builds its own Database/
/// NvmDevice/workload, so cells never share mutable state and can run
/// concurrently. The runner executes submitted cells on a bounded job pool
/// (`NVMDB_BENCH_JOBS`, default hardware_concurrency; 1 = serial), stamps
/// each cell's host wall time, and stores each result in a pre-sized slot
/// array. ALL table printing is left to the caller after the Wait()
/// barrier, so stdout is produced in deterministic order and is
/// byte-identical regardless of the job count. Per-cell progress lines go
/// to stderr in completion order, serialized so concurrent cells never
/// interleave mid-line.
///
/// Cells whose internals need a single worker (RunSerial latency
/// attribution, e.g. the ablation cells) still parallelize across cells:
/// the simulated clock is shared per *device*, and every cell owns a
/// private device.
class BenchRunner {
 public:
  /// `jobs` == 0 reads NVMDB_BENCH_JOBS from the environment.
  explicit BenchRunner(size_t jobs = 0);

  BenchRunner(const BenchRunner&) = delete;
  BenchRunner& operator=(const BenchRunner&) = delete;

  size_t jobs() const { return jobs_; }

  /// Enqueue one cell; `body` computes it and returns the filled
  /// BenchCell. Returns the cell's slot index (== submission order).
  /// Bodies run on pool threads once Wait() is called; they must not
  /// print to stdout (use the returned cell + post-barrier printing) and
  /// must not touch other cells' state.
  size_t Submit(std::function<BenchCell()> body);

  /// Barrier: run every submitted cell (jobs() at a time) and return when
  /// all slots are filled. Submission order == slot order; completion
  /// order is whatever the pool produces.
  void Wait();

  /// All cells, indexed by slot. Valid after Wait().
  const std::vector<BenchCell>& cells() const { return cells_; }

 private:
  void PrintProgress(const BenchCell& cell);

  size_t jobs_;
  std::vector<std::function<BenchCell()>> tasks_;
  std::vector<BenchCell> cells_;
};

/// Write `cells` as BENCH_<bench_name>.json into $NVMDB_BENCH_JSON_DIR
/// (default "."; set to empty to disable), with `context` as extra
/// top-level key/value pairs (scale knobs etc.) and totals over the
/// cells. Returns the path written, or "" when disabled or on error.
std::string WriteBenchReport(
    const std::string& bench_name, size_t jobs,
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<BenchCell>& cells);

}  // namespace nvmdb

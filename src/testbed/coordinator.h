#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "testbed/database.h"

namespace nvmdb {

struct TxnTask;
struct TxnQueue;

/// Per-partition scratch handed to every transaction body. Buffers grow to
/// the workload's working size and are reused across millions of
/// transactions, so steady-state bodies run without heap allocation.
struct TxnScratch {
  Tuple tuple;
  Tuple tuple2;
  std::vector<ColumnUpdate> updates;
  std::vector<Value> values;
  std::vector<Tuple> tuples;
  std::vector<uint64_t> u64s;
  std::string str;
};

/// A transaction body: runs the transaction's queries against the
/// partition's engine and returns true to commit, false to abort
/// (Section 3: single-partition transactions executed serially per
/// partition). Plain function pointer — parameters live in the TxnTask and
/// the queue's payload pools, so pre-generating millions of transactions
/// costs no per-transaction heap allocation.
using TxnFn = bool (*)(const TxnTask& task, const TxnQueue& queue,
                       StorageEngine* engine, uint64_t txn_id,
                       TxnScratch* scratch);

/// One pre-generated transaction bound to a partition: a POD parameter
/// block interpreted by `fn`. Field meaning is up to the generator; by
/// convention `off`/`len` reference the queue's byte pool and
/// `woff`/`wcnt` its word pool; state shared by every task of a queue
/// goes in `queue.ctx`.
struct TxnTask {
  TxnFn fn = nullptr;
  uint64_t key = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint32_t col = 0;
  uint32_t flags = 0;
  uint32_t off = 0;
  uint32_t len = 0;
  uint32_t woff = 0;
  uint32_t wcnt = 0;
  double amount = 0.0;
};

/// A partition's pre-generated transaction queue: POD tasks plus the
/// pooled variable-length payloads they reference. Two pools (bytes,
/// words) replace per-task strings/vectors; `ctx` carries optional
/// workload-owned context (e.g. the TPC-C schema set) shared by every
/// task in the queue.
struct TxnQueue {
  std::vector<TxnTask> tasks;
  std::string bytes;            // pooled string payloads (off/len)
  std::vector<uint64_t> words;  // pooled u64 payloads (woff/wcnt)
  std::shared_ptr<const void> ctx;

  size_t size() const { return tasks.size(); }
  bool empty() const { return tasks.empty(); }
  void reserve(size_t n) { tasks.reserve(n); }

  Slice StrAt(uint32_t off, uint32_t len) const {
    return Slice(bytes.data() + off, len);
  }
  const uint64_t* WordsAt(uint32_t woff) const {
    return words.data() + woff;
  }
};

/// Result of a benchmark run.
struct RunResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t wall_ns = 0;
  uint64_t stall_ns = 0;  // simulated NVM stall across all workers
  /// Response latency: Begin() until the commit became *durable* — for
  /// group-committing engines that includes waiting for the group to be
  /// forced, the cost the paper attributes to traditional logging
  /// (Sections 3.1/4.1). Tracked on per-partition simulated clocks (each
  /// partition models one worker core, so another partition's slices
  /// don't inflate its response times) and merged across partitions, so
  /// Run — not just RunSerial — reports tail latency.
  LatencySummary latency;
  /// The full histogram behind `latency`, for merging across runs and for
  /// the determinism tests' bucket-exact comparisons.
  LatencyHistogram latency_hist;

  /// Effective elapsed time on the *simulated* clock: total modeled time
  /// (cache hits/misses, write-backs, syncs, VFS crossings) averaged over
  /// the workers. Wall-clock time is recorded for reference but excluded —
  /// it measures the simulator, not the modeled system.
  double EffectiveSeconds(size_t workers) const {
    const double stall_per_worker =
        workers == 0 ? 0.0
                     : static_cast<double>(stall_ns) /
                           static_cast<double>(workers);
    return stall_per_worker * 1e-9;
  }
  double Throughput(size_t workers) const {
    const double secs = EffectiveSeconds(workers);
    return secs <= 0 ? 0 : static_cast<double>(committed) / secs;
  }

  /// Simulated nanoseconds produced per wall-clock nanosecond spent
  /// computing them — the simulator's real-time speed factor. Higher is a
  /// faster simulator; the modeled results are unaffected.
  double SimWallRatio() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(stall_ns) /
                              static_cast<double>(wall_ns);
  }
};

/// Executes per-partition transaction queues (the paper maps each worker
/// thread to a core and executes serially within a partition using
/// timestamp ordering; issuing Begin() in queue order realizes exactly
/// that order). The schedule is a deterministic round-robin over the
/// partitions on the calling thread, so the simulated cache/clock model
/// produces bit-identical counters on every run — benchmark parallelism
/// comes from running independent cells concurrently (bench_runner.h),
/// not from threads inside one database.
class Coordinator {
 public:
  explicit Coordinator(Database* db) : db_(db) {}

  /// Run the queues (queues.size() must equal the partition count),
  /// interleaving one transaction per partition per round.
  RunResult Run(const std::vector<TxnQueue>& queues);

  /// Convenience: run a single partition's queue inline (no threads).
  RunResult RunSerial(size_t partition, const TxnQueue& queue);

 private:
  /// Shared body: queues[p] runs on partition p; null entries idle.
  RunResult Execute(const std::vector<const TxnQueue*>& queues);

  Database* db_;
};

}  // namespace nvmdb

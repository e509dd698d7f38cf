#pragma once

/// Cell registry of nvmdb_bench.
///
/// The paper's Figs. 5-16 are views of one experiment grid: Figs. 9-10
/// are the NVM counters of the Fig. 5-7 runs, Fig. 13 is the stall
/// breakdown of their low-skew half, Fig. 11 reads the Fig. 8 runs, and so
/// on. Each figure therefore *requests* the cells it prints by their full
/// configuration (CellSpec), the registry keeps one entry per distinct
/// configuration, and a single BenchRunner pass executes every entry
/// once. Figures then print from the shared results.
///
/// The key must cover everything that changes what a cell computes: a
/// field left out of CellSpec::Key() would make two different
/// configurations share one execution, and a figure would silently print
/// another cell's numbers.
#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "workload/ycsb.h"

namespace nvmdb {
namespace bench {

/// What a cell executes. The kind fixes the workload, its scale and the
/// partition rule.
enum class CellKind {
  kYcsb,        // YCSB at suite scale on Scale().partitions partitions
  kTpcc,        // TPC-C, one warehouse per partition
  kYcsbSerial,  // YCSB at 1/4 scale on one partition, run by RunSerial
  kCostModel,   // Table 3: single-op insert/update/delete phases
  kWear,        // YCSB at 1/2 scale, then drain + flush: device wear
  kInterface,   // Fig. 1: durable writes via the allocator or filesystem
};

/// Full configuration of one cell.
struct CellSpec {
  CellKind kind = CellKind::kYcsb;
  EngineKind engine = EngineKind::kInP;
  // Defaults equal YcsbConfig's, which the kinds pass through.
  YcsbMixture mixture = YcsbMixture::kBalanced;
  YcsbSkew skew = YcsbSkew::kLow;
  /// Copied whole into the cell's DatabaseConfig. Every tunable field is
  /// part of the key; the per-partition handles (allocator, fs,
  /// namespace_prefix) are set by the Database and are not.
  EngineConfig config;
  // kInterface only: the Fig. 1 point.
  bool filesystem = false;
  bool sequential = true;
  size_t chunk_bytes = 0;

  /// Canonical key: kind, engine, mixture and skew, then every tunable
  /// EngineConfig field that differs from its default as name=value (a
  /// field set to its default is the same configuration). kInterface
  /// cells are keyed by interface, pattern and chunk size only.
  std::string Key() const;

  static CellSpec Ycsb(EngineKind engine, YcsbMixture mixture,
                       YcsbSkew skew, const EngineConfig& config = {});
  /// TPC-C takes periodic InP checkpoints (NVMDB_CKPT_INTERVAL, default
  /// every 1000 txns) to bound its log.
  static CellSpec Tpcc(EngineKind engine);
  static CellSpec YcsbSerial(EngineKind engine, YcsbMixture mixture,
                             const EngineConfig& config);
  /// Group commit of 1: every op is durable on its own.
  static CellSpec CostModel(EngineKind engine);
  static CellSpec Wear(EngineKind engine, YcsbMixture mixture);
  static CellSpec Interface(bool filesystem, bool sequential,
                            size_t chunk_bytes);
};

/// Bytes each kInterface cell writes (NVMDB_FIG1_BYTES, default 1 MB).
uint64_t InterfaceBytesPerPoint();

/// Execute one cell on a fresh database (or device, for kInterface).
BenchRun RunCell(const CellSpec& spec);

/// The report cell a kind records for a run: commit counts, simulated
/// time, latency, stall split, load/run host time and the kind's metrics.
/// Figures set the key and may append metrics.
BenchCell BaseCell(const CellSpec& spec, const BenchRun& run);

class CellRegistry {
 public:
  /// Id of the cell configured by `spec`; the first request of a key adds
  /// it, later requests of the same key return the same id.
  size_t Request(const CellSpec& spec);

  /// Number of distinct cells requested.
  size_t size() const { return specs_.size(); }

  /// Execute every requested cell once on a BenchRunner
  /// (NVMDB_BENCH_JOBS), in request order. Returns how many cells ran.
  /// Call once, after all requests.
  size_t RunAll();

  /// Job count of the RunAll pass (recorded in reports).
  size_t jobs() const { return jobs_; }

  const BenchRun& run(size_t id) const { return runs_[id]; }

  /// BaseCell of `id` under a figure's `key`, with the cell id and the
  /// host wall time of its one execution.
  BenchCell Cell(size_t id,
                 std::vector<std::pair<std::string, std::string>> key) const;

 private:
  std::unordered_map<std::string, size_t> ids_;
  std::vector<CellSpec> specs_;
  std::vector<std::string> keys_;
  std::vector<BenchRun> runs_;
  std::vector<uint64_t> wall_ns_;
  size_t jobs_ = 0;
};

}  // namespace bench
}  // namespace nvmdb

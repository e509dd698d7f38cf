#include "cell_registry.h"

#include <cassert>
#include <memory>
#include <utility>

#include "common/random.h"
#include "common/timer.h"
#include "nvm/pmem_allocator.h"
#include "nvm/pmfs.h"
#include "testbed/coordinator.h"
#include "workload/tpcc.h"

namespace nvmdb {
namespace bench {

namespace {

/// Ops per Table 3 phase, and the warm-up population before them.
constexpr uint64_t kCostOpsPerPhase = 400;
constexpr uint64_t kCostWarmupTuples = 2000;

void AppendField(std::string* out, const char* name, uint64_t value,
                 uint64_t default_value) {
  if (value == default_value) return;
  *out += ' ';
  *out += name;
  *out += '=';
  *out += std::to_string(value);
}

/// Load `workload` into `db` as the run's load phase (host time and
/// counters). False, reported, when the load fails: a zeroed run would
/// otherwise print a table of zeros while the bench still exited 0.
template <typename Workload>
bool Load(Workload* workload, Database* db, const char* what,
          BenchRun* run) {
  Stopwatch watch;
  CounterSampler sampler(db->device());
  Status s = workload->Load(db);
  if (!s.ok()) {
    ReportFailure(what, s);
    return false;
  }
  run->load_counters = sampler.Delta();
  run->load_wall_ns = watch.ElapsedNanos();
  return true;
}

void TakeResult(const RunResult& result, BenchRun* run) {
  run->committed = result.committed;
  run->aborted = result.aborted;
  run->wall_ns = result.wall_ns;
  run->latency = result.latency;
}

/// Load, then the measured phase of a Coordinator run: the YCSB and TPC-C
/// kinds.
template <typename Workload>
BenchRun LoadAndRun(Database* db, Workload* workload, const char* what) {
  BenchRun run;
  if (!Load(workload, db, what, &run)) return run;
  Coordinator coordinator(db);
  CounterSampler sampler(db->device());
  TakeResult(coordinator.Run(workload->GenerateQueues()), &run);
  run.counters = sampler.Delta();
  run.footprint = db->Footprint();
  return run;
}

DatabaseConfig CellDbConfig(const CellSpec& spec) {
  DatabaseConfig cfg = MakeDbConfig(spec.engine);
  // Whole-struct assignment: an earlier version copied a hand-picked list
  // of fields, so knobs added to EngineConfig later (use_bloom_filters,
  // checkpoint_interval_txns, ...) were silently dropped. The database
  // overrides the allocator/fs/namespace fields per partition anyway
  // (Database::InstantiateEngines), so copying everything is safe.
  cfg.engine_config = spec.config;
  return cfg;
}

YcsbConfig CellYcsbConfig(const CellSpec& spec, size_t partitions,
                          uint64_t scale_divisor) {
  YcsbConfig ycfg;
  ycfg.num_tuples = Scale().ycsb_tuples / scale_divisor;
  ycfg.num_txns = Scale().ycsb_txns / scale_divisor;
  ycfg.num_partitions = partitions;
  ycfg.mixture = spec.mixture;
  ycfg.skew = spec.skew;
  return ycfg;
}

BenchRun RunYcsb(const CellSpec& spec) {
  const DatabaseConfig cfg = CellDbConfig(spec);
  auto db = std::make_unique<Database>(cfg);
  YcsbWorkload workload(CellYcsbConfig(spec, cfg.num_partitions, 1));
  return LoadAndRun(db.get(), &workload, "YCSB load");
}

BenchRun RunTpcc(const CellSpec& spec) {
  const DatabaseConfig cfg = CellDbConfig(spec);
  auto db = std::make_unique<Database>(cfg);
  TpccConfig tcfg;
  tcfg.num_warehouses = cfg.num_partitions;
  tcfg.num_txns = Scale().tpcc_txns;
  TpccWorkload workload(tcfg);
  return LoadAndRun(db.get(), &workload, "TPC-C load");
}

/// Single-partition YCSB: latency attribution needs a single worker.
BenchRun RunYcsbSerial(const CellSpec& spec) {
  DatabaseConfig cfg = CellDbConfig(spec);
  cfg.num_partitions = 1;
  auto db = std::make_unique<Database>(cfg);
  YcsbWorkload workload(CellYcsbConfig(spec, 1, 4));
  BenchRun run;
  if (!Load(&workload, db.get(), "YCSB load (ablation)", &run)) return run;
  CounterSampler sampler(db->device());
  Coordinator coordinator(db.get());
  TakeResult(coordinator.RunSerial(0, workload.GenerateQueues()[0]), &run);
  run.counters = sampler.Delta();
  return run;
}

/// Table 3: dirty-line write-backs (stores * 64 B) around batches of
/// single-op transactions, after a warm-up population so updates/deletes
/// hit existing data and the trees have realistic depth.
BenchRun MeasureCostModel(const CellSpec& spec) {
  DatabaseConfig cfg = CellDbConfig(spec);
  cfg.num_partitions = 1;
  BenchRun run;
  Stopwatch load_watch;
  Database db(cfg);
  const TableDef def = YcsbWorkload::MakeTableDef();
  db.CreateTable(def);
  StorageEngine* e = db.partition(0);
  Random rng(3);

  auto tuple_for = [&](uint64_t key) {
    Tuple t(&def.schema);
    t.SetU64(0, key);
    for (size_t c = 1; c <= 10; c++) t.SetString(c, rng.String(100));
    return t;
  };

  for (uint64_t key = 10000; key < 10000 + kCostWarmupTuples; key++) {
    const uint64_t txn = e->Begin();
    e->Insert(txn, 1, tuple_for(key));
    e->Commit(txn);
  }
  // Group commit is 1, so per-txn durability is already forced; FlushAll
  // (not Drain) closes each phase — Drain would trigger checkpoints and
  // MemTable flushes whose full-database writes would swamp the per-op
  // measurement.
  db.device()->FlushAll();
  run.load_wall_ns = load_watch.ElapsedNanos();

  Stopwatch run_watch;
  CounterSampler total(db.device());
  auto phase = [&](auto&& op) {
    CounterSampler sampler(db.device());
    for (uint64_t key = 0; key < kCostOpsPerPhase; key++) {
      const uint64_t txn = e->Begin();
      op(txn, key);
      e->Commit(txn);
    }
    db.device()->FlushAll();
    return sampler.Delta().stores * 64.0 / kCostOpsPerPhase;
  };
  run.op_bytes[0] = phase([&](uint64_t txn, uint64_t key) {
    e->Insert(txn, 1, tuple_for(key));
  });
  run.op_bytes[1] = phase([&](uint64_t txn, uint64_t key) {
    // The model's update: one fixed-length field + one varlen field.
    // (Value::Str is non-owning; keep the backing string alive.)
    const std::string value = rng.String(100);
    std::vector<ColumnUpdate> up;
    up.push_back({1, Value::Str(value)});
    e->Update(txn, 1, key, up);
  });
  run.op_bytes[2] = phase(
      [&](uint64_t txn, uint64_t key) { e->Delete(txn, 1, key); });
  run.counters = total.Delta();
  run.wall_ns = run_watch.ElapsedNanos();
  run.committed = kCostWarmupTuples + 3 * kCostOpsPerPhase;
  return run;
}

/// Line writes of a YCSB run, drained and flushed so every write reaches
/// the device.
BenchRun MeasureWear(const CellSpec& spec) {
  const DatabaseConfig cfg = CellDbConfig(spec);
  auto db = std::make_unique<Database>(cfg);
  YcsbWorkload workload(CellYcsbConfig(spec, cfg.num_partitions, 2));
  BenchRun run;
  if (!Load(&workload, db.get(), "YCSB load (wear)", &run)) return run;
  Stopwatch run_watch;
  const WearStats before = db->device()->wear();
  CounterSampler sampler(db->device());
  const RunResult result =
      Coordinator(db.get()).Run(workload.GenerateQueues());
  db->Drain();
  db->device()->FlushAll();
  run.counters = sampler.Delta();
  run.wall_ns = run_watch.ElapsedNanos();
  run.wear = db->device()->wear();
  run.wear.total_line_writes -= before.total_line_writes;
  run.committed = result.committed;
  return run;
}

/// Fig. 1: durable write bandwidth of one interface, pattern and chunk
/// size — write + sync primitive through the allocator, or write() +
/// fsync() through the filesystem (paying the VFS crossing).
BenchRun MeasureInterface(const CellSpec& spec) {
  const uint64_t total_bytes = InterfaceBytesPerPoint();
  const size_t chunk = spec.chunk_bytes;
  BenchRun run;
  Stopwatch load_watch;
  NvmDevice device(64ull * 1024 * 1024, NvmLatencyConfig::LowNvm());
  PmemAllocator allocator(&device);
  std::unique_ptr<Pmfs> fs;
  Pmfs::Fd fd{};
  uint64_t base = 0;
  if (spec.filesystem) {
    fs = std::make_unique<Pmfs>(&allocator);
    fd = fs->Open("bench.dat", true);
    // Pre-extend so random writes land in allocated blocks.
    std::vector<char> zero(64 * 1024, 0);
    for (int i = 0; i < 128; i++) {
      fs->Write(fd, i * zero.size(), zero.data(), zero.size());
    }
    fs->Fsync(fd);
  } else {
    base = allocator.Alloc(8 * 1024 * 1024);
  }
  std::vector<char> buf(chunk, spec.filesystem ? 'y' : 'x');
  Random rng(spec.filesystem ? 9 : 7);
  const uint64_t iterations = total_bytes / chunk;
  const uint64_t slots = (8ull * 1024 * 1024) / chunk;
  run.load_wall_ns = load_watch.ElapsedNanos();

  Stopwatch run_watch;
  CounterSampler sampler(&device);
  for (uint64_t i = 0; i < iterations; i++) {
    const uint64_t off =
        base + (spec.sequential ? (i % slots) : rng.Uniform(slots)) * chunk;
    if (spec.filesystem) {
      fs->Write(fd, off, buf.data(), chunk);
      fs->Fsync(fd);  // durable write through the filesystem
    } else {
      device.Write(off, buf.data(), chunk);
      device.Persist(off, chunk);  // the allocator's sync primitive
    }
  }
  run.counters = sampler.Delta();
  run.wall_ns = run_watch.ElapsedNanos();
  const double secs = run.counters.stall_ns * 1e-9;
  run.mb_per_s = static_cast<double>(iterations * chunk) / secs / (1 << 20);
  return run;
}

const char* CellKindName(CellKind kind) {
  switch (kind) {
    case CellKind::kYcsb: return "ycsb";
    case CellKind::kTpcc: return "tpcc";
    case CellKind::kYcsbSerial: return "ycsb-serial";
    case CellKind::kCostModel: return "cost-model";
    case CellKind::kWear: return "wear";
    case CellKind::kInterface: return "interface";
  }
  return "?";
}

}  // namespace

uint64_t InterfaceBytesPerPoint() {
  return EnvU64("NVMDB_FIG1_BYTES", 1ull << 20);
}

std::string CellSpec::Key() const {
  std::string key = CellKindName(kind);
  if (kind == CellKind::kInterface) {
    key += filesystem ? " filesystem" : " allocator";
    key += sequential ? " sequential" : " random";
    key += " chunk=" + std::to_string(chunk_bytes);
    return key;
  }
  key += ' ';
  key += EngineKindName(engine);
  key += ' ';
  key += YcsbMixtureName(mixture);
  key += ' ';
  key += YcsbSkewName(skew);
  // Every tunable EngineConfig field; a new one must be added here.
  const EngineConfig d;
  AppendField(&key, "btree_node_bytes", config.btree_node_bytes,
              d.btree_node_bytes);
  AppendField(&key, "cow_page_bytes", config.cow_page_bytes,
              d.cow_page_bytes);
  AppendField(&key, "cow_cache_pages", config.cow_cache_pages,
              d.cow_cache_pages);
  AppendField(&key, "group_commit_size", config.group_commit_size,
              d.group_commit_size);
  AppendField(&key, "checkpoint_interval_txns",
              config.checkpoint_interval_txns, d.checkpoint_interval_txns);
  AppendField(&key, "memtable_threshold_bytes",
              config.memtable_threshold_bytes, d.memtable_threshold_bytes);
  AppendField(&key, "lsm_level0_limit", config.lsm_level0_limit,
              d.lsm_level0_limit);
  AppendField(&key, "use_bloom_filters", config.use_bloom_filters,
              d.use_bloom_filters);
  return key;
}

CellSpec CellSpec::Ycsb(EngineKind engine, YcsbMixture mixture,
                        YcsbSkew skew, const EngineConfig& config) {
  CellSpec spec;
  spec.engine = engine;
  spec.mixture = mixture;
  spec.skew = skew;
  spec.config = config;
  return spec;
}

CellSpec CellSpec::Tpcc(EngineKind engine) {
  CellSpec spec;
  spec.kind = CellKind::kTpcc;
  spec.engine = engine;
  // TPC-C inserts grow the database and WAL without bound, so the InP
  // engine must take periodic compressed checkpoints (Section 3.1) to
  // bound recovery latency and fit the log in the device. YCSB runs leave
  // checkpointing off — at the paper's scale its cost amortizes away.
  spec.config.checkpoint_interval_txns = EnvU64("NVMDB_CKPT_INTERVAL", 1000);
  return spec;
}

CellSpec CellSpec::YcsbSerial(EngineKind engine, YcsbMixture mixture,
                              const EngineConfig& config) {
  CellSpec spec = Ycsb(engine, mixture, YcsbSkew::kLow, config);
  spec.kind = CellKind::kYcsbSerial;
  return spec;
}

CellSpec CellSpec::CostModel(EngineKind engine) {
  CellSpec spec;
  spec.kind = CellKind::kCostModel;
  spec.engine = engine;
  spec.config.group_commit_size = 1;  // per-txn durability
  return spec;
}

CellSpec CellSpec::Wear(EngineKind engine, YcsbMixture mixture) {
  CellSpec spec = Ycsb(engine, mixture, YcsbSkew::kLow);
  spec.kind = CellKind::kWear;
  return spec;
}

CellSpec CellSpec::Interface(bool filesystem, bool sequential,
                             size_t chunk_bytes) {
  CellSpec spec;
  spec.kind = CellKind::kInterface;
  spec.filesystem = filesystem;
  spec.sequential = sequential;
  spec.chunk_bytes = chunk_bytes;
  return spec;
}

BenchRun RunCell(const CellSpec& spec) {
  switch (spec.kind) {
    case CellKind::kYcsb: return RunYcsb(spec);
    case CellKind::kTpcc: return RunTpcc(spec);
    case CellKind::kYcsbSerial: return RunYcsbSerial(spec);
    case CellKind::kCostModel: return MeasureCostModel(spec);
    case CellKind::kWear: return MeasureWear(spec);
    case CellKind::kInterface: return MeasureInterface(spec);
  }
  return {};
}

BenchCell BaseCell(const CellSpec& spec, const BenchRun& run) {
  BenchCell cell;
  cell.committed = run.committed;
  cell.sim_ns = run.counters.stall_ns;
  cell.load_ns = run.load_wall_ns;
  cell.run_ns = run.wall_ns;
  switch (spec.kind) {
    case CellKind::kYcsb:
    case CellKind::kTpcc: {
      // Load phase included: the modeled work the cell represents.
      cell.aborted = run.aborted;
      cell.sim_ns += run.load_counters.stall_ns;
      cell.latency = run.latency;
      cell.stalls = run.counters.tags;
      const char* slugs[3] = {"tps_dram", "tps_low_nvm", "tps_high_nvm"};
      const auto latencies = PaperLatencies();
      for (size_t i = 0; i < 3; i++) {
        cell.metrics.emplace_back(
            slugs[i],
            DeriveThroughput(run.committed, run.wall_ns, run.counters,
                             latencies[i].config, Scale().partitions));
      }
      cell.metrics.emplace_back("loads",
                                static_cast<double>(run.counters.loads));
      cell.metrics.emplace_back("stores",
                                static_cast<double>(run.counters.stores));
      break;
    }
    case CellKind::kYcsbSerial:
      cell.aborted = run.aborted;
      cell.latency = run.latency;
      cell.stalls = run.counters.tags;
      cell.metrics = {
          {"tps_low_nvm",
           DeriveThroughput(run.committed, run.wall_ns, run.counters,
                            NvmLatencyConfig::LowNvm(), 1)},
          {"mean_resp_us", run.latency.mean_ns / 1000.0},
          {"p99_resp_us", run.latency.p99_ns / 1000.0}};
      break;
    case CellKind::kCostModel:
      cell.metrics = {{"insert_bytes", run.op_bytes[0]},
                      {"update_bytes", run.op_bytes[1]},
                      {"delete_bytes", run.op_bytes[2]}};
      break;
    case CellKind::kWear:
      cell.metrics = {
          {"line_writes", static_cast<double>(run.wear.total_line_writes)},
          {"max_line_writes", static_cast<double>(run.wear.max_line_writes)},
          {"hotspot_factor", run.wear.hotspot_factor}};
      break;
    case CellKind::kInterface:
      cell.stalls = run.counters.tags;
      cell.metrics = {{"mb_per_s", run.mb_per_s}};
      break;
  }
  return cell;
}

size_t CellRegistry::Request(const CellSpec& spec) {
  assert(runs_.empty() && "request every cell before RunAll");
  std::string key = spec.Key();
  auto [it, inserted] = ids_.emplace(key, specs_.size());
  if (inserted) {
    specs_.push_back(spec);
    keys_.push_back(std::move(key));
  }
  return it->second;
}

size_t CellRegistry::RunAll() {
  BenchRunner runner;
  jobs_ = runner.jobs();
  runs_.resize(specs_.size());  // sized before any body writes a slot
  for (size_t id = 0; id < specs_.size(); id++) {
    runner.Submit([this, id]() {
      runs_[id] = RunCell(specs_[id]);
      // The progress line names the executed configuration.
      BenchCell cell = BaseCell(specs_[id], runs_[id]);
      cell.key = {{"cell", keys_[id]}};
      return cell;
    });
  }
  runner.Wait();
  wall_ns_.clear();
  for (const BenchCell& cell : runner.cells()) wall_ns_.push_back(cell.wall_ns);
  return runner.cells().size();
}

BenchCell CellRegistry::Cell(
    size_t id, std::vector<std::pair<std::string, std::string>> key) const {
  BenchCell cell = BaseCell(specs_[id], runs_[id]);
  cell.key = std::move(key);
  cell.id = keys_[id];
  cell.wall_ns = wall_ns_[id];
  return cell;
}

}  // namespace bench
}  // namespace nvmdb

// End-to-end benchmark binary: runs one workload on all six engines, one
// engine cell after another on a single thread, and prints one JSON object
// with every cell's host times, model counters, state checksums and check
// results. e2ebench/run.py builds this binary, runs it once per round and
// turns the records into metrics (see e2ebench/README.md).
//
//   nvmdb_e2e --workload <ycsb-read-hot|ycsb-write-cold|tpcc> --seed <n>
//             [--trace 0|1] [--spans <file>]
//
// With --trace 1 the run loop is driven here instead of through
// Coordinator::Run (same round-robin, same latency bookkeeping) so that
// every transaction body and engine call gets a span; spans stay in memory
// and are written to --spans when the process ends.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/histogram.h"
#include "common/timer.h"
#include "testbed/coordinator.h"
#include "testbed/database.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace nvmdb {
namespace {

// ---------------------------------------------------------------------------
// Pinned configuration. Nothing here reads the environment: every knob that
// changes what is measured is a constant of the workload.

constexpr size_t kPartitions = 4;
constexpr size_t kSimCacheBytes = 1ull << 20;  // simulated CPU cache
constexpr size_t kMemTableBytes = 64 << 10;
constexpr uint64_t kKeyHi = (uint64_t{1} << 56) - 1;

const EngineKind kKinds[] = {EngineKind::kInP,    EngineKind::kCoW,
                             EngineKind::kLog,    EngineKind::kNvmInP,
                             EngineKind::kNvmCoW, EngineKind::kNvmLog};

struct WorkloadSpec {
  std::string name;
  bool tpcc = false;
  YcsbConfig ycsb;
  TpccConfig tpcc_cfg;
  uint64_t checkpoint_interval = 0;  // InP only; 0 = no checkpoints
  // About twice the largest allocator high water of the six engines.
  // Crash() copies the whole device, so spare capacity only adds host
  // page-fault work to recover_s.
  size_t nvm_bytes = 0;
};

bool MakeSpec(const std::string& name, uint64_t seed, WorkloadSpec* spec) {
  spec->name = name;
  if (name == "ycsb-read-hot") {
    // ~10 MB table: the 10% hot set is about the 1 MB simulated cache.
    spec->ycsb.num_tuples = 10000;
    spec->ycsb.num_txns = 60000;
    spec->ycsb.mixture = YcsbMixture::kReadHeavy;
    spec->ycsb.skew = YcsbSkew::kHigh;
    spec->nvm_bytes = 64ull << 20;
  } else if (name == "ycsb-write-cold") {
    // ~42 MB table: over 5x the CoW engines' 8 MB page cache.
    spec->ycsb.num_tuples = 40000;
    spec->ycsb.num_txns = 20000;
    spec->ycsb.mixture = YcsbMixture::kWriteHeavy;
    spec->ycsb.skew = YcsbSkew::kLow;
    spec->nvm_bytes = 256ull << 20;
  } else if (name == "tpcc") {
    // Below the figure benches' scale so that one run fits three rounds.
    spec->tpcc = true;
    spec->tpcc_cfg.num_txns = 2400;
    spec->tpcc_cfg.customers_per_district = 100;
    spec->tpcc_cfg.items = 500;
    spec->tpcc_cfg.initial_orders_per_district = 100;
    spec->checkpoint_interval = 100;
    spec->nvm_bytes = 128ull << 20;
  } else {
    return false;
  }
  spec->ycsb.num_partitions = kPartitions;
  spec->ycsb.field_size = 100;
  spec->ycsb.seed = seed;
  spec->tpcc_cfg.num_warehouses = kPartitions;
  spec->tpcc_cfg.seed = seed;
  return true;
}

DatabaseConfig MakeDbConfig(const WorkloadSpec& spec, EngineKind kind) {
  DatabaseConfig cfg;
  cfg.num_partitions = kPartitions;
  cfg.nvm_capacity = spec.nvm_bytes;
  cfg.latency = NvmLatencyConfig::Dram();
  cfg.latency.use_clwb = true;  // CLWB sync: flushed lines stay cached
  cfg.cache.capacity_bytes = kSimCacheBytes;
  cfg.engine = kind;
  cfg.engine_config.group_commit_size = 8;
  cfg.engine_config.cow_cache_pages = 2048;  // 8 MB CoW page cache
  cfg.engine_config.checkpoint_interval_txns = spec.checkpoint_interval;
  // Small MemTables so LSM flushes and compactions cycle many times within
  // one run instead of never (the 1 MB default outlasts the run).
  cfg.engine_config.memtable_threshold_bytes = kMemTableBytes;
  cfg.engine_config.lsm_level0_limit = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// Hashing.

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Add(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; i++) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Add(&v, 8); }
};

// ---------------------------------------------------------------------------
// Spans (traced run only).

enum SpanName : uint32_t {
  kSpanTxn,
  kSpanBody,
  kSpanBegin,
  kSpanSelect,
  kSpanUpdate,
  kSpanInsert,
  kSpanDelete,
  kSpanScan,
  kSpanSecondary,
  kSpanCommit,
  kSpanAbort,
  kSpanDrain,
  kSpanCount,
};
const char* const kSpanNames[kSpanCount] = {
    "txn",           "workload.body",   "engine.begin",  "engine.select",
    "engine.update", "engine.insert",   "engine.delete", "engine.scan",
    "engine.secondary", "engine.commit", "engine.abort", "testbed.drain"};

struct Span {
  uint64_t start;
  uint64_t end;
  uint32_t name;
  uint32_t parent;  // index + 1 of the parent span, 0 for a root
  uint64_t req;     // request id: the transaction's sequence number
};
static_assert(sizeof(Span) == 32);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  void Reserve(size_t n) { spans_.reserve(n); }
  /// Spans opened from here on belong to the next request (transaction).
  void NextRequest() { req_++; }

  uint32_t Open(uint32_t name) {
    spans_.push_back({NowNs(), 0, name, open_, req_});
    open_ = static_cast<uint32_t>(spans_.size());
    return open_;
  }
  void Close(uint32_t id) {
    Span& s = spans_[id - 1];
    s.end = NowNs();
    open_ = s.parent;
  }

  bool Write(const std::string& path) const {
    FILE* f = fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    fwrite("NVSPAN1\n", 1, 8, f);
    const uint32_t names = kSpanCount;
    fwrite(&names, 4, 1, f);
    for (const char* n : kSpanNames) {
      const uint16_t len = static_cast<uint16_t>(strlen(n));
      fwrite(&len, 2, 1, f);
      fwrite(n, 1, len, f);
    }
    const uint64_t count = spans_.size();
    fwrite(&count, 8, 1, f);
    fwrite(spans_.data(), sizeof(Span), spans_.size(), f);
    return fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  uint32_t open_ = 0;
  uint64_t req_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, uint32_t name) : t_(t), id_(t->Open(name)) {}
  ~ScopedSpan() { t_->Close(id_); }

 private:
  Tracer* t_;
  uint32_t id_;
};

/// Forwards every call to the partition's engine, wrapping the public DML
/// and transaction calls in spans and counting the user bytes written.
class TracingEngine : public StorageEngine {
 public:
  TracingEngine(StorageEngine* inner, Tracer* tracer)
      : inner_(inner), t_(tracer) {}

  uint64_t user_bytes() const { return user_bytes_; }

  EngineKind kind() const override { return inner_->kind(); }
  Status CreateTable(const TableDef& def) override {
    return inner_->CreateTable(def);
  }
  uint64_t Begin() override {
    ScopedSpan s(t_, kSpanBegin);
    return inner_->Begin();
  }
  Status Commit(uint64_t txn) override {
    ScopedSpan s(t_, kSpanCommit);
    return inner_->Commit(txn);
  }
  Status Abort(uint64_t txn) override {
    ScopedSpan s(t_, kSpanAbort);
    return inner_->Abort(txn);
  }
  Status Insert(uint64_t txn, uint32_t table, const Tuple& tuple) override {
    user_bytes_ += tuple.LogicalSize();
    ScopedSpan s(t_, kSpanInsert);
    return inner_->Insert(txn, table, tuple);
  }
  Status Update(uint64_t txn, uint32_t table, uint64_t key,
                const std::vector<ColumnUpdate>& updates) override {
    for (const ColumnUpdate& u : updates) {
      user_bytes_ += u.value.is_string ? u.value.str.size() : 8;
    }
    ScopedSpan s(t_, kSpanUpdate);
    return inner_->Update(txn, table, key, updates);
  }
  Status Delete(uint64_t txn, uint32_t table, uint64_t key) override {
    ScopedSpan s(t_, kSpanDelete);
    return inner_->Delete(txn, table, key);
  }
  Status Select(uint64_t txn, uint32_t table, uint64_t key,
                Tuple* out) override {
    ScopedSpan s(t_, kSpanSelect);
    return inner_->Select(txn, table, key, out);
  }
  Status ScanRange(
      uint64_t txn, uint32_t table, uint64_t lo, uint64_t hi,
      const std::function<bool(uint64_t, const Tuple&)>& fn) override {
    ScopedSpan s(t_, kSpanScan);
    return inner_->ScanRange(txn, table, lo, hi, fn);
  }
  Status SelectSecondary(uint64_t txn, uint32_t table, uint32_t index,
                         const std::vector<Value>& key_values,
                         std::vector<Tuple>* out) override {
    ScopedSpan s(t_, kSpanSecondary);
    return inner_->SelectSecondary(txn, table, index, key_values, out);
  }
  Status Recover() override { return inner_->Recover(); }
  Status Checkpoint() override { return inner_->Checkpoint(); }
  Status ForceDurable() override { return inner_->ForceDurable(); }
  FootprintStats Footprint() const override { return inner_->Footprint(); }
  FootprintStats VolatileFootprint() const override {
    return inner_->VolatileFootprint();
  }
  uint64_t LastDurableTxn() const override {
    return inner_->LastDurableTxn();
  }

 private:
  StorageEngine* inner_;
  Tracer* t_;
  uint64_t user_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Per-cell results.

struct Counters {
  uint64_t loads = 0, stores = 0, hits = 0, syncs = 0, stall_ns = 0,
           external_ns = 0;
  uint64_t tag_ns[kStallTagCount] = {};

  static Counters Of(const NvmCounters& c) {
    Counters r;
    r.loads = c.loads;
    r.stores = c.stores;
    r.hits = c.hits;
    r.syncs = c.sync_calls;
    r.stall_ns = c.stall_ns;
    r.external_ns = c.external_ns;
    for (size_t i = 0; i < kStallTagCount; i++) r.tag_ns[i] = c.tag_ns[i];
    return r;
  }
  Counters Minus(const Counters& o) const {
    Counters r;
    r.loads = loads - o.loads;
    r.stores = stores - o.stores;
    r.hits = hits - o.hits;
    r.syncs = syncs - o.syncs;
    r.stall_ns = stall_ns - o.stall_ns;
    r.external_ns = external_ns - o.external_ns;
    for (size_t i = 0; i < kStallTagCount; i++) {
      r.tag_ns[i] = tag_ns[i] - o.tag_ns[i];
    }
    return r;
  }
  void HashInto(Fnv* f) const {
    f->U64(loads);
    f->U64(stores);
    f->U64(hits);
    f->U64(syncs);
    f->U64(stall_ns);
    f->U64(external_ns);
    for (uint64_t t : tag_ns) f->U64(t);
  }
};

struct StateSummary {
  uint64_t checksum = 0;  // folds every table's CRC32C and row count
  uint64_t rows = 0;
  uint64_t bytes = 0;  // inlined tuple bytes
};

struct Cell {
  std::string engine;
  uint64_t tasks = 0, committed = 0, aborted = 0;
  uint64_t open_ns = 0, load_ns = 0, gen_ns = 0, run_ns = 0, verify_ns = 0,
           recover_ns = 0, close_ns = 0;
  Counters load_c, run_c, recover_c;
  LatencyHistogram hist;
  StateSummary before, after;
  std::vector<std::string> failures;
  uint64_t footprint_bytes = 0, alloc_high_water = 0;
  double wear_hotspot = 0;
  // Traced run only.
  uint64_t user_bytes = 0;
  uint64_t ckpt_events = 0, compactions = 0;
  std::vector<std::pair<uint64_t, uint64_t>> wa_tenths;  // written, user

  uint64_t CounterDigest() const {
    Fnv f;
    load_c.HashInto(&f);
    run_c.HashInto(&f);
    recover_c.HashInto(&f);
    return f.h;
  }
  uint64_t LatencyDigest() const {
    Fnv f;
    f.U64(hist.count());
    f.U64(hist.sum());
    f.U64(hist.max());
    const auto& b = hist.buckets();
    for (size_t i = 0; i < b.size(); i++) {
      if (b[i] != 0) {
        f.U64(i);
        f.U64(b[i]);
      }
    }
    return f.h;
  }
  uint64_t CommitDigest() const {
    Fnv f;
    f.U64(tasks);
    f.U64(committed);
    f.U64(aborted);
    return f.h;
  }
  uint64_t StateDigest() const {
    Fnv f;
    f.U64(before.checksum);
    f.U64(before.rows);
    f.U64(after.checksum);
    f.U64(after.rows);
    return f.h;
  }
};

// ---------------------------------------------------------------------------
// State checks. One ascending ScanRange per table and partition feeds both
// the CRC32C state checksum and the workload's consistency conditions.

constexpr size_t kWYtd = 9;
constexpr size_t kDYtd = 10, kDNextOid = 11;
constexpr size_t kOOlCnt = 7;
constexpr size_t kNoOid = 1;

struct DistrictAgg {
  double d_ytd = 0;
  uint64_t next_o_id = 0;
  uint64_t max_o_id = 0;
  uint64_t sum_ol_cnt = 0;
  uint64_t no_count = 0, no_min = UINT64_MAX, no_max = 0;
  uint64_t ol_count = 0;
};

void Fail(Cell* cell, const std::string& what) {
  cell->failures.push_back(what);
}

StateSummary CheckState(Database* db, const WorkloadSpec& spec, Cell* cell,
                        const char* phase) {
  StateSummary st;
  Fnv fold;
  std::string buf;
  const std::vector<TableDef> defs =
      spec.tpcc ? TpccWorkload::MakeTableDefs()
                : std::vector<TableDef>{YcsbWorkload::MakeTableDef(
                      spec.ycsb.field_size)};
  std::map<uint64_t, double> w_ytd;
  std::map<std::pair<uint64_t, uint64_t>, DistrictAgg> dist;
  bool ycsb_keys_ok = true;

  for (const TableDef& def : defs) {
    uint32_t crc = 0;
    uint64_t rows = 0;
    for (size_t p = 0; p < db->num_partitions(); p++) {
      StorageEngine* engine = db->partition(p);
      uint64_t expect = p;  // YCSB: partition p holds p, p+P, p+2P, ...
      const uint64_t txn = engine->Begin();
      Status s = engine->ScanRange(
          txn, def.table_id, 0, kKeyHi, [&](uint64_t key, const Tuple& t) {
            crc = Crc32c(&key, 8, crc);
            buf.clear();
            t.AppendInlined(&buf);
            crc = Crc32c(buf.data(), buf.size(), crc);
            st.bytes += buf.size();
            rows++;
            if (!spec.tpcc) {
              if (key != expect) ycsb_keys_ok = false;
              expect += db->num_partitions();
              return true;
            }
            const uint64_t w = key >> 32;  // W/D/O/NO/OL key layouts below
            switch (def.table_id) {
              case TpccWorkload::kWarehouse:
                w_ytd[key] = t.GetDouble(kWYtd);
                break;
              case TpccWorkload::kDistrict: {
                DistrictAgg& a = dist[{key >> 8, key & 0xFF}];
                a.d_ytd = t.GetDouble(kDYtd);
                a.next_o_id = t.GetU64(kDNextOid);
                break;
              }
              case TpccWorkload::kOrders: {
                DistrictAgg& a = dist[{w, (key >> 24) & 0xFF}];
                a.max_o_id = std::max(a.max_o_id, key & 0xFFFFFF);
                a.sum_ol_cnt += t.GetU64(kOOlCnt);
                break;
              }
              case TpccWorkload::kNewOrder: {
                DistrictAgg& a = dist[{w, (key >> 24) & 0xFF}];
                const uint64_t o = t.GetU64(kNoOid);
                a.no_count++;
                a.no_min = std::min(a.no_min, o);
                a.no_max = std::max(a.no_max, o);
                break;
              }
              case TpccWorkload::kOrderLine:
                dist[{key >> 36, (key >> 28) & 0xFF}].ol_count++;
                break;
              default:
                break;
            }
            return true;
          });
      engine->Commit(txn);
      if (!s.ok()) {
        Fail(cell, std::string(phase) + ": scan of " + def.name +
                       " failed: " + s.ToString());
      }
      const uint64_t parts = db->num_partitions();
      const uint64_t local = (spec.ycsb.num_tuples + parts - 1 - p) / parts;
      if (!spec.tpcc && expect != p + local * parts) ycsb_keys_ok = false;
    }
    fold.U64(def.table_id);
    fold.U64(rows);
    fold.U64(crc);
    st.rows += rows;
  }
  st.checksum = fold.h;

  if (!spec.tpcc) {
    if (!ycsb_keys_ok || st.rows != spec.ycsb.num_tuples) {
      Fail(cell, std::string(phase) +
                     ": primary-key scan did not return every loaded key "
                     "exactly once");
    }
    return st;
  }
  // TPC-C consistency conditions 1-4 (TPC-C spec 3.3.2.1-3.3.2.4).
  const TpccConfig& tc = spec.tpcc_cfg;
  for (uint64_t w = 1; w <= tc.num_warehouses; w++) {
    double sum_d = 0;
    for (uint64_t d = 1; d <= tc.districts_per_warehouse; d++) {
      const DistrictAgg& a = dist[{w, d}];
      sum_d += a.d_ytd;
      const std::string where = std::string(phase) + ": w" +
                                std::to_string(w) + " d" + std::to_string(d);
      if (a.next_o_id - 1 != a.max_o_id ||
          (a.no_count > 0 && a.no_max != a.max_o_id)) {
        Fail(cell, where + ": condition 2 (D_NEXT_O_ID-1 = max(O_ID) = "
                           "max(NO_O_ID)) violated");
      }
      if (a.no_count > 0 && a.no_max - a.no_min + 1 != a.no_count) {
        Fail(cell, where + ": condition 3 (NEW-ORDER ids contiguous) "
                           "violated");
      }
      if (a.sum_ol_cnt != a.ol_count) {
        Fail(cell, where + ": condition 4 (sum(O_OL_CNT) = ORDER-LINE "
                           "rows) violated");
      }
    }
    const double wy = w_ytd[w];
    if (std::fabs(wy - sum_d) > 1e-6 * std::max(1.0, std::fabs(wy))) {
      Fail(cell, std::string(phase) + ": w" + std::to_string(w) +
                     ": condition 1 (W_YTD = sum(D_YTD)) violated");
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// The traced run loop: Coordinator::Execute's round-robin and latency
// bookkeeping, with spans around every call and a TracingEngine per
// partition. It must reproduce Coordinator::Run's model output exactly.

RunResult TracedRun(Database* db, const std::vector<TxnQueue>& queues,
                    Tracer* tr, Cell* cell) {
  NvmEnv::Set(db->device());
  NvmEnv::SetTrace(db->trace());
  RunResult result;
  NvmDevice* device = db->device();
  const bool count_ckpt = cell->engine == "InP" || cell->engine == "Log";
  const bool count_compact = cell->engine == "NVM-Log";
  const bool count_sst = cell->engine == "Log";

  auto sst_files = [&]() {
    std::vector<std::string> names;
    for (std::string& f : db->fs()->List()) {
      if (f.find(".sst.") != std::string::npos) names.push_back(std::move(f));
    }
    std::sort(names.begin(), names.end());
    return names;
  };

  struct PartState {
    size_t pos = 0;
    uint64_t clock = 0;
    std::vector<std::pair<uint64_t, uint64_t>> pending;
  };
  std::vector<PartState> parts(queues.size());
  std::vector<TxnScratch> scratch(queues.size());
  std::vector<std::unique_ptr<TracingEngine>> fwd;
  for (size_t p = 0; p < queues.size(); p++) {
    fwd.push_back(std::make_unique<TracingEngine>(db->partition(p), tr));
  }
  auto drain_durable = [&](StorageEngine* engine, PartState& st) {
    const uint64_t durable = engine->LastDurableTxn();
    size_t kept = 0;
    for (auto& [txn, start] : st.pending) {
      if (txn <= durable) {
        result.latency_hist.Record(st.clock - start);
      } else {
        st.pending[kept++] = {txn, start};
      }
    }
    st.pending.resize(kept);
  };

  uint64_t total = 0;
  for (const TxnQueue& q : queues) total += q.size();
  const uint64_t written_before = device->counters().bytes_written;
  uint64_t done = 0;
  size_t next_tenth = 1;
  uint64_t ckpt_ns = device->counters().tag_ns[static_cast<size_t>(
      StallTag::kCheckpoint)];
  uint64_t used = db->allocator()->stats().total_used;
  std::vector<std::string> ssts;
  if (count_sst) ssts = sst_files();

  for (bool progress = true; progress;) {
    progress = false;
    for (size_t p = 0; p < queues.size(); p++) {
      if (parts[p].pos >= queues[p].size()) continue;
      progress = true;
      const TxnQueue& queue = queues[p];
      const TxnTask& task = queue.tasks[parts[p].pos++];
      PartState& st = parts[p];
      TracingEngine* engine = fwd[p].get();
      tr->NextRequest();
      const uint64_t slice_start = device->TotalStallNanos();
      const uint64_t start_local = st.clock;
      bool committed;
      {
        ScopedSpan txn_span(tr, kSpanTxn);
        const uint64_t txn_id = engine->Begin();
        {
          ScopedSpan body(tr, kSpanBody);
          committed = task.fn(task, queue, engine, txn_id, &scratch[p]);
        }
        if (committed) {
          engine->Commit(txn_id);
          result.committed++;
        } else {
          engine->Abort(txn_id);
          result.aborted++;
        }
        if (committed) st.pending.emplace_back(txn_id, start_local);
      }
      const uint64_t slice_end = device->TotalStallNanos();
      st.clock += slice_end - slice_start;
      if (committed) drain_durable(db->partition(p), st);

      // Cycle detection: a checkpoint/flush charged to the checkpoint tag,
      // or an NVM-Log compaction releasing its merged MemTables.
      if (count_ckpt) {
        const uint64_t now = device->counters().tag_ns[static_cast<size_t>(
            StallTag::kCheckpoint)];
        if (now != ckpt_ns) {
          cell->ckpt_events++;
          if (count_sst) {
            // A compaction deletes its input runs; a flush only adds.
            std::vector<std::string> live = sst_files();
            if (!std::includes(live.begin(), live.end(), ssts.begin(),
                               ssts.end())) {
              cell->compactions++;
            }
            ssts = std::move(live);
          }
        }
        ckpt_ns = now;
      }
      if (count_compact) {
        // A compaction releases the merged immutable MemTables at once;
        // an update frees at most one old record.
        const uint64_t now = db->allocator()->stats().total_used;
        if (now + kMemTableBytes < used) cell->compactions++;
        used = now;
      }
      done++;
      if (next_tenth <= 10 && done * 10 >= total * next_tenth) {
        uint64_t user = 0;
        for (const auto& f : fwd) user += f->user_bytes();
        cell->wa_tenths.emplace_back(
            device->counters().bytes_written - written_before, user);
        next_tenth++;
      }
    }
  }
  {
    ScopedSpan drain(tr, kSpanDrain);
    for (size_t p = 0; p < queues.size(); p++) {
      PartState& st = parts[p];
      StorageEngine* engine = db->partition(p);
      const uint64_t before = device->TotalStallNanos();
      engine->ForceDurable();
      st.clock += device->TotalStallNanos() - before;
      drain_durable(engine, st);
    }
  }
  for (const auto& f : fwd) cell->user_bytes += f->user_bytes();
  return result;
}

// ---------------------------------------------------------------------------

Cell RunCell(const WorkloadSpec& spec, EngineKind kind, Tracer* trace) {
  Cell cell;
  cell.engine = EngineKindName(kind);
  Stopwatch sw;
  auto db = std::make_unique<Database>(MakeDbConfig(spec, kind));
  cell.open_ns = sw.ElapsedNanos();

  sw.Reset();
  std::unique_ptr<YcsbWorkload> ycsb;
  std::unique_ptr<TpccWorkload> tpcc;
  Status s;
  if (spec.tpcc) {
    tpcc = std::make_unique<TpccWorkload>(spec.tpcc_cfg);
    s = tpcc->Load(db.get());
  } else {
    ycsb = std::make_unique<YcsbWorkload>(spec.ycsb);
    s = ycsb->Load(db.get());
  }
  cell.load_ns = sw.ElapsedNanos();
  cell.load_c = Counters::Of(db->device()->counters());
  if (!s.ok()) {
    Fail(&cell, "load failed: " + s.ToString());
    return cell;
  }

  sw.Reset();
  const std::vector<TxnQueue> queues =
      spec.tpcc ? tpcc->GenerateQueues() : ycsb->GenerateQueues();
  cell.gen_ns = sw.ElapsedNanos();
  for (const TxnQueue& q : queues) cell.tasks += q.size();

  RunResult r;
  if (trace == nullptr) {
    Coordinator coordinator(db.get());
    sw.Reset();
    r = coordinator.Run(queues);
    cell.run_ns = sw.ElapsedNanos();
  } else {
    sw.Reset();
    r = TracedRun(db.get(), queues, trace, &cell);
    cell.run_ns = sw.ElapsedNanos();
  }
  cell.run_c = Counters::Of(db->device()->counters()).Minus(cell.load_c);
  cell.committed = r.committed;
  cell.aborted = r.aborted;
  cell.hist = r.latency_hist;
  if (cell.committed + cell.aborted != cell.tasks) {
    Fail(&cell, "committed + aborted != generated tasks");
  }
  if (!spec.tpcc && cell.aborted != 0) Fail(&cell, "YCSB transaction aborted");

  sw.Reset();
  cell.before = CheckState(db.get(), spec, &cell, "before crash");
  cell.verify_ns = sw.ElapsedNanos();

  const Counters pre_recover = Counters::Of(db->device()->counters());
  sw.Reset();
  db->Crash();
  db->Recover();
  cell.recover_ns = sw.ElapsedNanos();
  cell.recover_c =
      Counters::Of(db->device()->counters()).Minus(pre_recover);

  sw.Reset();
  cell.after = CheckState(db.get(), spec, &cell, "after recovery");
  cell.verify_ns += sw.ElapsedNanos();
  if (cell.after.checksum != cell.before.checksum) {
    Fail(&cell, "state checksum changed across crash + recovery");
  }

  cell.footprint_bytes = db->Footprint().total();
  cell.alloc_high_water = db->allocator()->stats().high_water;
  if (trace != nullptr) cell.wear_hotspot = db->device()->wear().hotspot_factor;

  sw.Reset();
  db.reset();
  cell.close_ns = sw.ElapsedNanos();
  return cell;
}

void PrintCounters(const char* key, const Counters& c) {
  printf("\"%s\":{\"loads\":%llu,\"stores\":%llu,\"hits\":%llu,"
         "\"syncs\":%llu,\"stall_ns\":%llu,\"external_ns\":%llu,"
         "\"tag_ns\":{",
         key, (unsigned long long)c.loads, (unsigned long long)c.stores,
         (unsigned long long)c.hits, (unsigned long long)c.syncs,
         (unsigned long long)c.stall_ns, (unsigned long long)c.external_ns);
  for (size_t i = 0; i < kStallTagCount; i++) {
    printf("%s\"%s\":%llu", i ? "," : "",
           StallTagName(static_cast<StallTag>(i)),
           (unsigned long long)c.tag_ns[i]);
  }
  printf("}}");
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  std::string workload, spans_path;
  uint64_t seed = 0;
  bool traced = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--trace") {
      traced = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  for (const char* var :
       {"NVMDB_SHARED_CACHE", "NVMDB_FORCE_SCALAR_PROBE", "NVMDB_TRACE_DIR"}) {
    if (std::getenv(var) != nullptr) {
      fprintf(stderr, "refusing to run: %s is set and changes what is "
                      "measured\n", var);
      return 2;
    }
  }
  WorkloadSpec spec;
  if (!have_seed || !MakeSpec(workload, seed, &spec)) {
    fprintf(stderr,
            "usage: nvmdb_e2e --workload <ycsb-read-hot|ycsb-write-cold|"
            "tpcc> --seed <n> [--trace 0|1] [--spans <file>]\n");
    return 2;
  }
  if (traced && spans_path.empty()) {
    fprintf(stderr, "--trace 1 needs --spans <file>\n");
    return 2;
  }

  Tracer tracer;
  if (traced) tracer.Reserve(1u << 20);

  std::vector<Cell> cells;
  Stopwatch wall;
  for (EngineKind kind : kKinds) {
    cells.push_back(RunCell(spec, kind, traced ? &tracer : nullptr));
  }
  const uint64_t wall_ns = wall.ElapsedNanos();

  // Cross-engine checks: every engine must end in the same state, before
  // the crash and after recovery, with the same commit and abort counts.
  for (Cell& c : cells) {
    const Cell& ref = cells[0];
    if (c.before.checksum != ref.before.checksum ||
        c.after.checksum != ref.after.checksum) {
      Fail(&c, "state checksum differs from " + ref.engine);
    }
    if (c.committed != ref.committed || c.aborted != ref.aborted) {
      Fail(&c, "commit/abort counts differ from " + ref.engine);
    }
  }

  if (traced && !tracer.Write(spans_path)) {
    fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    return 1;
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);

  printf("{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"wall_ns\":%llu,"
         "\"peak_rss_kb\":%ld,\"partitions\":%zu,\"build_type\":%s,"
         "\"compiler\":%s,\"line_size\":64,\"cells\":[",
         JsonStr(spec.name).c_str(), (unsigned long long)seed,
         traced ? "true" : "false", (unsigned long long)wall_ns,
         ru.ru_maxrss, kPartitions, JsonStr(NVMDB_E2E_BUILD_TYPE).c_str(),
         JsonStr(NVMDB_E2E_COMPILER).c_str());
  for (size_t i = 0; i < cells.size(); i++) {
    const Cell& c = cells[i];
    printf("%s{\"engine\":%s,\"tasks\":%llu,\"committed\":%llu,"
           "\"aborted\":%llu,\"open_ns\":%llu,\"load_ns\":%llu,"
           "\"gen_ns\":%llu,\"run_ns\":%llu,\"verify_ns\":%llu,"
           "\"recover_ns\":%llu,\"close_ns\":%llu,",
           i ? "," : "", JsonStr(c.engine).c_str(),
           (unsigned long long)c.tasks, (unsigned long long)c.committed,
           (unsigned long long)c.aborted, (unsigned long long)c.open_ns,
           (unsigned long long)c.load_ns, (unsigned long long)c.gen_ns,
           (unsigned long long)c.run_ns, (unsigned long long)c.verify_ns,
           (unsigned long long)c.recover_ns, (unsigned long long)c.close_ns);
    PrintCounters("load", c.load_c);
    printf(",");
    PrintCounters("run", c.run_c);
    printf(",");
    PrintCounters("recover", c.recover_c);
    printf(",\"sim_p50_ns\":%llu,\"sim_p99_ns\":%llu,",
           (unsigned long long)c.hist.Percentile(50),
           (unsigned long long)c.hist.Percentile(99));
    printf("\"hist\":[");
    const auto& b = c.hist.buckets();
    bool first = true;
    for (size_t k = 0; k < b.size(); k++) {
      if (b[k] == 0) continue;
      printf("%s[%llu,%llu]", first ? "" : ",",
             (unsigned long long)LatencyHistogram::BucketLowerBound(k),
             (unsigned long long)b[k]);
      first = false;
    }
    printf("],\"state_before\":\"%016llx\",\"state_after\":\"%016llx\","
           "\"rows\":%llu,\"state_bytes\":%llu,\"footprint_bytes\":%llu,"
           "\"alloc_high_water\":%llu,\"wear_hotspot\":%.6f,"
           "\"user_bytes\":%llu,\"ckpt_events\":%llu,\"compactions\":%llu,"
           "\"wa_tenths\":[",
           (unsigned long long)c.before.checksum,
           (unsigned long long)c.after.checksum,
           (unsigned long long)c.before.rows,
           (unsigned long long)c.before.bytes,
           (unsigned long long)c.footprint_bytes,
           (unsigned long long)c.alloc_high_water, c.wear_hotspot,
           (unsigned long long)c.user_bytes,
           (unsigned long long)c.ckpt_events,
           (unsigned long long)c.compactions);
    for (size_t k = 0; k < c.wa_tenths.size(); k++) {
      printf("%s[%llu,%llu]", k ? "," : "",
             (unsigned long long)c.wa_tenths[k].first,
             (unsigned long long)c.wa_tenths[k].second);
    }
    printf("],\"digest\":{\"counters\":\"%016llx\",\"latency\":\"%016llx\","
           "\"commits\":\"%016llx\",\"state\":\"%016llx\"},\"failures\":[",
           (unsigned long long)c.CounterDigest(),
           (unsigned long long)c.LatencyDigest(),
           (unsigned long long)c.CommitDigest(),
           (unsigned long long)c.StateDigest());
    for (size_t k = 0; k < c.failures.size(); k++) {
      printf("%s%s", k ? "," : "", JsonStr(c.failures[k]).c_str());
    }
    printf("]}");
  }
  printf("]}\n");
  return 0;
}

}  // namespace
}  // namespace nvmdb

int main(int argc, char** argv) { return nvmdb::Main(argc, argv); }

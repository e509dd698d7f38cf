/// nvmdb_bench — every deterministic paper figure and table in one binary.
///
///   nvmdb_bench [figure...]
///
/// With no arguments it prints every figure in the order of kFigures.
/// Each figure requests its cells from one CellRegistry
/// (cell_registry.h), one BenchRunner pass (NVMDB_BENCH_JOBS) executes
/// each distinct cell once, and then each figure prints its tables and
/// writes BENCH_<figure>.json (NVMDB_BENCH_JSON_DIR). Every table prints
/// after the barrier, in grid order, so stdout is byte-identical for any
/// job count; progress lines and the [clock] summary go to stderr.
///
/// Fig. 12 (host-timed recovery) and the simulator microbenchmark stay
/// separate binaries: bench_fig12_recovery and bench_cachesim.
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cell_registry.h"

using namespace nvmdb;
using namespace nvmdb::bench;

namespace {

using Key = std::vector<std::pair<std::string, std::string>>;

/// The cells one figure prints, in report order: each is requested from
/// the registry and reported under the figure's own key.
class Cells {
 public:
  explicit Cells(CellRegistry* reg) : reg_(reg) {}

  void Add(const CellSpec& spec, Key key) {
    ids_.push_back(reg_->Request(spec));
    keys_.push_back(std::move(key));
  }

  /// Result of the i-th added cell. Valid once the registry has run.
  const BenchRun& operator[](size_t i) const { return reg_->run(ids_[i]); }
  size_t size() const { return ids_.size(); }

  std::vector<BenchCell> Report() const {
    std::vector<BenchCell> out;
    for (size_t i = 0; i < ids_.size(); i++) {
      out.push_back(reg_->Cell(ids_[i], keys_[i]));
    }
    return out;
  }

  size_t jobs() const { return reg_->jobs(); }

 private:
  CellRegistry* reg_;
  std::vector<size_t> ids_;
  std::vector<Key> keys_;
};

/// A figure requests its cells and returns its printer, which runs after
/// the registry has executed them.
using Printer = std::function<void()>;

const YcsbMixture kMixtures[4] = {
    YcsbMixture::kReadOnly, YcsbMixture::kReadHeavy, YcsbMixture::kBalanced,
    YcsbMixture::kWriteHeavy};
const YcsbSkew kSkews[2] = {YcsbSkew::kLow, YcsbSkew::kHigh};
const size_t kEngines = 6;  // AllEngines().size()

double Tps(const BenchRun& run, const NvmLatencyConfig& profile) {
  return DeriveThroughput(run.committed, run.wall_ns, run.counters, profile,
                          Scale().partitions);
}

void WriteReport(const char* figure, const Cells& cells,
                 const std::vector<BenchCell>& report,
                 bool scale_context = true) {
  WriteBenchReport(figure, cells.jobs(),
                   scale_context ? ScaleContext() : Key{}, report);
}

void PrintYcsbScale() {
  printf("YCSB: %llu tuples, %llu txns, %zu partitions\n",
         (unsigned long long)Scale().ycsb_tuples,
         (unsigned long long)Scale().ycsb_txns, Scale().partitions);
}

void PrintEngineColumns(const char* first_column, int width) {
  printf("%-*s", width, first_column);
  for (EngineKind e : AllEngines()) printf("%12s", EngineKindName(e));
  printf("\n");
}

/// The 48 default-config YCSB cells of Figs. 5-7 and 9-10, at
/// (m * 2 + s) * 6 + e.
Cells YcsbGrid(CellRegistry* reg) {
  Cells cells(reg);
  for (YcsbMixture mixture : kMixtures) {
    for (YcsbSkew skew : kSkews) {
      for (EngineKind engine : AllEngines()) {
        cells.Add(CellSpec::Ycsb(engine, mixture, skew),
                  {{"mixture", YcsbMixtureName(mixture)},
                   {"skew", YcsbSkewName(skew)},
                   {"engine", EngineKindName(engine)}});
      }
    }
  }
  return cells;
}

void AddTpcc(Cells* cells, const Key& prefix) {
  for (EngineKind engine : AllEngines()) {
    Key key = prefix;
    key.emplace_back("engine", EngineKindName(engine));
    cells->Add(CellSpec::Tpcc(engine), key);
  }
}

/// Fig. 1 — Durable write bandwidth of the two NVM interfaces: durable
/// writes through (a) the allocator interface (write + sync primitive, all
/// in userspace) and (b) the filesystem interface (write() + fsync(),
/// paying the VFS crossing), sequential and random, chunks 1–256 B.
/// Bandwidth is bytes over the simulated stall time.
///
/// Expected shape (paper): the allocator delivers ~10–12x higher durable
/// write bandwidth, most pronounced for small sequential chunks.
Printer Fig01Interfaces(CellRegistry* reg) {
  static const size_t kChunks[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  Cells cells(reg);  // [(pattern * 9 + chunk) * 2 + filesystem]
  for (const bool sequential : {true, false}) {
    for (size_t chunk : kChunks) {
      for (const bool filesystem : {false, true}) {
        cells.Add(CellSpec::Interface(filesystem, sequential, chunk),
                  {{"interface", filesystem ? "filesystem" : "allocator"},
                   {"pattern", sequential ? "sequential" : "random"},
                   {"chunk", std::to_string(chunk)}});
      }
    }
  }
  return [cells]() {
    PrintHeader(
        "Fig. 1: Durable write bandwidth, allocator vs. filesystem "
        "interface (MB/s)");
    size_t i = 0;
    for (const bool sequential : {true, false}) {
      printf("\n--- %s writes ---\n", sequential ? "Sequential" : "Random");
      printf("%-10s %16s %16s %8s\n", "chunk(B)", "allocator",
             "filesystem", "ratio");
      for (size_t chunk : kChunks) {
        const double alloc_bw = cells[i++].mb_per_s;
        const double fs_bw = cells[i++].mb_per_s;
        printf("%-10zu %16.1f %16.1f %7.1fx\n", chunk, alloc_bw, fs_bw,
               alloc_bw / fs_bw);
      }
    }
    printf(
        "\nPaper shape: allocator ~10-12x higher durable write bandwidth;\n"
        "gap widest for small sequential chunks (Section 2.3, Fig. 1).\n");
    WriteBenchReport(
        "fig01_interfaces", cells.jobs(),
        {{"fig1_bytes", std::to_string(InterfaceBytesPerPoint())}},
        cells.Report());
  };
}

/// Figs. 5–7 — YCSB throughput: 4 mixtures x 2 skews x 3 NVM latency
/// profiles x 6 engines. One execution per (engine, mixture, skew) runs
/// under the DRAM profile; the Low/High-NVM numbers are derived from the
/// recorded NVM load/store/sync counters (the counters are
/// latency-invariant — see bench_util.h).
///
/// Expected shape (paper): NVM-aware engines up to ~5.5x the traditional
/// ones on write-heavy mixtures; NVM-InP ~ InP on read-only; CoW slowest
/// reader among in-place engines, Log slowest overall on reads due to
/// tuple coalescing; all gaps narrow as latency rises.
Printer Fig05_07Ycsb(CellRegistry* reg) {
  return [cells = YcsbGrid(reg)]() {
    PrintYcsbScale();
    ClockTotals clocks;
    for (size_t i = 0; i < cells.size(); i++) clocks.Add(cells[i]);
    ReportClocks("YCSB measured phases", clocks);

    int figure = 5;
    for (const LatencyProfile& latency : PaperLatencies()) {
      char title[128];
      snprintf(title, sizeof(title),
               "Fig. %d: YCSB throughput (txn/sec) under %s", figure++,
               latency.name);
      PrintHeader(title);
      for (int m = 0; m < 4; m++) {
        printf("\n--- %s workload ---\n", YcsbMixtureName(kMixtures[m]));
        PrintEngineColumns("skew", 10);
        for (int s = 0; s < 2; s++) {
          printf("%-10s", s == 0 ? "low" : "high");
          for (size_t e = 0; e < kEngines; e++) {
            printf("%12.0f",
                   Tps(cells[(m * 2 + s) * kEngines + e], latency.config));
          }
          printf("\n");
        }
      }
    }
    printf(
        "\nPaper shape: NVM-aware > traditional (up to ~5.5x, "
        "write-heavy);\n"
        "skew helps via caching; higher latency narrows relative gaps\n"
        "(Sections 5.2, Figs. 5-7).\n");
    WriteReport("fig05_07_ycsb", cells, cells.Report());
  };
}

/// Fig. 8 — TPC-C throughput under the three NVM latency profiles.
///
/// Expected shape (paper): NVM-aware engines 1.8–2.1x their traditional
/// counterparts (NVM-CoW's speedup largest, ~2.3x, because TPC-C is
/// write-intensive); gaps shrink to ~1.7–1.9x at high latency.
Printer Fig08Tpcc(CellRegistry* reg) {
  Cells cells(reg);
  AddTpcc(&cells, {});
  return [cells]() {
    printf("TPC-C: %zu warehouses (1/partition), %llu txns\n",
           Scale().partitions, (unsigned long long)Scale().tpcc_txns);
    PrintHeader("Fig. 8: TPC-C throughput (txn/sec)");
    PrintEngineColumns("latency", 22);
    for (const LatencyProfile& latency : PaperLatencies()) {
      printf("%-22s", latency.name);
      for (size_t e = 0; e < kEngines; e++) {
        printf("%12.0f", Tps(cells[e], latency.config));
      }
      printf("\n");
    }
    printf(
        "\nPaper shape: NVM-aware 1.8-2.1x traditional; NVM-CoW's speedup\n"
        "over CoW largest (write-intensive mix); NVM-InP best overall\n"
        "(Section 5.2, Fig. 8).\n");
    WriteReport("fig08_tpcc", cells, cells.Report());
  };
}

/// Figs. 9 & 10 — NVM loads and stores executed while running YCSB (the
/// perf-counter measurements of Section 5.3): the Fig. 5–7 cells.
///
/// Expected shape (paper): Log engine performs the most loads (tuple
/// coalescing); CoW the most stores on write-intensive mixes (page
/// copying); NVM-aware engines do up to ~53% fewer loads and 17–48% fewer
/// stores; higher skew reduces loads via caching.
Printer Fig09_10YcsbRw(CellRegistry* reg) {
  return [cells = YcsbGrid(reg)]() {
    PrintYcsbScale();
    const char* figs[2] = {"Fig. 9: YCSB NVM loads (millions)",
                           "Fig. 10: YCSB NVM stores (millions)"};
    for (int metric = 0; metric < 2; metric++) {
      PrintHeader(figs[metric]);
      for (int m = 0; m < 4; m++) {
        printf("\n--- %s workload ---\n", YcsbMixtureName(kMixtures[m]));
        PrintEngineColumns("skew", 10);
        for (int s = 0; s < 2; s++) {
          printf("%-10s", s == 0 ? "low" : "high");
          for (size_t e = 0; e < kEngines; e++) {
            const CounterDelta& d = cells[(m * 2 + s) * kEngines + e].counters;
            printf("%12.3f", (metric == 0 ? d.loads : d.stores) / 1e6);
          }
          printf("\n");
        }
      }
    }
    printf(
        "\nPaper shape: Log most loads (coalescing); CoW most stores\n"
        "(page copies); NVM-aware engines fewer of both; high skew lowers\n"
        "loads via CPU-cache hits (Section 5.3, Figs. 9-10).\n");
    WriteReport("fig09_10_ycsb_rw", cells, cells.Report());
  };
}

/// Fig. 11 — NVM loads/stores executed while running TPC-C: the Fig. 8
/// cells.
///
/// Expected shape (paper): NVM-aware engines perform 31–42% fewer writes;
/// access pattern resembles the YCSB write-heavy mixture; the Log engine
/// writes more here than under YCSB because TPC-C's secondary indexes add
/// maintenance writes.
Printer Fig11TpccRw(CellRegistry* reg) {
  Cells cells(reg);
  AddTpcc(&cells, {});
  return [cells]() {
    printf("TPC-C: %zu warehouses, %llu txns\n", Scale().partitions,
           (unsigned long long)Scale().tpcc_txns);
    PrintHeader("Fig. 11: TPC-C NVM loads & stores (millions)");
    printf("%-10s", "");
    for (EngineKind e : AllEngines()) printf("%12s", EngineKindName(e));
    printf("\n%-10s", "loads");
    for (size_t e = 0; e < kEngines; e++) {
      printf("%12.3f", cells[e].counters.loads / 1e6);
    }
    printf("\n%-10s", "stores");
    for (size_t e = 0; e < kEngines; e++) {
      printf("%12.3f", cells[e].counters.stores / 1e6);
    }
    printf("\n");

    const double inp = static_cast<double>(cells[0].counters.stores);
    const double nvm_inp = static_cast<double>(cells[3].counters.stores);
    printf("\nNVM-InP stores vs InP: %.0f%% fewer\n",
           100.0 * (inp - nvm_inp) / inp);
    printf(
        "Paper shape: NVM-aware engines 31-42%% fewer stores; patterns "
        "match\n"
        "the YCSB write-heavy mixture (Section 5.3, Fig. 11).\n");
    WriteReport("fig11_tpcc_rw", cells, cells.Report());
  };
}

double StallPct(const StallBreakdown& tags, size_t t) {
  const uint64_t total = tags.total();
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(tags.ns[t]) /
                          static_cast<double>(total);
}

/// Fig. 13 — Execution-time breakdown of the low-skew YCSB cells under
/// the low-NVM-latency profile, attributed per component on the simulated
/// clock: wal / index / tuple / allocator / checkpoint / recovery / other
/// (ScopedStallTag attribution inside the engines).
///
/// Expected shape (paper): on write-heavy mixes the NVM-aware engines
/// spend ~13–18% on recovery-related (WAL) work vs up to ~33% for
/// traditional ones; CoW engines spend relatively more on durability even
/// when read-heavy (dirty-directory maintenance); Log engines spend the
/// most on index access (LSM lookups).
Printer Fig13Breakdown(CellRegistry* reg) {
  Cells cells(reg);  // [m * 6 + e]
  for (YcsbMixture mixture : kMixtures) {
    for (EngineKind engine : AllEngines()) {
      cells.Add(CellSpec::Ycsb(engine, mixture, YcsbSkew::kLow),
                {{"mixture", YcsbMixtureName(mixture)},
                 {"engine", EngineKindName(engine)}});
    }
  }
  return [cells]() {
    PrintHeader(
        "Fig. 13: execution-time breakdown (%), YCSB low skew, low "
        "latency");
    std::vector<BenchCell> report = cells.Report();
    for (int m = 0; m < 4; m++) {
      printf("\n--- %s workload ---\n", YcsbMixtureName(kMixtures[m]));
      printf("%-10s", "engine");
      for (size_t t = 0; t < kStallTagCount; t++) {
        printf(" %10s", StallTagName(static_cast<StallTag>(t)));
      }
      printf("\n");
      for (size_t e = 0; e < kEngines; e++) {
        const size_t i = m * kEngines + e;
        const StallBreakdown& tags = cells[i].counters.tags;
        printf("%-10s", EngineKindName(AllEngines()[e]));
        for (size_t t = 0; t < kStallTagCount; t++) {
          printf(" %9.1f%%", StallPct(tags, t));
          report[i].metrics.emplace_back(
              std::string(StallTagName(static_cast<StallTag>(t))) + "_pct",
              StallPct(tags, t));
        }
        printf("\n");
      }
    }
    printf(
        "\nPaper shape: WAL share grows with write intensity and is much\n"
        "smaller for NVM-aware engines; Log engines index-heavy\n"
        "(Section 5.5, Fig. 13).\n");
    WriteReport("fig13_breakdown", cells, report);
  };
}

/// Fig. 14 — Peak NVM storage footprint (table / index / log / checkpoint
/// / other) after running (a) YCSB balanced low-skew and (b) TPC-C.
///
/// Expected shape (paper): CoW largest on YCSB (dirty-directory churn +
/// page cache); InP/Log pay for their logs; NVM-aware engines 17–38%
/// smaller (pointers in WAL instead of images; no duplicated data).
Printer Fig14Footprint(CellRegistry* reg) {
  // Give InP a checkpoint interval so its checkpoint appears in the
  // footprint, as in the paper.
  EngineConfig ec;
  ec.checkpoint_interval_txns = EnvU64("NVMDB_CKPT_INTERVAL", 1000);
  Cells cells(reg);  // 6 YCSB, then 6 TPC-C
  for (EngineKind engine : AllEngines()) {
    cells.Add(
        CellSpec::Ycsb(engine, YcsbMixture::kBalanced, YcsbSkew::kLow, ec),
        {{"workload", "ycsb"}, {"engine", EngineKindName(engine)}});
  }
  AddTpcc(&cells, {{"workload", "tpcc"}});
  return [cells]() {
    std::vector<BenchCell> report = cells.Report();
    const char* titles[2] = {
        "Fig. 14a: storage footprint, YCSB balanced / low skew",
        "Fig. 14b: storage footprint, TPC-C"};
    for (size_t w = 0; w < 2; w++) {
      PrintHeader(titles[w]);
      printf("%-10s %10s %10s %10s %10s %10s %10s\n", "engine", "table",
             "index", "log", "ckpt", "other", "total");
      for (size_t e = 0; e < kEngines; e++) {
        const size_t i = w * kEngines + e;
        const FootprintStats& f = cells[i].footprint;
        printf("%-10s %10s %10s %10s %10s %10s %10s\n",
               EngineKindName(AllEngines()[e]),
               FormatBytes(f.table_bytes).c_str(),
               FormatBytes(f.index_bytes).c_str(),
               FormatBytes(f.log_bytes).c_str(),
               FormatBytes(f.checkpoint_bytes).c_str(),
               FormatBytes(f.other_bytes).c_str(),
               FormatBytes(f.total()).c_str());
        report[i].metrics.insert(
            report[i].metrics.end(),
            {{"table_bytes", static_cast<double>(f.table_bytes)},
             {"index_bytes", static_cast<double>(f.index_bytes)},
             {"log_bytes", static_cast<double>(f.log_bytes)},
             {"checkpoint_bytes", static_cast<double>(f.checkpoint_bytes)},
             {"total_bytes", static_cast<double>(f.total())}});
      }
    }
    printf(
        "\nPaper shape: NVM-aware engines 17-38%% smaller footprints;\n"
        "CoW inflated by page copies/cache; logs grow for InP/Log\n"
        "(Section 5.6, Fig. 14).\n");
    WriteReport("fig14_footprint", cells, report);
  };
}

/// Fig. 15 (Appendix B) — Sensitivity of the NVM-aware engines to B+tree
/// node size: STX-style nodes for NVM-InP/NVM-Log (64 B – 2 KB, default
/// 512 B) and CoW B+tree pages for NVM-CoW (512 B – 16 KB, default 4 KB).
/// The default-size cells are Fig. 13 cells.
///
/// Expected shape (paper): read-heavy workloads favor larger CoW pages
/// (shallower tree, less metadata flushing) while write-heavy favor
/// smaller ones (less copying); STX trees peak around 512 B.
Printer Fig15NodeSize(CellRegistry* reg) {
  struct Sweep {
    EngineKind engine;
    std::vector<size_t> sizes;
    bool is_cow_page;
  };
  static const Sweep kSweeps[] = {
      {EngineKind::kNvmInP, {64, 128, 256, 512, 1024, 2048}, false},
      {EngineKind::kNvmCoW, {512, 1024, 2048, 4096, 8192, 16384}, true},
      {EngineKind::kNvmLog, {64, 128, 256, 512, 1024, 2048}, false},
  };
  Cells cells(reg);  // sweep, size, mixture
  for (const Sweep& sweep : kSweeps) {
    for (size_t bytes : sweep.sizes) {
      for (YcsbMixture mixture : kMixtures) {
        EngineConfig ec;
        (sweep.is_cow_page ? ec.cow_page_bytes : ec.btree_node_bytes) = bytes;
        cells.Add(CellSpec::Ycsb(sweep.engine, mixture, YcsbSkew::kLow, ec),
                  {{"engine", EngineKindName(sweep.engine)},
                   {"node_bytes", std::to_string(bytes)},
                   {"mixture", YcsbMixtureName(mixture)}});
      }
    }
  }
  return [cells]() {
    PrintHeader(
        "Fig. 15: B+tree node-size sensitivity (YCSB, low NVM latency, low "
        "skew; txn/sec)");
    size_t i = 0;
    for (const Sweep& sweep : kSweeps) {
      printf("\n--- %s (%s) ---\n", EngineKindName(sweep.engine),
             sweep.is_cow_page ? "CoW B+tree page size"
                               : "STX B+tree node size");
      printf("%-12s", "bytes");
      for (YcsbMixture m : kMixtures) printf("%14s", YcsbMixtureName(m));
      printf("\n");
      for (size_t bytes : sweep.sizes) {
        printf("%-12zu", bytes);
        for (int m = 0; m < 4; m++) {
          printf("%14.0f", Tps(cells[i++], NvmLatencyConfig::LowNvm()));
        }
        printf("\n");
      }
    }
    printf(
        "\nPaper shape: CoW pages — bigger helps reads, hurts writes\n"
        "(copy cost); STX nodes peak near 512 B (Appendix B, Fig. 15).\n");
    WriteReport("fig15_node_size", cells, cells.Report());
  };
}

/// Fig. 16 (Appendix C) — Impact of the sync-primitive latency (modeling
/// PCOMMIT/CLWB-style instruction costs from 10 ns to 10000 ns) on the
/// NVM-aware engines, YCSB under low NVM latency and low skew. The
/// sync-call counters of the Fig. 13 cells yield each latency point
/// analytically (stall += sync_calls * latency).
///
/// Expected shape (paper): all NVM-aware engines degrade as the primitive
/// slows; the impact is strongest on write-intensive mixtures; NVM-CoW is
/// slightly less sensitive (durability mostly via data copies, fewer
/// syncs on the critical path).
Printer Fig16SyncLatency(CellRegistry* reg) {
  Cells cells(reg);  // [e * 4 + m]
  for (EngineKind engine : NvmEngines()) {
    for (YcsbMixture mixture : kMixtures) {
      cells.Add(CellSpec::Ycsb(engine, mixture, YcsbSkew::kLow),
                {{"engine", EngineKindName(engine)},
                 {"mixture", YcsbMixtureName(mixture)}});
    }
  }
  return [cells]() {
    const uint64_t latencies[] = {100 /*current (CLFLUSH+SFENCE)*/, 10, 100,
                                  1000, 10000};
    PrintHeader(
        "Fig. 16: sync-primitive latency sweep (txn/sec), YCSB low "
        "skew, low NVM latency");
    for (size_t e = 0; e < NvmEngines().size(); e++) {
      printf("\n--- %s ---\n", EngineKindName(NvmEngines()[e]));
      printf("%-16s", "sync ns");
      for (YcsbMixture m : kMixtures) printf("%14s", YcsbMixtureName(m));
      printf("\n");

      bool first = true;
      for (uint64_t sync_ns : latencies) {
        printf("%-16s",
               first ? "current" : std::to_string(sync_ns).c_str());
        NvmLatencyConfig profile = NvmLatencyConfig::LowNvm();
        if (!first) profile.sync_latency_ns = sync_ns;
        for (int m = 0; m < 4; m++) {
          printf("%14.0f", Tps(cells[e * 4 + m], profile));
        }
        printf("\n");
        first = false;
      }
    }
    printf(
        "\nPaper shape: throughput falls with sync latency, most on\n"
        "write-heavy mixes; NVM-CoW least sensitive (Appendix C, Fig. "
        "16).\n");
    WriteReport("fig16_sync_latency", cells, cells.Report());
  };
}

/// Table 3 (Appendix A) — Analytical cost model vs. measured bytes written
/// to NVM per insert / update / delete for every engine.
///
/// The paper's model (T = tuple size, F = one fixed field, V = one varlen
/// field, p = pointer, B = CoW B+tree node) predicts, e.g., InP writes
/// ~3T per insert (memory + log + table) while NVM-InP writes ~T + 2p.
/// The cells measure dirty-line write-backs (stores * 64 B) around batches
/// of single-op transactions; absolute values include line-granularity
/// rounding, so the *ordering* and rough ratios are what should match.
Printer Table3CostModel(CellRegistry* reg) {
  Cells cells(reg);
  for (EngineKind engine : AllEngines()) {
    cells.Add(CellSpec::CostModel(engine),
              {{"engine", EngineKindName(engine)}});
  }
  return [cells]() {
    PrintHeader(
        "Table 3: bytes written to NVM per operation — model vs. measured");
    // Model parameters for the YCSB tuple.
    const double T = 1088, F = 8, V = 100, p = 8, B = 4096;
    struct ModelRow {
      const char* engine;
      double ins, upd, del;
    };
    const ModelRow model[] = {
        {"InP", 3 * T, 4 * (F + V), T},  // mem+log+table / 2x images
        {"CoW", 2 * B + T, 2 * B + (F + V), 2 * B},  // node copies dominate
        {"Log", 2 * T + T, 4 * (F + V), T},  // theta ~= 1 at this scale
        {"NVM-InP", T + 2 * p, F + V + F + 2 * p, 2 * p},
        {"NVM-CoW", T + B + p, T + F + V + B + p, B},
        {"NVM-Log", T + 2 * p, F + V + F + 2 * p, 2 * p},
    };
    printf("%-10s | %22s | %22s | %22s\n", "engine", "insert (model/meas)",
           "update (model/meas)", "delete (model/meas)");
    for (size_t i = 0; i < kEngines; i++) {
      const double* m = cells[i].op_bytes;
      printf("%-10s | %10.0f / %8.0f | %10.0f / %8.0f | %10.0f / %8.0f\n",
             model[i].engine, model[i].ins, m[0], model[i].upd, m[1],
             model[i].del, m[2]);
    }
    printf(
        "\nPaper shape: traditional engines duplicate data (multiples of T\n"
        "or B per op); NVM-aware engines write roughly one copy plus\n"
        "pointers — the basis of their 2x wear reduction (Appendix A).\n");
    WriteReport("table3_cost_model", cells, cells.Report(),
                /*scale_context=*/false);
  };
}

/// Ablations for the design choices DESIGN.md calls out. Not a paper
/// figure — these isolate the mechanisms behind the paper's headline
/// numbers:
///
///  A. Group-commit size: amortizes durability cost but adds response
///     latency (Sections 3.1/4.1: NVM-InP "avoids the group commit wait").
///  B. Bloom filters on NVM-Log's immutable MemTables: the read-
///     amplification control of Section 4.3.
///  C. MemTable flush threshold for the Log engine: flush/compaction
///     frequency vs WAL length.
///
/// Each cell runs a single-partition database (latency attribution needs
/// one worker inside a cell).
Printer Ablation(CellRegistry* reg) {
  static const EngineKind kAEngines[] = {EngineKind::kInP, EngineKind::kCoW,
                                         EngineKind::kNvmCoW,
                                         EngineKind::kNvmInP};
  static const size_t kAGroups[] = {1, 4, 16, 64};
  static const YcsbMixture kBMixtures[] = {YcsbMixture::kReadHeavy,
                                           YcsbMixture::kBalanced};
  static const size_t kCThresholds[] = {64ull * 1024, 256ull * 1024,
                                        1024ull * 1024, 4096ull * 1024};
  static const YcsbMixture kCMixtures[] = {YcsbMixture::kBalanced,
                                           YcsbMixture::kWriteHeavy};

  Cells cells(reg);  // 16 section A, 4 section B, 8 section C; as printed
  for (EngineKind engine : kAEngines) {
    for (size_t group : kAGroups) {
      EngineConfig ec;
      ec.group_commit_size = group;
      cells.Add(CellSpec::YcsbSerial(engine, YcsbMixture::kWriteHeavy, ec),
                {{"section", "group_commit"},
                 {"engine", EngineKindName(engine)},
                 {"group", std::to_string(group)}});
    }
  }
  for (const bool use_blooms : {true, false}) {
    for (YcsbMixture mixture : kBMixtures) {
      EngineConfig ec;
      ec.use_bloom_filters = use_blooms;
      // Small MemTables and a high compaction trigger leave many
      // immutable runs alive, which is when the filters earn their keep.
      ec.memtable_threshold_bytes = 16 * 1024;
      ec.lsm_level0_limit = 48;
      cells.Add(CellSpec::YcsbSerial(EngineKind::kNvmLog, mixture, ec),
                {{"section", "bloom_filters"},
                 {"blooms", use_blooms ? "on" : "off"},
                 {"mixture", YcsbMixtureName(mixture)}});
    }
  }
  for (size_t threshold : kCThresholds) {
    for (YcsbMixture mixture : kCMixtures) {
      EngineConfig ec;
      ec.memtable_threshold_bytes = threshold;
      cells.Add(CellSpec::YcsbSerial(EngineKind::kLog, mixture, ec),
                {{"section", "memtable_threshold"},
                 {"threshold", std::to_string(threshold)},
                 {"mixture", YcsbMixtureName(mixture)}});
    }
  }
  return [cells]() {
    auto tps = [&cells](size_t i) {
      return DeriveThroughput(cells[i].committed, cells[i].wall_ns,
                              cells[i].counters, NvmLatencyConfig::LowNvm(),
                              1);
    };
    PrintHeader(
        "Ablation A: group-commit size vs throughput & response latency "
        "(YCSB write-heavy, 1 partition, low NVM latency)");
    printf("%-10s %6s %14s %14s %14s\n", "engine", "group", "txn/sec",
           "mean resp us", "p99 resp us");
    for (int e = 0; e < 4; e++) {
      for (int g = 0; g < 4; g++) {
        const LatencySummary& latency = cells[e * 4 + g].latency;
        printf("%-10s %6zu %14.0f %14.2f %14.2f\n",
               EngineKindName(kAEngines[e]), kAGroups[g], tps(e * 4 + g),
               latency.mean_ns / 1000.0, latency.p99_ns / 1000.0);
      }
    }
    printf(
        "\nShape: bigger groups raise throughput for the WAL/CoW engines "
        "but\n"
        "inflate response latency (txns wait for the group force); NVM-InP\n"
        "is flat — every commit is durable immediately (Section 4.1).\n");

    PrintHeader(
        "Ablation B: NVM-Log Bloom filters (read amplification control)");
    printf("%-12s %14s %14s\n", "blooms", "read-heavy", "balanced");
    for (int b = 0; b < 2; b++) {
      printf("%-12s", b == 0 ? "on" : "off");
      for (int m = 0; m < 2; m++) printf("%14.0f", tps(16 + b * 2 + m));
      printf("\n");
    }
    printf(
        "\nShape: disabling the filters forces index look-ups in every\n"
        "immutable MemTable (Section 4.3). The margin stays small while\n"
        "compaction keeps the run count low — the filters are insurance\n"
        "against compaction lag.\n");

    PrintHeader("Ablation C: Log engine MemTable flush threshold");
    printf("%-14s %14s %14s\n", "threshold", "balanced", "write-heavy");
    for (int t = 0; t < 4; t++) {
      printf("%-14s", FormatBytes(kCThresholds[t]).c_str());
      for (int m = 0; m < 2; m++) printf("%14.0f", tps(20 + t * 2 + m));
      printf("\n");
    }
    printf(
        "\nShape: small MemTables flush constantly (SSTable churn +\n"
        "compaction); large ones batch writes — the log-structured\n"
        "trade-off of Section 3.3.\n");
    WriteReport("ablation", cells, cells.Report());
  };
}

/// Device wear — the paper's second headline: NVM-aware engines reduce
/// "the amount of wear due to write operations by up to 2x" (Abstract,
/// Section 7). NVM cells endure a bounded number of writes (Table 1), so
/// we report per-engine total line-writes plus the wear *distribution*
/// (hottest line vs mean), which the allocator's rotating placement and
/// the engines' reduced duplication both improve.
Printer Wear(CellRegistry* reg) {
  static const YcsbMixture kWearMixtures[] = {YcsbMixture::kBalanced,
                                              YcsbMixture::kWriteHeavy};
  Cells cells(reg);  // [m * 6 + e]
  for (YcsbMixture mixture : kWearMixtures) {
    for (EngineKind engine : AllEngines()) {
      cells.Add(CellSpec::Wear(engine, mixture),
                {{"mixture", YcsbMixtureName(mixture)},
                 {"engine", EngineKindName(engine)}});
    }
  }
  return [cells]() {
    PrintHeader("NVM device wear, YCSB (line writes during the run)");
    for (int m = 0; m < 2; m++) {
      printf("\n--- %s workload ---\n", YcsbMixtureName(kWearMixtures[m]));
      printf("%-10s %16s %14s %12s\n", "engine", "line writes",
             "hottest line", "hotspot");
      for (size_t e = 0; e < kEngines; e++) {
        const WearStats& wear = cells[m * kEngines + e].wear;
        printf("%-10s %16llu %14llu %11.1fx\n",
               EngineKindName(AllEngines()[e]),
               (unsigned long long)wear.total_line_writes,
               (unsigned long long)wear.max_line_writes,
               wear.hotspot_factor);
        // Each NVM-aware engine follows its traditional counterpart.
        const uint64_t traditional =
            e < 3 ? 0 : cells[m * kEngines + e - 3].wear.total_line_writes;
        if (traditional > 0) {
          printf("%-10s   vs traditional: %.2fx fewer writes\n", "",
                 static_cast<double>(traditional) /
                     static_cast<double>(wear.total_line_writes));
        }
      }
    }
    printf(
        "\nPaper shape: NVM-aware engines write up to ~2x less to the\n"
        "device (no duplicated log images / page copies), extending its\n"
        "lifetime (Abstract, Sections 5.3/7).\n"
        "Note the NVM engines' high hotspot factor: it is the NV-WAL's\n"
        "anchor word, rewritten on every append/truncate — a single hot\n"
        "metadata line that device-level wear leveling (or anchor "
        "rotation)\n"
        "must absorb; bulk data wear is spread by the allocator's rotating\n"
        "placement.\n");
    WriteReport("wear", cells, cells.Report());
  };
}

struct Figure {
  const char* name;
  Printer (*request)(CellRegistry*);
};

/// Canonical order: the order of a run with no arguments.
const Figure kFigures[] = {
    {"fig01_interfaces", Fig01Interfaces},
    {"fig05_07_ycsb", Fig05_07Ycsb},
    {"fig08_tpcc", Fig08Tpcc},
    {"fig09_10_ycsb_rw", Fig09_10YcsbRw},
    {"fig11_tpcc_rw", Fig11TpccRw},
    {"fig13_breakdown", Fig13Breakdown},
    {"fig14_footprint", Fig14Footprint},
    {"fig15_node_size", Fig15NodeSize},
    {"fig16_sync_latency", Fig16SyncLatency},
    {"table3_cost_model", Table3CostModel},
    {"ablation", Ablation},
    {"wear", Wear},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Figure*> selected;
  for (int i = 1; i < argc; i++) {
    const Figure* match = nullptr;
    for (const Figure& f : kFigures) {
      if (std::strcmp(argv[i], f.name) == 0) match = &f;
    }
    if (match == nullptr) {
      fprintf(stderr, "nvmdb_bench: unknown figure '%s'\nfigures:", argv[i]);
      for (const Figure& f : kFigures) fprintf(stderr, " %s", f.name);
      fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(match);
  }
  if (selected.empty()) {
    for (const Figure& f : kFigures) selected.push_back(&f);
  }

  CellRegistry registry;
  std::vector<Printer> printers;
  for (const Figure* f : selected) printers.push_back(f->request(&registry));
  registry.RunAll();
  for (const Printer& print : printers) print();
  return ExitStatus();
}

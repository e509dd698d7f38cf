/// Determinism regression test: the same single-worker YCSB workload,
/// executed twice on fresh devices, must produce bit-identical model
/// outputs — NvmCounters (including the per-component stall attribution),
/// the simulated clock, WearStats, and the response-latency histogram.
/// This guards the "model output unchanged" invariant the simulator fast
/// path depends on: any accidental model change shows up as counter or
/// bucket drift here.
///
/// All six engines qualify: instrumented traffic is addressed either by
/// region offsets or by ReserveVirtual addresses (a deterministic bump
/// allocator in the device's modeled address space), so the cache model
/// never sees an ASLR-dependent raw pointer. The identity is asserted
/// across two axes: run-vs-rerun and bench-scheduler jobs=1 vs jobs=4.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "testbed/bench_runner.h"
#include "testbed/coordinator.h"
#include "testbed/database.h"
#include "workload/ycsb.h"

namespace nvmdb {
namespace {

const std::vector<EngineKind>& SixEngines() {
  static std::vector<EngineKind> engines = {
      EngineKind::kInP,    EngineKind::kCoW,    EngineKind::kLog,
      EngineKind::kNvmInP, EngineKind::kNvmCoW, EngineKind::kNvmLog};
  return engines;
}

struct ModelOutput {
  NvmCounters counters;
  WearStats wear;
  uint64_t stall_ns = 0;
  uint64_t committed = 0;
  LatencyHistogram latency_hist;
};

ModelOutput RunOnce(EngineKind engine) {
  DatabaseConfig cfg;
  cfg.num_partitions = 1;  // single worker: fully deterministic schedule
  cfg.nvm_capacity = 128ull * 1024 * 1024;
  cfg.latency = NvmLatencyConfig::Dram();
  cfg.cache.capacity_bytes = 1024 * 1024;
  cfg.engine = engine;
  Database db(cfg);

  YcsbConfig ycfg;
  ycfg.num_tuples = 2000;
  ycfg.num_txns = 3000;
  ycfg.num_partitions = 1;
  ycfg.mixture = YcsbMixture::kBalanced;
  ycfg.skew = YcsbSkew::kHigh;
  YcsbWorkload workload(ycfg);
  EXPECT_TRUE(workload.Load(&db).ok());

  Coordinator coordinator(&db);
  const RunResult result = coordinator.Run(workload.GenerateQueues());

  ModelOutput out;
  out.counters = db.device()->counters();
  out.wear = db.device()->wear();
  out.stall_ns = db.device()->TotalStallNanos();
  out.committed = result.committed;
  out.latency_hist = result.latency_hist;
  return out;
}

void ExpectIdentical(const ModelOutput& a, const ModelOutput& b) {
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.counters.loads, b.counters.loads);
  EXPECT_EQ(a.counters.stores, b.counters.stores);
  EXPECT_EQ(a.counters.hits, b.counters.hits);
  EXPECT_EQ(a.counters.stall_ns, b.counters.stall_ns);
  EXPECT_EQ(a.counters.external_ns, b.counters.external_ns);
  EXPECT_EQ(a.counters.sync_calls, b.counters.sync_calls);
  EXPECT_EQ(a.counters.bytes_read, b.counters.bytes_read);
  EXPECT_EQ(a.counters.bytes_written, b.counters.bytes_written);
  // Per-component stall attribution (wal/index/tuple/allocator/
  // checkpoint/recovery/other) must match tag by tag.
  for (size_t t = 0; t < kStallTagCount; t++) {
    EXPECT_EQ(a.counters.tag_ns[t], b.counters.tag_ns[t])
        << "tag " << StallTagName(static_cast<StallTag>(t));
  }
  EXPECT_EQ(a.stall_ns, b.stall_ns);
  EXPECT_EQ(a.wear.total_line_writes, b.wear.total_line_writes);
  EXPECT_EQ(a.wear.lines_touched, b.wear.lines_touched);
  EXPECT_EQ(a.wear.max_line_writes, b.wear.max_line_writes);
  EXPECT_DOUBLE_EQ(a.wear.mean_line_writes, b.wear.mean_line_writes);
  EXPECT_DOUBLE_EQ(a.wear.hotspot_factor, b.wear.hotspot_factor);
  // Bucket-exact latency-histogram equality — stronger than comparing
  // the summarized percentiles.
  EXPECT_EQ(a.latency_hist.count(), b.latency_hist.count());
  EXPECT_EQ(a.latency_hist.sum(), b.latency_hist.sum());
  EXPECT_EQ(a.latency_hist.max(), b.latency_hist.max());
  EXPECT_TRUE(a.latency_hist == b.latency_hist);
}

class EngineDeterminismTest : public ::testing::TestWithParam<EngineKind> {};

// Run-vs-rerun identity: two fresh databases driven by the same workload
// must produce the same model, counter for counter.
TEST_P(EngineDeterminismTest, RerunIdentical) {
  const ModelOutput baseline = RunOnce(GetParam());
  ExpectIdentical(baseline, RunOnce(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllSixEngines, EngineDeterminismTest,
                         ::testing::ValuesIn(SixEngines()),
                         [](const auto& info) {
                           std::string name = EngineKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The grid scheduler must not perturb the model either: the same six
// cells produce bit-identical outputs whether they run serially (jobs=1)
// or concurrently on pool threads (jobs=4). This is the in-process
// equivalent of the CI job that diffs bench stdout across NVMDB_BENCH_JOBS.
TEST(DeterminismTest, JobsOneVsFourIdentical) {
  auto run_grid = [](size_t jobs) {
    std::vector<ModelOutput> outputs(SixEngines().size());
    BenchRunner runner(jobs);
    for (size_t e = 0; e < SixEngines().size(); e++) {
      const EngineKind engine = SixEngines()[e];
      runner.Submit([&outputs, e, engine]() {
        outputs[e] = RunOnce(engine);
        return BenchCell{};
      });
    }
    runner.Wait();
    return outputs;
  };
  const std::vector<ModelOutput> serial = run_grid(1);
  const std::vector<ModelOutput> pooled = run_grid(4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t e = 0; e < serial.size(); e++) {
    SCOPED_TRACE(EngineKindName(SixEngines()[e]));
    ExpectIdentical(serial[e], pooled[e]);
  }
}

// The run must also do real work, or the identity above is vacuous.
TEST(DeterminismTest, RunsAreNonTrivial) {
  const ModelOutput out = RunOnce(EngineKind::kNvmInP);
  EXPECT_EQ(out.committed, 3000u);
  EXPECT_GT(out.counters.loads, 0u);
  EXPECT_GT(out.counters.stores, 0u);
  EXPECT_GT(out.stall_ns, 0u);
  EXPECT_GT(out.wear.total_line_writes, 0u);
  // Every committed transaction became durable and got a response time.
  EXPECT_EQ(out.latency_hist.count(), 3000u);
  EXPECT_GT(out.latency_hist.max(), 0u);
  // The stall attribution covers the whole simulated clock: tags are
  // charged inside ChargeStall itself, so the per-tag sum is exact.
  uint64_t tag_sum = 0;
  for (size_t t = 0; t < kStallTagCount; t++) {
    tag_sum += out.counters.tag_ns[t];
  }
  EXPECT_EQ(tag_sum, out.stall_ns);
  // WAL work must be attributed for a WAL engine.
  EXPECT_GT(out.counters.tag_ns[static_cast<size_t>(StallTag::kWal)], 0u);
}

}  // namespace
}  // namespace nvmdb

#include <gtest/gtest.h>

#include "test_util.h"
#include "testbed/coordinator.h"
#include "testbed/stats.h"
#include "workload/ycsb.h"

namespace nvmdb {
namespace {

using testutil::SimpleTable;
using testutil::SimpleTuple;

class TestbedTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(TestbedTest, MultiPartitionRun) {
  auto db = testutil::MakeDb(GetParam(), /*partitions=*/4,
                             128ull * 1024 * 1024);
  const TableDef def = SimpleTable();
  ASSERT_TRUE(db->CreateTable(def).ok());

  // Each partition inserts its own key range concurrently. The table
  // definition rides in the queue context, the key in the POD task.
  const auto shared_def = std::make_shared<const TableDef>(def);
  std::vector<TxnQueue> queues(4);
  for (size_t p = 0; p < 4; p++) {
    queues[p].ctx = shared_def;
    for (uint64_t i = 0; i < 100; i++) {
      TxnTask task;
      task.fn = [](const TxnTask& t, const TxnQueue& queue,
                   StorageEngine* engine, uint64_t txn, TxnScratch*) {
        const Schema* schema =
            &static_cast<const TableDef*>(queue.ctx.get())->schema;
        return engine->Insert(txn, 1, SimpleTuple(schema, t.key, "w", t.key))
            .ok();
      };
      task.key = p * 1000 + i;
      queues[p].tasks.push_back(task);
    }
  }
  Coordinator coordinator(db.get());
  const RunResult result = coordinator.Run(queues);
  EXPECT_EQ(result.committed, 400u);
  EXPECT_EQ(result.aborted, 0u);
  EXPECT_GT(result.Throughput(4), 0.0);

  // Every partition holds exactly its keys.
  for (size_t p = 0; p < 4; p++) {
    StorageEngine* engine = db->partition(p);
    const uint64_t txn = engine->Begin();
    Tuple out;
    EXPECT_TRUE(engine->Select(txn, 1, p * 1000 + 50, &out).ok());
    EXPECT_TRUE(
        engine->Select(txn, 1, ((p + 1) % 4) * 1000 + 50, &out).IsNotFound());
    engine->Commit(txn);
  }
}

TEST_P(TestbedTest, AbortedTasksCounted) {
  auto db = testutil::MakeDb(GetParam(), 1);
  ASSERT_TRUE(db->CreateTable(SimpleTable()).ok());
  std::vector<TxnQueue> queues(1);
  TxnTask task;
  task.fn = [](const TxnTask&, const TxnQueue&, StorageEngine*, uint64_t,
               TxnScratch*) { return false; /* abort */ };
  queues[0].tasks.push_back(task);
  Coordinator coordinator(db.get());
  const RunResult result = coordinator.Run(queues);
  EXPECT_EQ(result.committed, 0u);
  EXPECT_EQ(result.aborted, 1u);
}

INSTANTIATE_TEST_SUITE_P(Engines, TestbedTest,
                         ::testing::Values(EngineKind::kInP,
                                           EngineKind::kNvmInP,
                                           EngineKind::kNvmLog),
                         [](const auto& info) {
                           std::string name = EngineKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(StatsTest, FormatBreakdownSumsTo100) {
  StallBreakdown breakdown;
  breakdown.ns[static_cast<size_t>(StallTag::kWal)] = 250;
  breakdown.ns[static_cast<size_t>(StallTag::kIndex)] = 250;
  breakdown.ns[static_cast<size_t>(StallTag::kTuple)] = 250;
  breakdown.ns[static_cast<size_t>(StallTag::kOther)] = 250;
  EXPECT_EQ(FormatBreakdown(breakdown),
            "wal 25.0% index 25.0% tuple 25.0% allocator 0.0% "
            "checkpoint 0.0% recovery 0.0% other 25.0%");
}

TEST(StatsTest, FormatBreakdownAllZero) {
  EXPECT_EQ(FormatBreakdown(StallBreakdown{}),
            "wal 0% index 0% tuple 0% allocator 0% checkpoint 0% "
            "recovery 0% other 0%");
}

TEST(StatsTest, FormatBytesUnits) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KB");
  EXPECT_EQ(FormatBytes(3ull << 20), "3.00 MB");
  EXPECT_EQ(FormatBytes(5ull << 30), "5.00 GB");
}

TEST(StatsTest, CounterSamplerDeltas) {
  NvmDevice device(1 << 20, NvmLatencyConfig::Dram());
  CounterSampler sampler(&device);
  char buf[1024];
  device.Read(0, buf, 1024);
  const CounterDelta delta = sampler.Delta();
  EXPECT_GE(delta.loads, 16u);
  EXPECT_EQ(delta.sync_calls, 0u);
}

TEST(DatabaseTest, FootprintBreakdownIsPlausible) {
  auto db = testutil::MakeDb(EngineKind::kNvmInP, 1);
  ASSERT_TRUE(db->CreateTable(SimpleTable()).ok());
  StorageEngine* engine = db->partition(0);
  const TableDef def = SimpleTable();
  const uint64_t txn = engine->Begin();
  for (uint64_t i = 0; i < 200; i++) {
    engine->Insert(txn, 1, SimpleTuple(&def.schema, i, "f", i));
  }
  engine->Commit(txn);
  const FootprintStats stats = db->Footprint();
  EXPECT_GT(stats.table_bytes, 200u * 100);  // payload-dominated
  EXPECT_GT(stats.index_bytes, 0u);
  EXPECT_GT(stats.total(), stats.table_bytes);
}

TEST(DatabaseTest, RunResultUsesSimulatedClock) {
  RunResult result;
  result.committed = 1000;
  result.wall_ns = 9'000'000'000;  // host speed: excluded from throughput
  result.stall_ns = 4'000'000'000; // 4 s of simulated time over 4 workers
  EXPECT_DOUBLE_EQ(result.EffectiveSeconds(4), 1.0);
  EXPECT_DOUBLE_EQ(result.Throughput(4), 1000.0);
}

TEST(YcsbConfigTest, MixturesAndSkewNames) {
  EXPECT_EQ(YcsbReadPercent(YcsbMixture::kReadOnly), 100);
  EXPECT_EQ(YcsbReadPercent(YcsbMixture::kReadHeavy), 90);
  EXPECT_EQ(YcsbReadPercent(YcsbMixture::kBalanced), 50);
  EXPECT_EQ(YcsbReadPercent(YcsbMixture::kWriteHeavy), 10);
  EXPECT_STREQ(YcsbMixtureName(YcsbMixture::kBalanced), "balanced");
  EXPECT_STREQ(YcsbSkewName(YcsbSkew::kHigh), "high-skew");
}

}  // namespace
}  // namespace nvmdb

/// Cell registry of nvmdb_bench (bench/cell_registry.h): figures that
/// request the same configuration share one execution, and every field
/// that changes what a cell computes changes its key. A field missing
/// from the key would be a false cache hit — a figure would print another
/// configuration's numbers — so each one is checked by name.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "cell_registry.h"

namespace nvmdb {
namespace bench {
namespace {

/// Small cells, set before anything reads the process-wide Scale().
class SmallScaleEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    setenv("NVMDB_YCSB_TUPLES", "400", 1);
    setenv("NVMDB_YCSB_TXNS", "500", 1);
    setenv("NVMDB_PARTITIONS", "2", 1);
    setenv("NVMDB_NVM_MB", "128", 1);
    setenv("NVMDB_BENCH_JOBS", "2", 1);
  }
};
const ::testing::Environment* const kEnv =
    ::testing::AddGlobalTestEnvironment(new SmallScaleEnv);

CellSpec BaseSpec() {
  return CellSpec::Ycsb(EngineKind::kInP, YcsbMixture::kBalanced,
                        YcsbSkew::kLow);
}

TEST(CellRegistryTest, EveryFieldChangesTheKey) {
  const std::vector<std::pair<const char*, std::function<void(CellSpec*)>>>
      changes = {
          {"engine", [](CellSpec* s) { s->engine = EngineKind::kNvmInP; }},
          {"mixture",
           [](CellSpec* s) { s->mixture = YcsbMixture::kWriteHeavy; }},
          {"skew", [](CellSpec* s) { s->skew = YcsbSkew::kHigh; }},
          {"kind tpcc", [](CellSpec* s) { s->kind = CellKind::kTpcc; }},
          {"kind ycsb-serial",
           [](CellSpec* s) { s->kind = CellKind::kYcsbSerial; }},
          {"kind cost-model",
           [](CellSpec* s) { s->kind = CellKind::kCostModel; }},
          {"kind wear", [](CellSpec* s) { s->kind = CellKind::kWear; }},
          {"btree_node_bytes",
           [](CellSpec* s) { s->config.btree_node_bytes = 1024; }},
          {"cow_page_bytes",
           [](CellSpec* s) { s->config.cow_page_bytes = 8192; }},
          {"cow_cache_pages",
           [](CellSpec* s) { s->config.cow_cache_pages = 64; }},
          {"group_commit_size",
           [](CellSpec* s) { s->config.group_commit_size = 1; }},
          {"checkpoint_interval_txns",
           [](CellSpec* s) { s->config.checkpoint_interval_txns = 1000; }},
          {"memtable_threshold_bytes",
           [](CellSpec* s) { s->config.memtable_threshold_bytes = 65536; }},
          {"lsm_level0_limit",
           [](CellSpec* s) { s->config.lsm_level0_limit = 48; }},
          {"use_bloom_filters",
           [](CellSpec* s) { s->config.use_bloom_filters = false; }},
      };
  std::set<std::string> keys = {BaseSpec().Key()};
  for (const auto& [field, change] : changes) {
    SCOPED_TRACE(field);
    CellSpec spec = BaseSpec();
    change(&spec);
    const std::string key = spec.Key();
    EXPECT_NE(key, BaseSpec().Key());
    EXPECT_TRUE(keys.insert(key).second) << "key collides: " << key;
  }
  EXPECT_EQ(keys.size(), changes.size() + 1);

  // Each change also gives a distinct registry entry.
  CellRegistry registry;
  registry.Request(BaseSpec());
  for (const auto& [field, change] : changes) {
    CellSpec spec = BaseSpec();
    change(&spec);
    registry.Request(spec);
  }
  EXPECT_EQ(registry.size(), changes.size() + 1);
}

TEST(CellRegistryTest, InterfacePointsAreDistinct) {
  std::set<std::string> keys;
  for (const bool filesystem : {false, true}) {
    for (const bool sequential : {true, false}) {
      for (size_t chunk : {1, 2, 256}) {
        keys.insert(
            CellSpec::Interface(filesystem, sequential, chunk).Key());
      }
    }
  }
  EXPECT_EQ(keys.size(), 12u);
}

TEST(CellRegistryTest, FieldAtItsDefaultIsTheSameCell) {
  // Fig. 15's 512 B STX node is the default, so that point is the Fig. 5
  // cell rather than a second run of the same configuration.
  CellSpec explicit_default = BaseSpec();
  explicit_default.config.btree_node_bytes = EngineConfig{}.btree_node_bytes;
  EXPECT_EQ(explicit_default.Key(), BaseSpec().Key());
}

TEST(CellRegistryTest, TwoFiguresRequestingOneCellRunItOnce) {
  const CellSpec shared = CellSpec::Ycsb(
      EngineKind::kNvmInP, YcsbMixture::kWriteHeavy, YcsbSkew::kLow);
  EngineConfig node_default;
  node_default.btree_node_bytes = 512;
  CellSpec other = shared;
  other.mixture = YcsbMixture::kReadOnly;

  CellRegistry registry;
  // "Figure A" asks for two cells, "figure B" for the shared one again,
  // spelled with an explicit default node size.
  const size_t a_shared = registry.Request(shared);
  const size_t a_other = registry.Request(other);
  const size_t b_shared = registry.Request(CellSpec::Ycsb(
      EngineKind::kNvmInP, YcsbMixture::kWriteHeavy, YcsbSkew::kLow,
      node_default));
  EXPECT_EQ(a_shared, b_shared);
  EXPECT_NE(a_shared, a_other);
  ASSERT_EQ(registry.size(), 2u);

  EXPECT_EQ(registry.RunAll(), 2u);  // one execution per distinct cell

  const BenchCell a = registry.Cell(a_shared, {{"figure", "a"}});
  const BenchCell b = registry.Cell(b_shared, {{"figure", "b"}});
  EXPECT_EQ(a.id, shared.Key());
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.key, (std::vector<std::pair<std::string, std::string>>{
                       {"figure", "a"}}));
  EXPECT_EQ(a.committed, 500u);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.sim_ns, b.sim_ns);
  EXPECT_EQ(a.wall_ns, b.wall_ns);
  EXPECT_GT(a.wall_ns, 0u);
  EXPECT_GT(a.load_ns, 0u);
  EXPECT_GT(a.run_ns, 0u);
  // The other cell is a different run: read-only does no stores.
  EXPECT_NE(registry.Cell(a_other, {}).id, a.id);
  EXPECT_GT(registry.run(a_shared).counters.stores,
            registry.run(a_other).counters.stores);
}

TEST(CellRegistryTest, SideKindsRecordLoadAndRunTime) {
  CellRegistry registry;
  const size_t serial = registry.Request(CellSpec::YcsbSerial(
      EngineKind::kNvmInP, YcsbMixture::kWriteHeavy, EngineConfig{}));
  const size_t wear = registry.Request(
      CellSpec::Wear(EngineKind::kNvmLog, YcsbMixture::kBalanced));
  ASSERT_EQ(registry.RunAll(), 2u);
  for (size_t id : {serial, wear}) {
    const BenchCell cell = registry.Cell(id, {});
    SCOPED_TRACE(cell.id);
    EXPECT_GT(cell.committed, 0u);
    EXPECT_GT(cell.load_ns, 0u);
    EXPECT_GT(cell.run_ns, 0u);
  }
}

}  // namespace
}  // namespace bench
}  // namespace nvmdb

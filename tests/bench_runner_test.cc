/// Grid-determinism tests for the benchmark scheduler
/// (testbed/bench_runner.h): running the same cell grid serially
/// (jobs=1) and concurrently (jobs=4) must produce identical commit
/// counts and identical device counters for every cell — the property
/// that lets the figure benchmarks parallelize while keeping their
/// stdout tables byte-identical.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "testbed/bench_runner.h"
#include "testbed/coordinator.h"
#include "testbed/database.h"
#include "testbed/stats.h"
#include "workload/ycsb.h"

namespace nvmdb {
namespace {

struct CellResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  CounterDelta delta;
};

/// One small YCSB cell on a private database, as the figure benches do.
CellResult RunCell(EngineKind engine, YcsbMixture mixture) {
  DatabaseConfig cfg;
  cfg.num_partitions = 2;
  cfg.nvm_capacity = 256ull * 1024 * 1024;
  cfg.engine = engine;
  Database db(cfg);

  YcsbConfig ycfg;
  ycfg.num_tuples = 400;
  ycfg.num_txns = 500;
  ycfg.num_partitions = cfg.num_partitions;
  ycfg.mixture = mixture;
  YcsbWorkload workload(ycfg);
  EXPECT_TRUE(workload.Load(&db).ok());

  CounterSampler sampler(db.device());
  Coordinator coordinator(&db);
  const RunResult result = coordinator.Run(workload.GenerateQueues());

  CellResult out;
  out.committed = result.committed;
  out.aborted = result.aborted;
  out.delta = sampler.Delta();
  return out;
}

std::vector<BenchCell> RunGrid(size_t jobs,
                               std::vector<CellResult>* results) {
  const EngineKind engines[] = {EngineKind::kInP, EngineKind::kNvmInP,
                                EngineKind::kNvmLog};
  const YcsbMixture mixtures[] = {YcsbMixture::kReadHeavy,
                                  YcsbMixture::kWriteHeavy};
  results->assign(6, {});
  BenchRunner runner(jobs);
  EXPECT_EQ(runner.jobs(), jobs);
  for (int e = 0; e < 3; e++) {
    for (int m = 0; m < 2; m++) {
      const size_t idx = e * 2 + m;
      const EngineKind engine = engines[e];
      const YcsbMixture mixture = mixtures[m];
      const size_t slot =
          runner.Submit([results, idx, engine, mixture]() {
            const CellResult r = RunCell(engine, mixture);
            (*results)[idx] = r;
            BenchCell cell;
            cell.key = {{"engine", EngineKindName(engine)},
                        {"mixture", YcsbMixtureName(mixture)}};
            cell.committed = r.committed;
            cell.aborted = r.aborted;
            cell.sim_ns = r.delta.stall_ns;
            return cell;
          });
      EXPECT_EQ(slot, idx);
    }
  }
  runner.Wait();
  return runner.cells();
}

class BenchRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keep the unit test from littering report files.
    setenv("NVMDB_BENCH_JSON_DIR", "", 1);
  }
  void TearDown() override { unsetenv("NVMDB_BENCH_JSON_DIR"); }
};

TEST_F(BenchRunnerTest, ParallelGridMatchesSerialBitForBit) {
  std::vector<CellResult> serial, parallel;
  const std::vector<BenchCell> serial_cells =
      RunGrid(1, &serial);
  const std::vector<BenchCell> parallel_cells =
      RunGrid(4, &parallel);

  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(parallel.size(), 6u);
  ASSERT_EQ(serial_cells.size(), 6u);
  ASSERT_EQ(parallel_cells.size(), 6u);
  for (size_t i = 0; i < 6; i++) {
    SCOPED_TRACE("cell " + serial_cells[i].Label());
    EXPECT_GT(serial[i].committed, 0u);
    EXPECT_EQ(serial[i].committed, parallel[i].committed);
    EXPECT_EQ(serial[i].aborted, parallel[i].aborted);
    EXPECT_EQ(serial[i].delta.loads, parallel[i].delta.loads);
    EXPECT_EQ(serial[i].delta.stores, parallel[i].delta.stores);
    EXPECT_EQ(serial[i].delta.hits, parallel[i].delta.hits);
    EXPECT_EQ(serial[i].delta.sync_calls, parallel[i].delta.sync_calls);
    EXPECT_EQ(serial[i].delta.external_ns, parallel[i].delta.external_ns);
    EXPECT_EQ(serial[i].delta.stall_ns, parallel[i].delta.stall_ns);
    // Slot order is submission order regardless of completion order.
    EXPECT_EQ(serial_cells[i].key, parallel_cells[i].key);
    EXPECT_EQ(serial_cells[i].committed, parallel_cells[i].committed);
    // The runner stamps host wall time on every executed cell.
    EXPECT_GT(parallel_cells[i].wall_ns, 0u);
  }
}

TEST_F(BenchRunnerTest, LabelJoinsKeyValues) {
  BenchCell cell;
  cell.key = {{"engine", "InP"}, {"mixture", "balanced"}};
  EXPECT_EQ(cell.Label(), "InP balanced");
}

TEST_F(BenchRunnerTest, WriteReportEmitsJson) {
  char dir_template[] = "/tmp/bench_runner_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("NVMDB_BENCH_JSON_DIR", dir_template, 1);

  BenchRunner runner(1);
  runner.Submit([]() {
    BenchCell cell;
    cell.key = {{"engine", "InP"}};
    cell.id = "ycsb InP balanced low";
    cell.committed = 7;
    cell.sim_ns = 1000;
    cell.metrics = {{"tps_dram", 123.5}};
    return cell;
  });
  runner.Wait();
  const std::string path =
      WriteBenchReport("unit", runner.jobs(), {{"scale", "tiny"}},
                       runner.cells());
  ASSERT_EQ(path, std::string(dir_template) + "/BENCH_unit.json");

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 14, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  EXPECT_NE(contents.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(contents.find("\"scale\": \"tiny\""), std::string::npos);
  EXPECT_NE(contents.find("\"committed\": 7"), std::string::npos);
  EXPECT_NE(contents.find("\"tps_dram\": 123.5"), std::string::npos);
  EXPECT_NE(contents.find("\"cell_id\": \"ycsb InP balanced low\""),
            std::string::npos);

  std::remove(path.c_str());
  rmdir(dir_template);
}

TEST_F(BenchRunnerTest, EmptyJsonDirDisablesReport) {
  EXPECT_EQ(WriteBenchReport("disabled", 1, {}, {BenchCell{}}), "");
}

}  // namespace
}  // namespace nvmdb

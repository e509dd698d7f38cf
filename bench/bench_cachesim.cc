/// Microbenchmark for the NVM-simulation hot loop: CacheSim::Access /
/// FlushRange and the NvmDevice charge path wrapped around them. Every
/// instrumented byte the storage engines touch funnels through these
/// functions, so their cost bounds the wall-clock time of the whole bench
/// suite. Patterns: hit-dominated (the steady state of a cache-resident
/// working set), miss-dominated (streaming, constant dirty evictions),
/// flush-heavy (persist-style write+flush pairs), the set probe in
/// isolation (SIMD vs scalar), and the device and WAL paths wrapped
/// around the cache. Every case is single-threaded, like every user of a
/// CacheSim/NvmDevice.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "engine/tuple.h"
#include "engine/wal.h"
#include "nvm/cache_sim.h"
#include "nvm/nvm_device.h"
#include "nvm/pmem_allocator.h"
#include "nvm/pmfs.h"

namespace {

using nvmdb::CacheConfig;
using nvmdb::CacheSim;
using nvmdb::NvmDevice;
using nvmdb::NvmLatencyConfig;

CacheConfig BenchCacheConfig() {
  CacheConfig cfg;
  cfg.capacity_bytes = 1024 * 1024;  // the benchmark suite's scaled cache
  cfg.line_size = 64;
  cfg.associativity = 16;
  return cfg;
}

void BM_HitDominated(benchmark::State& state) {
  CacheSim cache(BenchCacheConfig(), {});
  constexpr uint64_t kWorkingSet = 512 * 1024;  // fits: every access hits
  for (uint64_t a = 0; a < kWorkingSet; a += 64) cache.Access(a, 8, false);
  uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(addr, 8, false));
    addr = (addr + 64) & (kWorkingSet - 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) /
      static_cast<double>(cache.hits() + cache.misses());
}

void BM_MissDominated(benchmark::State& state) {
  CacheSim cache(BenchCacheConfig(), {});
  constexpr uint64_t kStream = 64ull * 1024 * 1024;  // 64x the cache
  uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(addr, 8, true));
    addr = (addr + 64) & (kStream - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FlushHeavy(benchmark::State& state) {
  CacheSim cache(BenchCacheConfig(), {});
  constexpr uint64_t kRegion = 1024 * 1024;
  uint64_t addr = 0;
  for (auto _ : state) {
    cache.Access(addr, 64, true);
    benchmark::DoNotOptimize(
        cache.FlushRange(addr, 64, /*invalidate=*/false));
    addr = (addr + 64) & (kRegion - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

/// Set-probe cost in isolation, hit side: every access finds its line, so
/// the timed work is exactly the way-probe (SIMD broadcast-compare or the
/// scalar loop, per the `scalar` flag) plus the LRU bump. The working set
/// walks all ways of all sets, so probes land at every way index.
void BM_ProbeHit(benchmark::State& state, bool scalar) {
  CacheConfig cfg = BenchCacheConfig();
  cfg.force_scalar_probe = scalar;
  CacheSim cache(cfg, {});
  // Fill the whole cache so hits occur in every way, not just way 0.
  for (uint64_t a = 0; a < cfg.capacity_bytes; a += 64) {
    cache.Access(a, 8, false);
  }
  uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(addr, 8, false));
    addr = (addr + 64) & (cfg.capacity_bytes - 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) /
      static_cast<double>(cache.hits() + cache.misses());
}

/// Set-probe cost in isolation, miss side: a stream 64x the cache, so the
/// timed work is the failed way-probe plus the victim scan (SIMD
/// min-reduction over the LRU stamps or the scalar loop) and the dirty
/// write-back of the evicted line.
void BM_ProbeMiss(benchmark::State& state, bool scalar) {
  CacheConfig cfg = BenchCacheConfig();
  cfg.force_scalar_probe = scalar;
  CacheSim cache(cfg, {});
  constexpr uint64_t kStream = 64ull * 1024 * 1024;
  uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(addr, 8, true));
    addr = (addr + 64) & (kStream - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

/// Multi-line flush probe: persist-sized dirty ranges flushed without
/// invalidation (the CLWB regime every engine commit takes), four lines
/// per call so the FlushRange loop dominates over call overhead.
void BM_FlushRange(benchmark::State& state) {
  CacheSim cache(BenchCacheConfig(), {});
  constexpr uint64_t kRegion = 1024 * 1024;
  constexpr size_t kSpan = 256;  // 4 lines
  uint64_t addr = 0;
  for (auto _ : state) {
    cache.Access(addr, kSpan, true);
    benchmark::DoNotOptimize(
        cache.FlushRange(addr, kSpan, /*invalidate=*/false));
    addr = (addr + kSpan) & (kRegion - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

/// End-to-end device path: the instrumented Write + Persist pair the
/// engines issue per durable update, including the simulated-clock
/// accounting (one accumulation per call on the fast path).
void BM_DeviceWritePersist(benchmark::State& state) {
  NvmDevice device(16 * 1024 * 1024, NvmLatencyConfig::Dram(),
                   BenchCacheConfig());
  uint64_t offset = 0;
  uint64_t value = 0;
  for (auto _ : state) {
    device.Write(offset, &value, 8);
    device.Persist(offset, 8);
    value++;
    offset = (offset + 64) & (4 * 1024 * 1024 - 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_ns_per_op"] =
      static_cast<double>(device.TotalStallNanos()) /
      static_cast<double>(state.iterations());
}

/// The header-inlined resident-hit Touch path (what every engine read of
/// a cached tuple/node costs).
void BM_DeviceTouchHit(benchmark::State& state) {
  NvmDevice device(16 * 1024 * 1024, NvmLatencyConfig::Dram(),
                   BenchCacheConfig());
  constexpr uint64_t kWorkingSet = 512 * 1024;  // resident
  for (uint64_t a = 0; a < kWorkingSet; a += 64) {
    device.TouchRead(device.PtrAt(a), 8);
  }
  uint64_t addr = 0;
  for (auto _ : state) {
    device.TouchRead(device.PtrAt(addr), 8);
    addr = (addr + 64) & (kWorkingSet - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

/// Transaction-hot-path entry: one LogRecordRef encoded in a single pass
/// (header reserve + backpatch) into the WAL's reused buffer, Slices
/// viewing caller scratch — the per-update logging cost of the InP/Log
/// engines, group-commit flush included at the benchmark cadence.
void BM_WalAppend(benchmark::State& state) {
  NvmDevice device(64 * 1024 * 1024, NvmLatencyConfig::Dram(),
                   BenchCacheConfig());
  nvmdb::PmemAllocator allocator(&device);
  nvmdb::Pmfs fs(&allocator);
  nvmdb::Wal wal(&fs, "bench.wal", /*group_commit_size=*/4);
  const std::string before(64, 'b');
  const std::string after(64, 'a');
  nvmdb::LogRecordRef record;
  record.op = nvmdb::LogOp::kUpdate;
  record.table_id = 1;
  record.before = nvmdb::Slice(before);
  record.after = nvmdb::Slice(after);
  uint64_t txn = 0;
  for (auto _ : state) {
    record.txn_id = ++txn;
    record.key = txn & 1023;
    wal.Append(record);
    wal.LogCommit(txn);
    if ((txn & 16383) == 0) {
      // Bound file growth without letting truncation dominate.
      state.PauseTiming();
      wal.Truncate();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}

/// Transaction-hot-path entry: refill an arena-backed scratch tuple,
/// serialize it inlined into a reused buffer, and parse it back into a
/// second scratch — the materialize/serialize cycle of engine reads,
/// checkpoints, and LSM memtable flushes. Zero steady-state allocations.
void BM_TupleRoundtrip(benchmark::State& state) {
  std::vector<nvmdb::Column> cols;
  cols.push_back({"id", nvmdb::ColumnType::kUInt64, 8});
  for (int i = 1; i <= 10; i++) {
    cols.push_back({"f" + std::to_string(i), nvmdb::ColumnType::kVarchar,
                    100});
  }
  const nvmdb::Schema schema(cols);
  const std::string field(100, 'x');
  nvmdb::Tuple t(&schema);
  nvmdb::Tuple parsed(&schema);
  std::string bytes;
  uint64_t key = 0;
  for (auto _ : state) {
    t.Reset(&schema);
    t.SetU64(0, key++);
    for (size_t c = 1; c <= 10; c++) {
      char* dst = t.AppendStringUninit(c, field.size());
      memcpy(dst, field.data(), field.size());
    }
    bytes.clear();
    t.AppendInlined(&bytes);
    nvmdb::Tuple::ParseInlined(&schema, nvmdb::Slice(bytes), &parsed);
    benchmark::DoNotOptimize(parsed.Key());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}

BENCHMARK(BM_HitDominated);
BENCHMARK(BM_MissDominated);
BENCHMARK(BM_FlushHeavy);
BENCHMARK_CAPTURE(BM_ProbeHit, simd, /*scalar=*/false);
BENCHMARK_CAPTURE(BM_ProbeHit, scalar, /*scalar=*/true);
BENCHMARK_CAPTURE(BM_ProbeMiss, simd, /*scalar=*/false);
BENCHMARK_CAPTURE(BM_ProbeMiss, scalar, /*scalar=*/true);
BENCHMARK(BM_FlushRange);
BENCHMARK(BM_DeviceWritePersist);
BENCHMARK(BM_DeviceTouchHit);
BENCHMARK(BM_WalAppend);
BENCHMARK(BM_TupleRoundtrip);

}  // namespace

BENCHMARK_MAIN();

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "nvm/cache_sim.h"
#include "nvm/nvm_device.h"
#include "nvm/sync.h"

namespace nvmdb {
namespace {

/// Event counters wired into CacheCallbacks' raw-pointer interface.
struct EventCounts {
  uint64_t write_backs = 0;
  uint64_t fills = 0;

  CacheCallbacks AsCallbacks() {
    CacheCallbacks callbacks;
    callbacks.ctx = this;
    callbacks.write_back = [](void* ctx, uint64_t, size_t) {
      static_cast<EventCounts*>(ctx)->write_backs++;
    };
    callbacks.fill = [](void* ctx, uint64_t, size_t) {
      static_cast<EventCounts*>(ctx)->fills++;
    };
    return callbacks;
  }
};

// --- CacheSim ---------------------------------------------------------------

TEST(CacheSimTest, HitAfterMiss) {
  CacheConfig cfg;
  cfg.capacity_bytes = 4096;
  cfg.line_size = 64;
  cfg.associativity = 4;
  CacheSim cache(cfg, {});
  EXPECT_EQ(cache.Access(0, 64, false), 1u);  // miss
  EXPECT_EQ(cache.Access(0, 64, false), 0u);  // hit
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheSimTest, MultiLineAccess) {
  CacheConfig cfg;
  cfg.capacity_bytes = 4096;
  CacheSim cache(cfg, {});
  // 200 bytes spanning 4 lines (unaligned start).
  EXPECT_EQ(cache.Access(30, 200, false), 4u);
}

TEST(CacheSimTest, DirtyEvictionTriggersWriteBack) {
  CacheConfig cfg;
  cfg.capacity_bytes = 256;  // 4 lines total
  cfg.line_size = 64;
  cfg.associativity = 2;
  EventCounts events;
  CacheSim cache(cfg, events.AsCallbacks());
  // Dirty many distinct lines; capacity forces evictions of dirty lines.
  for (uint64_t i = 0; i < 64; i++) cache.Access(i * 64, 8, true);
  EXPECT_GT(events.write_backs, 32u);
}

TEST(CacheSimTest, FlushWritesBackAndInvalidates) {
  CacheConfig cfg;
  EventCounts events;
  CacheSim cache(cfg, events.AsCallbacks());
  cache.Access(128, 8, true);
  EXPECT_EQ(cache.FlushRange(128, 8, /*invalidate=*/true), 1u);
  EXPECT_EQ(events.write_backs, 1u);
  // Invalidated: next access misses again.
  const uint64_t fills_before = events.fills;
  cache.Access(128, 8, false);
  EXPECT_EQ(events.fills, fills_before + 1);
}

TEST(CacheSimTest, ClwbKeepsLineResident) {
  CacheConfig cfg;
  CacheSim cache(cfg, {});
  cache.Access(128, 8, true);
  cache.FlushRange(128, 8, /*invalidate=*/false);  // CLWB semantics
  EXPECT_EQ(cache.Access(128, 8, false), 0u);      // still cached
}

TEST(CacheSimTest, FlushCleanLineIsNoop) {
  CacheConfig cfg;
  CacheSim cache(cfg, {});
  cache.Access(0, 8, false);
  EXPECT_EQ(cache.FlushRange(0, 8, true), 0u);
}

TEST(CacheSimTest, DropDirtyDiscardsWithoutWriteBack) {
  CacheConfig cfg;
  EventCounts events;
  CacheSim cache(cfg, events.AsCallbacks());
  cache.Access(0, 64, true);
  cache.DropDirty();
  EXPECT_EQ(events.write_backs, 0u);
  EXPECT_EQ(cache.FlushRange(0, 64, true), 0u);  // nothing cached anymore
}

TEST(CacheSimTest, AccessExReportsWriteBacks) {
  CacheConfig cfg;
  cfg.capacity_bytes = 256;  // 4 lines total
  cfg.line_size = 64;
  cfg.associativity = 2;
  EventCounts events;
  CacheSim cache(cfg, events.AsCallbacks());
  CacheAccessResult total;
  for (uint64_t i = 0; i < 64; i++) {
    const CacheAccessResult r = cache.AccessEx(i * 64, 8, true);
    total.missed += r.missed;
    total.write_backs += r.write_backs;
  }
  // Every write-back surfaced by a callback was also reported to the
  // caller of AccessEx (this is what lets the device charge bandwidth
  // with one accumulation per access instead of one per line).
  EXPECT_EQ(events.write_backs, total.write_backs);
  EXPECT_EQ(cache.write_backs(), total.write_backs);
  EXPECT_EQ(cache.misses(), total.missed);
}

// Cross-thread access to a cache must be caught in debug builds (the
// zero-synchronization access path is only sound under strict thread
// confinement). Release builds compile the check out; the test skips
// there rather than exercising undefined behavior.
TEST(CacheSimOwnerDeathTest, CrossThreadAccessAbortsInDebug) {
  if (!CacheSim::kOwnerChecksEnabled) {
    GTEST_SKIP() << "owner checks compiled out (NDEBUG)";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  CacheConfig cfg;
  CacheSim cache(cfg, {});
  cache.Access(0, 8, false);  // this thread becomes the owner
  EXPECT_DEATH(
      std::thread([&cache] { cache.Access(64, 8, false); }).join(),
      "owner-thread violation");
}

// --- NvmDevice ---------------------------------------------------------------

/// Crash() copies back only the pages the durable image ever received and
/// drops the rest of the working image; after it, the two images must be
/// equal over the whole device.
void ExpectImagesEqual(const NvmDevice& device) {
  EXPECT_EQ(std::memcmp(device.working_image(), device.durable_image(),
                        device.capacity()),
            0);
}

uint64_t Load64(const NvmDevice& device, uint64_t offset) {
  uint64_t v;
  std::memcpy(&v, device.working_image() + offset, 8);
  return v;
}

/// Far enough apart that each slot is its own OS page for any page size up
/// to 64 KB, so "a page that was never durable" holds by construction.
constexpr uint64_t kPageSlot = 64 << 10;

class NvmDeviceTest : public ::testing::Test {
 protected:
  NvmDeviceTest() : device_(1 << 20, NvmLatencyConfig::LowNvm()) {}
  NvmDevice device_;
};

TEST_F(NvmDeviceTest, WriteReadRoundTrip) {
  const char data[] = "hello nvm";
  device_.Write(100, data, sizeof(data));
  char out[sizeof(data)];
  device_.Read(100, out, sizeof(data));
  EXPECT_STREQ(out, "hello nvm");
}

TEST_F(NvmDeviceTest, UnpersistedWritesAreLostOnCrash) {
  const char data[] = "volatile!";
  device_.Write(4096, data, sizeof(data));
  device_.Crash();
  ExpectImagesEqual(device_);
  char out[sizeof(data)] = {};
  device_.Read(4096, out, sizeof(data));
  EXPECT_EQ(out[0], '\0');
}

TEST_F(NvmDeviceTest, PersistedWritesSurviveCrash) {
  const char data[] = "durable";
  device_.Write(4096, data, sizeof(data));
  device_.Persist(4096, sizeof(data));
  device_.Crash();
  ExpectImagesEqual(device_);
  char out[sizeof(data)] = {};
  device_.Read(4096, out, sizeof(data));
  EXPECT_STREQ(out, "durable");
}

TEST_F(NvmDeviceTest, EvictedDirtyLinesSurviveCrash) {
  // Fill far more lines than the cache holds; early lines get evicted
  // (written back) and must survive even without explicit Persist.
  CacheConfig small_cache;
  small_cache.capacity_bytes = 8 * 1024;
  NvmDevice device(1 << 20, NvmLatencyConfig::Dram(), small_cache);
  for (uint64_t i = 0; i < 1024; i++) {
    const uint64_t v = i * 3 + 1;
    device.Write(i * 64, &v, 8);
  }
  device.Crash();
  ExpectImagesEqual(device);
  size_t survived = 0;
  for (uint64_t i = 0; i < 1024; i++) {
    uint64_t v = 0;
    device.Read(i * 64, &v, 8);
    if (v == i * 3 + 1) survived++;
  }
  // Most lines were evicted and written back; only the last ~128 lines
  // (cache capacity) could be lost.
  EXPECT_GT(survived, 800u);
  EXPECT_LT(survived, 1024u);
}

TEST_F(NvmDeviceTest, AtomicPersistWrite64) {
  device_.AtomicPersistWrite64(512, 0xDEADBEEFCAFEF00DULL);
  device_.Crash();
  ExpectImagesEqual(device_);
  uint64_t v = 0;
  device_.Read(512, &v, 8);
  EXPECT_EQ(v, 0xDEADBEEFCAFEF00DULL);
}

TEST_F(NvmDeviceTest, FlushAllMakesEverythingDurable) {
  const uint64_t kRaw = 0x8888;
  for (uint64_t i = 0; i < 100; i++) device_.Write(i * 128, &i, 8);
  std::memcpy(device_.PtrAt(9 * kPageSlot), &kRaw, 8);  // uninstrumented
  device_.FlushAll();
  device_.Crash();
  ExpectImagesEqual(device_);
  EXPECT_EQ(Load64(device_, 9 * kPageSlot), kRaw);
  for (uint64_t i = 0; i < 100; i++) {
    uint64_t v = ~0ull;
    device_.Read(i * 128, &v, 8);
    EXPECT_EQ(v, i);
  }
}

TEST_F(NvmDeviceTest, RawStoreToNeverDurablePageRevertsOnCrash) {
  // Uninstrumented: no cache line is dirtied, nothing is ever written back.
  std::memset(device_.PtrAt(5 * kPageSlot), 0xAB, 3000);
  device_.Crash();
  ExpectImagesEqual(device_);
  EXPECT_EQ(Load64(device_, 5 * kPageSlot), 0u);
  EXPECT_EQ(Load64(device_, 5 * kPageSlot + 2992), 0u);
}

TEST_F(NvmDeviceTest, PartlyDurablePageKeepsOnlyPersistedLine) {
  const uint64_t kept = 0x2222, lost = 0x3333;
  device_.Write(7 * kPageSlot, &kept, 8);
  device_.Persist(7 * kPageSlot, 8);
  device_.Write(7 * kPageSlot + 64, &lost, 8);
  std::memcpy(device_.PtrAt(7 * kPageSlot + 256), &lost, 8);  // raw store
  device_.Crash();
  ExpectImagesEqual(device_);
  EXPECT_EQ(Load64(device_, 7 * kPageSlot), kept);
  EXPECT_EQ(Load64(device_, 7 * kPageSlot + 64), 0u);
  EXPECT_EQ(Load64(device_, 7 * kPageSlot + 256), 0u);
}

TEST_F(NvmDeviceTest, PersistedRawStoreSurvivesCrash) {
  // No dirty cache line to write back: only Persist's own mirror of the
  // range makes these bytes durable.
  const uint64_t v = 0x2A2A;
  std::memcpy(device_.PtrAt(8 * kPageSlot + 64), &v, 8);
  device_.Persist(8 * kPageSlot + 64, 8);
  device_.Crash();
  ExpectImagesEqual(device_);
  EXPECT_EQ(Load64(device_, 8 * kPageSlot + 64), v);
}

TEST_F(NvmDeviceTest, RestoredImageSurvivesCrash) {
  std::vector<uint8_t> image(device_.capacity(), 0);
  std::memset(image.data() + 13 * kPageSlot + 100, 0x6C, 500);
  device_.RestoreImages(image.data(), image.size());
  const uint64_t v = 0x7777;
  device_.Write(13 * kPageSlot + 100, &v, 8);  // volatile, lost below
  device_.Crash();
  ExpectImagesEqual(device_);
  EXPECT_EQ(std::memcmp(device_.working_image(), image.data(), image.size()),
            0);
}

TEST_F(NvmDeviceTest, SecondCrashChangesNothing) {
  const uint64_t v = 0x9999;
  device_.Write(kPageSlot, &v, 8);
  device_.Persist(kPageSlot, 8);
  device_.Write(kPageSlot + 64, &v, 8);
  device_.Write(6 * kPageSlot, &v, 8);
  device_.Crash();
  const std::vector<uint8_t> first(
      device_.working_image(), device_.working_image() + device_.capacity());
  device_.Crash();
  ExpectImagesEqual(device_);
  EXPECT_EQ(std::memcmp(device_.working_image(), first.data(), first.size()),
            0);
  EXPECT_EQ(Load64(device_, kPageSlot), v);
  EXPECT_EQ(Load64(device_, kPageSlot + 64), 0u);
  EXPECT_EQ(Load64(device_, 6 * kPageSlot), 0u);
}

// A hot line's cache memo entry outlives the line: Crash() drops every
// line and a CLFLUSH-mode Persist (use_clwb = false) invalidates the ones
// it flushes, and neither resets the memo. The next Read must still pay a
// load and no hit — for one line (the inlined single-line path) and for a
// whole page (the multi-line loop) — so a stale memo entry never brings a
// dropped or invalidated line back.
TEST(NvmDeviceMemoTest, DroppedOrInvalidatedLinesMissAgain) {
  for (const bool crash : {true, false}) {
    for (const size_t n : {size_t{8}, size_t{4096}}) {
      SCOPED_TRACE(std::string(crash ? "Crash" : "CLFLUSH Persist") +
                   ", " + std::to_string(n) + " B");
      NvmLatencyConfig latency = NvmLatencyConfig::Dram();
      latency.use_clwb = false;
      NvmDevice device(1 << 20, latency);
      std::vector<uint8_t> buf(n, 0x5A);
      device.Write(kPageSlot, buf.data(), n);
      for (int i = 0; i < 3; i++) device.Read(kPageSlot, buf.data(), n);
      const NvmCounters hot = device.counters();
      device.Read(kPageSlot, buf.data(), n);
      ASSERT_EQ(device.counters().hits - hot.hits, (n + 63) / 64);

      if (crash) {
        device.Crash();
      } else {
        device.Persist(kPageSlot, n);
      }
      const NvmCounters before = device.counters();
      device.Read(kPageSlot, buf.data(), n);
      const NvmCounters after = device.counters();
      EXPECT_EQ(after.loads - before.loads, (n + 63) / 64);
      EXPECT_EQ(after.hits - before.hits, 0u);
    }
  }
}

long MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

long ResidentPages() {
  long size = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
  std::fclose(f);
  return resident;
}

TEST(CrashCostTest, CrashFaultsInOnlyDurablePages) {
  // A copy of the whole 256 MB image faults in 2 x 65536 4 KB pages (and
  // makes 256 MB of the working image resident); Crash() after one
  // persisted line must touch a handful. The resident-size check also
  // catches a full copy on hosts whose transparent huge pages turn those
  // faults into a few hundred 2 MB ones.
  CacheConfig cache;
  cache.capacity_bytes = 64 * 1024;
  NvmDevice device(256ull << 20, NvmLatencyConfig::Dram(), cache);
  const uint64_t v = 42;
  device.Write(100ull << 20, &v, 8);
  device.Persist(100ull << 20, 8);
  const long faults_before = MinorFaults();
  const long resident_before = ResidentPages();
  device.Crash();
  EXPECT_LT(MinorFaults() - faults_before, 256);
  EXPECT_LT(ResidentPages() - resident_before, 1024);  // 4 MB of 4 KB pages
  uint64_t out = 0;
  device.Read(100ull << 20, &out, 8);
  EXPECT_EQ(out, v);
}

TEST_F(NvmDeviceTest, CountersTrackLoadsAndStores) {
  const NvmCounters before = device_.counters();
  char buf[256];
  device_.Read(0, buf, 256);  // 4 line fills
  const NvmCounters after = device_.counters();
  EXPECT_GE(after.loads - before.loads, 4u);
}

TEST_F(NvmDeviceTest, MissesCostMoreThanHits) {
  char buf[64];
  device_.Read(8192, buf, 64);  // miss: full NVM read latency
  const uint64_t after_miss = device_.TotalStallNanos();
  EXPECT_GE(after_miss, device_.latency_config().read_latency_ns);
  device_.Read(8192, buf, 64);  // hit: only the cache-hit cost
  const uint64_t hit_cost = device_.TotalStallNanos() - after_miss;
  EXPECT_EQ(hit_cost, device_.latency_config().cache_hit_ns);
}

TEST_F(NvmDeviceTest, DramProfileChargesBaselineLatency) {
  NvmDevice device(1 << 20, NvmLatencyConfig::Dram());
  char buf[64];
  device.Read(0, buf, 64);
  EXPECT_EQ(device.TotalStallNanos(),
            NvmLatencyConfig::Dram().read_latency_ns);
}

TEST_F(NvmDeviceTest, HighLatencyChargesMoreThanLow) {
  NvmDevice low(1 << 20, NvmLatencyConfig::LowNvm());
  NvmDevice high(1 << 20, NvmLatencyConfig::HighNvm());
  char buf[4096];
  low.Read(0, buf, 4096);
  high.Read(0, buf, 4096);
  EXPECT_GT(high.TotalStallNanos(), low.TotalStallNanos() * 3);
}

TEST_F(NvmDeviceTest, SyncLatencySweepAffectsStall) {
  NvmDevice device(1 << 20, NvmLatencyConfig::Dram());
  uint64_t costs[2];
  int idx = 0;
  for (uint64_t lat : {10ull, 10000ull}) {
    ScopedSyncLatency sweep(&device, lat);
    const uint64_t before = device.TotalStallNanos();
    for (int i = 0; i < 100; i++) {
      uint64_t v = i;
      device.Write(i * 64, &v, 8);
      device.Persist(i * 64, 8);
    }
    costs[idx++] = device.TotalStallNanos() - before;
  }
  EXPECT_GT(costs[1], costs[0] * 50);
}

// The device completes single-line hits (Touch*/Read/Write) and
// single-line flushes (Persist) inline in its header. Drive the same trace
// through a device and through a bare CacheSim that only ever takes the
// out-of-line AccessEx/FlushRange paths, charging the device's cost
// formula by hand: loads, stores, hits, stall time and wear must agree.
TEST_F(NvmDeviceTest, InlineFastPathsMatchBareCache) {
  constexpr size_t kCapacity = 1 << 20;
  const NvmLatencyConfig lat = NvmLatencyConfig::LowNvm();
  CacheConfig cache_cfg;
  cache_cfg.capacity_bytes = 64 * 1024;
  NvmDevice device(kCapacity, lat, cache_cfg);

  std::vector<uint32_t> wear(kCapacity / 64 + 1, 0);
  CacheCallbacks callbacks;
  callbacks.ctx = &wear;
  callbacks.write_back = [](void* ctx, uint64_t line_addr, size_t size) {
    if (line_addr + size <= kCapacity) {
      (*static_cast<std::vector<uint32_t>*>(ctx))[line_addr / 64]++;
    }
  };
  CacheSim bare(cache_cfg, callbacks);
  const uint64_t store_ns =
      static_cast<uint64_t>(64.0 / lat.write_bandwidth_gbps);
  uint64_t bare_stall_ns = 0;
  auto bare_access = [&](uint64_t addr, size_t n, bool is_write) {
    const CacheAccessResult r = bare.AccessEx(addr, n, is_write);
    const uint64_t lines = (addr + n - 1) / 64 - addr / 64 + 1;
    bare_stall_ns += r.missed * lat.read_latency_ns +
                     (lines - r.missed) * lat.cache_hit_ns +
                     r.write_backs * store_ns;
  };

  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 30000; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const uint64_t off = x % (kCapacity - 512);
    const size_t n = 1 + (x >> 32) % 100;  // mostly single-line
    const uint64_t virt = (uint64_t{1} << 45) + off;
    switch (x % 5) {
      case 0:
        device.TouchRead(device.PtrAt(off), n);
        bare_access(off, n, false);
        break;
      case 1:
        device.TouchWrite(device.PtrAt(off), n);
        bare_access(off, n, true);
        break;
      case 2:
        device.TouchVirtual(reinterpret_cast<void*>(virt), n, (x & 2) != 0);
        bare_access(virt, n, (x & 2) != 0);
        break;
      case 3:
        device.Write(off, &x, 8);
        bare_access(off, 8, true);
        break;
      default:
        device.Persist(off, n);
        bare_stall_ns += bare.FlushRange(off, n, !lat.use_clwb) * store_ns +
                         lat.sync_latency_ns;
        break;
    }
  }

  const NvmCounters c = device.counters();
  EXPECT_EQ(c.loads, bare.misses());
  EXPECT_EQ(c.stores, bare.write_backs());
  EXPECT_EQ(c.hits, bare.hits());
  EXPECT_EQ(c.stall_ns, bare_stall_ns);
  EXPECT_GT(c.hits, 0u);  // the fast path actually fired
  WearStats expected;
  for (const uint32_t w : wear) {
    if (w == 0) continue;
    expected.total_line_writes += w;
    expected.lines_touched++;
    expected.max_line_writes = std::max<uint64_t>(expected.max_line_writes, w);
  }
  const WearStats got = device.wear();
  EXPECT_EQ(got.total_line_writes, expected.total_line_writes);
  EXPECT_EQ(got.max_line_writes, expected.max_line_writes);
  EXPECT_EQ(got.lines_touched, expected.lines_touched);
  EXPECT_GT(got.total_line_writes, 0u);
}

TEST_F(NvmDeviceTest, OffsetPointerRoundTrip) {
  void* p = device_.PtrAt(12345);
  EXPECT_EQ(device_.OffsetOf(p), 12345u);
  EXPECT_TRUE(device_.Contains(p));
}

TEST(NvmPtrTest, ResolvesAgainstCurrentDevice) {
  NvmDevice device(1 << 16);
  NvmEnv::Set(&device);
  uint64_t* raw = reinterpret_cast<uint64_t*>(device.PtrAt(256));
  *raw = 77;
  NvmPtr<uint64_t> ptr = NvmPtr<uint64_t>::FromRaw(raw);
  EXPECT_FALSE(ptr.IsNull());
  EXPECT_EQ(*ptr, 77u);
  EXPECT_EQ(ptr.offset(), 256u);
  NvmPtr<uint64_t> null;
  EXPECT_TRUE(null.IsNull());
  EXPECT_EQ(null.get(), nullptr);
  NvmEnv::Set(nullptr);
}

}  // namespace
}  // namespace nvmdb

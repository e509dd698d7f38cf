#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nvm/cache_sim.h"
#include "nvm/stall_tag.h"

namespace nvmdb {

class CrashSim;
class TraceWriter;

/// Latency/bandwidth profile of the emulated NVM device. The paper's
/// hardware emulator exposes exactly these knobs (Section 2.2): a tunable
/// read latency (as a multiple of the 160 ns DRAM latency) and a throttled
/// sustainable write bandwidth.
struct NvmLatencyConfig {
  /// Simulated cost of a cache-line miss served from the device.
  uint64_t read_latency_ns = 160;
  /// Baseline DRAM latency (the 1x point of the paper's sweep).
  uint64_t dram_latency_ns = 160;
  /// Simulated cost of a cache-line hit (amortized L1/L2/L3). Throughput
  /// is computed from simulated time, so hits must carry a cost or
  /// cache-resident work would be free.
  uint64_t cache_hit_ns = 3;
  /// Sustainable write bandwidth; each line written back to NVM is charged
  /// line_size / bandwidth.
  double write_bandwidth_gbps = 76.0;  // platform DRAM bandwidth
  /// Latency of one sync-primitive invocation (CLFLUSH+SFENCE by default;
  /// Appendix C sweeps this from 10 ns to 10000 ns for PCOMMIT/CLWB).
  uint64_t sync_latency_ns = 100;
  /// If true, model CLWB (line stays cached, clean) instead of CLFLUSH
  /// (line invalidated) in the sync primitive.
  bool use_clwb = false;

  /// Paper's three profiles (Section 5.2).
  static NvmLatencyConfig Dram();     // 1x (160 ns), full bandwidth
  static NvmLatencyConfig LowNvm();   // 2x (320 ns), 9.5 GB/s
  static NvmLatencyConfig HighNvm();  // 8x (1280 ns), 9.5 GB/s
};

/// Wear statistics over the device's cache lines. NVM cells endure a
/// bounded number of writes (Table 1: 10^8–10^10 for PCM/RRAM), so both
/// the total write volume and its *distribution* matter: a hot line wears
/// out first. The allocator's rotating placement and the engines' reduced
/// data duplication both show up here (the paper's headline "reducing
/// wear due to write operations by up to 2x").
struct WearStats {
  uint64_t total_line_writes = 0;  // sum over all lines
  uint64_t lines_touched = 0;      // lines written at least once
  uint64_t max_line_writes = 0;    // hottest line
  double mean_line_writes = 0;     // over touched lines
  /// Ratio max/mean over touched lines: 1.0 = perfectly even wear.
  double hotspot_factor = 0;
};

/// Counter snapshot mirroring the perf counters the paper reads. All
/// fields are exact: the device and its cache are thread-confined, so
/// every count is a plain increment by the one owning thread.
struct NvmCounters {
  uint64_t loads = 0;        // cache-line fills from NVM
  uint64_t stores = 0;       // dirty-line write-backs to NVM
  uint64_t hits = 0;         // cache-line hits
  uint64_t stall_ns = 0;     // accumulated simulated time
  uint64_t external_ns = 0;  // profile-independent charges (VFS, fsync)
  uint64_t sync_calls = 0;   // sync primitive invocations
  uint64_t bytes_read = 0;   // loads * line
  uint64_t bytes_written = 0;
  /// stall_ns split by the component tag current when each charge was
  /// made (ScopedStallTag); the slices sum to stall_ns.
  uint64_t tag_ns[kStallTagCount] = {};
};

/// Software stand-in for the Intel Labs NVM hardware emulator.
///
/// The device owns a byte region with *two* images:
///   - the working image: what the CPU sees; all reads/writes hit it
///     immediately (this is "NVM as seen through the cache hierarchy"),
///   - the durable image: what survives power failure; a cache line reaches
///     it only when the simulated CPU cache writes it back (eviction, sync
///     primitive, fsync).
///
/// `Crash()` discards the caches and replaces the working image with the
/// durable one, so recovery code observes exactly the bytes that were made
/// durable — torn multi-line writes and lost unflushed updates included.
///
/// Like its CacheSim, a device is thread-confined: one thread drives it
/// (debug builds abort on a second), so every counter is a plain integer
/// and single-line cache hits and flushes take the cache's inline fast
/// paths.
class NvmDevice {
 public:
  NvmDevice(size_t capacity, const NvmLatencyConfig& latency = {},
            const CacheConfig& cache = {});
  ~NvmDevice();

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  size_t capacity() const { return capacity_; }
  uint8_t* base() { return working_; }

  /// Translate between raw pointers into the working image and stable
  /// region offsets (the representation of non-volatile pointers).
  uint64_t OffsetOf(const void* p) const {
    return static_cast<uint64_t>(static_cast<const uint8_t*>(p) - working_);
  }
  void* PtrAt(uint64_t offset) { return working_ + offset; }
  const void* PtrAt(uint64_t offset) const { return working_ + offset; }
  bool Contains(const void* p) const {
    return p >= working_ && p < working_ + capacity_;
  }

  // --- Instrumented access path -------------------------------------------
  // All storage-engine traffic to NVM must use these so the cache model can
  // count loads/stores and charge stalls.

  /// Read n bytes at `offset` into `dst`.
  void Read(uint64_t offset, void* dst, size_t n);
  /// Write n bytes from `src` at `offset` (volatile until persisted).
  void Write(uint64_t offset, const void* src, size_t n);

  /// One destination of a segmented read / one source of a segmented
  /// write (below).
  struct ReadSeg {
    void* dst;
    uint32_t len;
  };
  struct WriteSeg {
    const void* src;
    uint32_t len;
  };
  /// Most segments any segmented entry point accepts (engine call sites
  /// coalesce 2–3 adjacent accesses; the stack scratch is sized to this).
  static constexpr size_t kMaxIoSegments = 8;

  /// Model `k` adjacent sub-ranges (segment s covers lens[s] bytes
  /// starting where s-1 ended, the first at `offset`) as ONE segmented
  /// cache access and charge the combined cost in a single accumulation.
  /// The modeled stream is exactly what k separate Touch/Read/Write calls
  /// over the same sub-ranges would produce — CacheSim::AccessSegments
  /// replays the per-line visit sequence verbatim, duplicate boundary
  /// visits included, and zero-length segments model nothing just like
  /// the `if (!empty)`-guarded calls they replace. Addresses follow
  /// TouchVirtual rules (region offsets or reserved virtual addresses).
  void TouchSegments(uint64_t addr, const uint32_t* lens, size_t k,
                     bool is_write);

  /// Segmented Read: model every segment in one access (one probe loop,
  /// one stall accumulation), then copy each segment into its
  /// destination. Counters and bytes identical to k adjacent Read calls.
  void ReadSegments(uint64_t offset, const ReadSeg* segs, size_t k);
  /// Segmented Write: the write-side mirror of ReadSegments.
  void WriteSegments(uint64_t offset, const WriteSeg* segs, size_t k);

  /// Model a read access to memory already mapped at `p` (no copy).
  void TouchRead(const void* p, size_t n) {
    if (!Contains(p) || n == 0) return;
    Touch(OffsetOf(p), n, /*is_write=*/false);
  }
  /// Model a write access to memory already mapped at `p` (no copy).
  void TouchWrite(const void* p, size_t n) {
    if (!Contains(p) || n == 0) return;
    Touch(OffsetOf(p), n, /*is_write=*/true);
  }

  /// Model an access to engine memory that is *not* inside the managed
  /// region (volatile B+tree nodes, page caches, MemTable indexes…). In
  /// the paper's NVM-only hierarchy this memory is NVM obtained through
  /// the allocator interface and used as if it were DRAM, so it must pass
  /// through the same CPU-cache model: misses are NVM loads, dirty
  /// evictions NVM stores. The pointer value doubles as the cache address;
  /// callers should pass stable addresses from ReserveVirtual (below) so
  /// the modeled cache behavior is reproducible across processes — raw
  /// heap pointers also work but make counters ASLR-dependent.
  ///
  /// ReserveVirtual addresses (and raw heap addresses) live far above the
  /// region's offset space, so they never alias a managed line; the
  /// write-back handler's bounds check skips the durable copy but the
  /// store cost is still charged.
  void TouchVirtual(const void* p, size_t n, bool is_write) {
    if (n == 0) return;
    Touch(reinterpret_cast<uint64_t>(p), n, is_write);
  }

  /// Reserve a range of the device's *modeled* virtual address space and
  /// return its base. The space is a simple bump allocator starting far
  /// above any region offset, so reserved ranges never alias managed
  /// lines. Components that route volatile-structure traffic through
  /// TouchVirtual reserve a range per object (B+tree node, WAL buffer,
  /// page-cache frame) and use base+offset as the cache address: given a
  /// deterministic execution schedule, reservation order — and therefore
  /// every modeled cache index — is identical across runs, which is what
  /// makes benchmark counters bit-reproducible regardless of ASLR.
  uint64_t ReserveVirtual(size_t bytes) {
    const uint64_t base = virtual_brk_;
    virtual_brk_ += (bytes + 63) & ~uint64_t{63};
    return base;
  }

  /// The sync primitive (Section 2.3): flush the covered cache lines and
  /// fence. After this returns, [offset, offset+n) is durable.
  void Persist(uint64_t offset, size_t n);
  void Persist(const void* p, size_t n) { Persist(OffsetOf(p), n); }

  /// 8-byte atomic durable write — the primitive engines rely on for master
  /// records and WAL list heads. The value is durable upon return and can
  /// never be torn across a crash.
  void AtomicPersistWrite64(uint64_t offset, uint64_t value);

  // --- Crash / restart -----------------------------------------------------

  /// Simulate power failure: every byte not yet written back is lost.
  void Crash();

  /// Crash onto an externally captured durable image (a CrashSim
  /// snapshot): cached state is discarded and both images are replaced by
  /// `image`, so recovery observes exactly the bytes that were durable at
  /// the captured event. `n` must equal capacity().
  void RestoreImages(const uint8_t* image, size_t n);

  /// Write back the entire cache (a clean shutdown).
  void FlushAll();

  // --- Crash-point fault injection -----------------------------------------

  /// Install (or remove, with nullptr) a crash-point simulator. Every
  /// durability event — Persist, AtomicPersistWrite64, fsync barrier —
  /// is reported to it. Not owned; the caller keeps it alive while
  /// installed.
  void set_crash_sim(CrashSim* sim) { crash_sim_ = sim; }
  CrashSim* crash_sim() const { return crash_sim_; }

  /// Read-only views for CrashSim captures.
  const uint8_t* durable_image() const { return durable_; }
  const uint8_t* working_image() const { return working_; }
  size_t cache_line_size() const { return cache_->line_size(); }

  // --- Accounting -----------------------------------------------------------

  NvmCounters counters() const;
  void ResetCounters();

  /// Per-line wear accounting (writes that actually reached the device,
  /// i.e. write-backs into the managed region).
  WearStats wear() const;

  /// Total simulated time, in nanoseconds: cache
  /// hits/misses, write-backs, sync primitives and VFS crossings. The
  /// testbed reports throughput from this simulated clock (divided by the
  /// worker count), which makes results deterministic and driven entirely
  /// by the modeled NVM costs rather than host-machine speed.
  uint64_t TotalStallNanos() const { return stall_ns_; }

  const NvmLatencyConfig& latency_config() const { return latency_; }
  void set_latency_config(const NvmLatencyConfig& cfg) { latency_ = cfg; }

  /// Charge additional simulated time that does not depend on the NVM
  /// latency profile (VFS/syscall crossings, fsync bookkeeping).
  void ChargeExternalStall(uint64_t ns) {
    external_ns_ += ns;
    ChargeStall(ns);
  }

  /// Bytes of the region handed out by the allocator/pmfs; maintained by
  /// those components for footprint reporting.
  uint64_t allocated_bytes = 0;

 private:
  /// Every charge also lands in the per-tag slice of the thread's current
  /// ScopedStallTag — one extra plain add — which is what turns the
  /// single stall clock into a per-component breakdown.
  void ChargeStall(uint64_t ns) {
    stall_ns_ += ns;
    tag_ns_[static_cast<size_t>(internal::t_stall_tag)] += ns;
  }

  /// Shared body of the Touch* entry points. A single-line access to an
  /// already-resident line — the overwhelmingly common case on the
  /// engines' instrumented paths — is completed entirely inline: one
  /// cache probe plus one plain stall add, no out-of-line call.
  void Touch(uint64_t addr, size_t n, bool is_write) {
    if (cache_->OwnerHitFast(addr, n, is_write)) {
      ChargeStall(latency_.cache_hit_ns);
      return;
    }
    ChargeAccess(addr, n, is_write);
  }

  /// Run the cache model over [addr, addr+n) and charge hit/miss/write-back
  /// costs with a single accumulation for the whole call.
  void ChargeAccess(uint64_t addr, size_t n, bool is_write);
  uint64_t StoreCostNs() const;

  /// Flush the lines covering [offset, offset+n) per the sync primitive's
  /// invalidation policy (CLWB vs CLFLUSH), returning the count written
  /// back. A range within one line — every per-tuple persist the engines
  /// issue — completes inline.
  size_t FlushLines(uint64_t offset, size_t n) {
    const bool invalidate = !latency_.use_clwb;
    const int fast = cache_->OwnerFlushFast(offset, n, invalidate);
    if (fast >= 0) return static_cast<size_t>(fast);
    return cache_->FlushRange(offset, n, invalidate);
  }

  /// Target of the cache's write-back callback (dispatched through a raw
  /// function pointer, not std::function): mirror the line into the
  /// durable image and count wear. Stall accounting happens at the access
  /// site, not here.
  static void OnWriteBack(void* ctx, uint64_t line_addr, size_t line_size);

  size_t capacity_;
  // Working/durable images and the per-line wear array are lazily-zeroed
  // anonymous mappings: a fresh device costs no page-touch proportional to
  // capacity, only to the bytes actually used (the seed's new[]+memset
  // burned ~1.5 GB of page faults per benchmark database).
  uint8_t* working_ = nullptr;
  uint8_t* durable_ = nullptr;
  uint32_t* line_writes_ = nullptr;  // wear per line
  NvmLatencyConfig latency_;
  std::unique_ptr<CacheSim> cache_;

  uint64_t stall_ns_ = 0;
  uint64_t external_ns_ = 0;
  uint64_t sync_calls_ = 0;
  uint64_t tag_ns_[kStallTagCount] = {};
  /// Modeled virtual address space for ReserveVirtual. 2^44 is far above
  /// any region offset (devices are at most a few GB), and reservations
  /// total well under 2^50, so ranges never collide with region lines.
  uint64_t virtual_brk_ = uint64_t{1} << 44;
  CrashSim* crash_sim_ = nullptr;
};

/// Thread-local "current device" used by non-volatile pointers so that
/// persistent data structures don't need to thread a device argument
/// through every node access. Thread-local rather than process-wide so
/// independent databases can run concurrently (the benchmark grid
/// scheduler runs one cell per job thread, each with a private device).
/// Database construction and the coordinator set it; tests and benches
/// set it per scenario when driving a device directly.
class NvmEnv {
 public:
  static NvmDevice* Get();
  static void Set(NvmDevice* device);

  /// Thread-local current trace writer (same ownership discipline as the
  /// current device: the Database owning the writer sets it, the
  /// coordinator re-binds it on whatever thread drives the database).
  /// Null — the common case — means tracing is disabled.
  static TraceWriter* Trace();
  static void SetTrace(TraceWriter* trace);
};

/// Offset-based non-volatile pointer (Section 2.3's naming mechanism plus
/// SOFORT-style raw persistent pointers). An offset is valid across OS and
/// DBMS restarts because the allocator always maps the region at the same
/// virtual base — here, offsets are resolved against the current device.
template <typename T>
class NvmPtr {
 public:
  NvmPtr() : offset_(kNull) {}
  explicit NvmPtr(uint64_t offset) : offset_(offset) {}

  static NvmPtr FromRaw(const T* p) {
    if (p == nullptr) return NvmPtr();
    return NvmPtr(NvmEnv::Get()->OffsetOf(p));
  }

  bool IsNull() const { return offset_ == kNull; }
  uint64_t offset() const { return offset_; }

  T* get() const {
    if (IsNull()) return nullptr;
    return reinterpret_cast<T*>(NvmEnv::Get()->PtrAt(offset_));
  }
  T* operator->() const { return get(); }
  T& operator*() const { return *get(); }
  explicit operator bool() const { return !IsNull(); }

  bool operator==(const NvmPtr& o) const { return offset_ == o.offset_; }
  bool operator!=(const NvmPtr& o) const { return offset_ != o.offset_; }

 private:
  static constexpr uint64_t kNull = ~0ull;
  uint64_t offset_;
};

}  // namespace nvmdb

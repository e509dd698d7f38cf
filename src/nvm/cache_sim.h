#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "nvm/cache_probe.h"

/// Debug-build owner checks: the cache records the first accessing thread
/// and aborts on any access from another thread, making silent
/// cross-thread use of the zero-synchronization cache impossible.
/// Compiled out under NDEBUG (the hot path must stay branch-free in
/// release builds); define NVMDB_FORCE_OWNER_CHECKS to keep them in an
/// optimized build (the sanitizer CI job does).
#if !defined(NDEBUG) || defined(NVMDB_FORCE_OWNER_CHECKS)
#define NVMDB_OWNER_CHECKS 1
#else
#define NVMDB_OWNER_CHECKS 0
#endif

/// Debug-build stream checks: AccessSegments re-derives the uncoalesced
/// per-line visit sequence of the segments it was handed and aborts if the
/// coalesced walk diverged from it — the executable statement of the
/// coalescing contract (a merged call must visit exactly the lines, in
/// exactly the order, with exactly the duplicate boundary visits, that the
/// separate calls it replaced would have). Same build gating as the owner
/// checks, and forced by the same CI sanitizer job.
#if !defined(NDEBUG) || defined(NVMDB_FORCE_OWNER_CHECKS)
#define NVMDB_STREAM_CHECKS 1
#else
#define NVMDB_STREAM_CHECKS 0
#endif

namespace nvmdb {

/// Configuration for the simulated CPU cache in front of NVM.
/// Defaults model the L3 of the paper's Intel Xeon E5-4620 testbed
/// (20 MB, 64 B lines).
///
/// Geometry is normalized at construction so the hot-path address→slot
/// mapping is pure shift+mask: `line_size` and the set count are rounded
/// up to powers of two. Configurations whose derived geometry is already
/// power-of-two — every benchmark and test config in this repo — are
/// unaffected; the 20 MB default rounds up to an effective 32 MB.
struct CacheConfig {
  size_t capacity_bytes = 20ull * 1024 * 1024;
  size_t line_size = 64;
  size_t associativity = 16;
  /// Pin the portable scalar set probe regardless of what the CPU
  /// supports (the compile-time define NVMDB_FORCE_SCALAR_PROBE does the
  /// same for a whole build; see ResolveProbeKind). The model is identical
  /// either way — this exists so tests and benchmarks can compare the
  /// implementations.
  bool force_scalar_probe = false;
};

/// Effective probe implementation for an instance requesting
/// `force_scalar`: a compile-time -DNVMDB_FORCE_SCALAR_PROBE or the config
/// flag pin the scalar loop; otherwise the best instruction set this CPU
/// supports (AVX2 when the binary carries the -mavx2 translation unit,
/// else SSE2 on x86-64, else scalar). Consulted at construction time only.
ProbeKind ResolveProbeKind(bool force_scalar);

/// Events the cache raises toward the owning device. Raw function
/// pointers + context rather than std::function: these fire on every
/// dirty eviction in the simulator's inner loop, and a std::function call
/// costs an indirect dispatch plus potential allocation that profiles as
/// a top-three entry in the access path.
struct CacheCallbacks {
  using LineEventFn = void (*)(void* ctx, uint64_t line_addr,
                               size_t line_size);
  /// A dirty line is being written back to NVM (eviction, flush, or
  /// writeback-all). `line_addr` is the region offset of the line start.
  LineEventFn write_back = nullptr;
  /// A line is being filled from NVM (miss).
  LineEventFn fill = nullptr;
  /// Opaque pointer passed through to both callbacks.
  void* ctx = nullptr;
};

/// What one Access() call did, so the caller can charge all simulated
/// costs (miss latency, hit latency, write-back bandwidth) with a single
/// accumulation instead of per-line bookkeeping.
struct CacheAccessResult {
  uint32_t missed = 0;       // lines not found resident
  uint32_t write_backs = 0;  // dirty victims evicted to NVM
  /// Total per-line visits the call performed (hits = lines - missed).
  /// Filled by AccessSegments only: AccessEx callers derive the count
  /// from the byte range arithmetically, but a segmented access can visit
  /// a boundary line once per touching segment, so the cache reports it.
  uint32_t lines = 0;
};

/// Set-associative write-back, write-allocate cache simulator.
///
/// This is the substitute for the microcode-level latency injection in the
/// Intel Labs hardware emulator: every instrumented access to the NVM
/// region passes through this model. Misses correspond to NVM *loads* and
/// dirty write-backs to NVM *stores* — the same counters the paper reads
/// via `perf` (Section 5.3). A crash (`DropDirty`) discards dirty lines,
/// which is how data that was never flushed gets lost.
///
/// Line metadata lives in one flat contiguous array of packed 8-byte
/// entries (line index + dirty bit) with a parallel LRU-stamp array,
/// indexed [set][way]; no per-set or per-way heap nodes exist, so a set
/// probe is a short linear scan over adjacent memory.
///
/// An instance is thread-confined: exactly one thread ever accesses it
/// (every benchmark cell and every Database is driven on one thread), so
/// the access path takes no locks and counts with plain increments.
/// Debug builds assert the confinement (NVMDB_OWNER_CHECKS).
class CacheSim {
 public:
  /// True when cross-thread accesses abort (debug builds).
  static constexpr bool kOwnerChecksEnabled = NVMDB_OWNER_CHECKS != 0;

  CacheSim(const CacheConfig& config, CacheCallbacks callbacks);

  /// Touch [addr, addr+size). Write hits mark lines dirty; write misses
  /// allocate. Returns per-call miss and write-back counts.
  CacheAccessResult AccessEx(uint64_t addr, size_t size, bool is_write);

  /// Compatibility shim: number of missed lines only.
  size_t Access(uint64_t addr, size_t size, bool is_write) {
    return AccessEx(addr, size, is_write).missed;
  }

  /// Model `num_segments` adjacent sub-ranges in ONE call: segment s
  /// covers lens[s] bytes starting where segment s-1 ended (the first at
  /// `addr`). The per-line visit sequence — and therefore every counter,
  /// LRU stamp, eviction, and callback — is exactly what num_segments
  /// separate AccessEx calls over the same sub-ranges would produce:
  /// segments visit their lines in address order, and a line shared by
  /// two adjacent segments is visited once per segment (the later visits
  /// are guaranteed hits, replayed without re-probing the set).
  /// Zero-length segments model nothing, matching the `if (!empty)
  /// Access(...)` call sites this API coalesces. `result.lines` carries
  /// the total visit count so the caller can charge hit latency as
  /// `lines - missed` in a single accumulation.
  CacheAccessResult AccessSegments(uint64_t addr, const uint32_t* lens,
                                   size_t num_segments, bool is_write);

  /// Fast path, safe to inline at call sites: if [addr, addr+size) lies
  /// within one cache line AND that line is resident, perform the hit
  /// (LRU stamp, dirty marking, hit counter) and return true. Returns
  /// false — having changed nothing — when the access spans lines or
  /// misses; the caller then takes the out-of-line AccessEx path
  /// (single-line hits are the overwhelmingly common case on the engines'
  /// instrumented paths, and this skips the call + dispatch + result
  /// plumbing for them).
  bool OwnerHitFast(uint64_t addr, size_t size, bool is_write) {
    const uint64_t idx = addr >> line_shift_;
    if (((addr + size - 1) >> line_shift_) != idx) return false;
#if NVMDB_OWNER_CHECKS
    CheckOwner();
#endif
    const size_t base = SetOf(idx) * associativity_;
    uint64_t* const ways = &entries_[base];
    const int w = FindWayInline(ways, idx << 1);
    if (w < 0) return false;
    stamps_[base + static_cast<size_t>(w)] = ++lru_clock_;
    if (is_write) ways[w] |= 1;
    hits_++;
    return true;
  }

  /// CLFLUSH/CLWB semantics over [addr, addr+size): dirty lines are written
  /// back; when `invalidate` is true (CLFLUSH) the lines are also evicted,
  /// otherwise (CLWB) they stay resident in clean state.
  /// Returns the number of lines actually written back.
  size_t FlushRange(uint64_t addr, size_t size, bool invalidate);

  /// Inline fast path for FlushRange: handles a range confined to one
  /// cache line (every per-tuple persist the engines issue) without the
  /// out-of-line call and probe dispatch. Returns the number of lines
  /// written back (0 or 1), or -1 when the range spans lines — the caller
  /// then takes FlushRange.
  int OwnerFlushFast(uint64_t addr, size_t size, bool invalidate) {
    const uint64_t idx = addr >> line_shift_;
    if (((addr + size - 1) >> line_shift_) != idx) return -1;
#if NVMDB_OWNER_CHECKS
    CheckOwner();
#endif
    uint64_t* const ways = &entries_[SetOf(idx) * associativity_];
    const uint64_t match = idx << 1;
    int flushed = 0;
    const int w = FindWayInline(ways, match);
    if (w >= 0) {
      if (ways[w] & 1) {
        flushed = 1;
        write_backs_++;
        if (callbacks_.write_back) {
          callbacks_.write_back(callbacks_.ctx, idx << line_shift_,
                                line_size_);
        }
        ways[w] = match;  // clean
      }
      if (invalidate) ways[w] = kInvalidEntry;
    }
    return flushed;
  }

  /// Write back every dirty line (used by e.g. full-device sync in tests).
  size_t WriteBackAll();

  /// Power failure: all cached state vanishes; dirty lines are NOT written
  /// back — their contents are lost.
  void DropDirty();

  // Exact statistics: hits() + misses() == total lines accessed.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t write_backs() const { return write_backs_; }

  size_t line_size() const { return line_size_; }

  /// Probe implementation the instance runs (after every override); the
  /// golden test and bench_cachesim report it.
  ProbeKind probe_kind() const { return probe_kind_; }

 private:
  // Packed line entry: (line_index << 1) | dirty. line_index is the line
  // address divided by line_size; even 48-bit heap addresses leave the top
  // tag bits free. kInvalidEntry (all ones) can never collide with a real
  // entry because a real line index never has all 63 tag bits set.
  static constexpr uint64_t kInvalidEntry = ~0ull;

  // Set of a line: mix the line index so adjacent lines spread across
  // sets (a plain modulo would pathologically collide for strided engine
  // layouts), then keep the low log2(sets) bits. Two lines share a set
  // exactly when they did under the seed model's banked (h % banks,
  // (h / banks) % sets) mapping with power-of-two counts.
  size_t SetOf(uint64_t line_index) const {
    uint64_t h = line_index * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return h & set_mask_;
  }

  // Inner loops behind the public dispatchers, instantiated per probe
  // kind, which selects the SIMD width of the set scans with zero
  // per-line dispatch. Bodies live in cache_sim_inl.h — included by
  // cache_sim.cc (scalar + SSE2 instantiations) and cache_sim_avx2.cc
  // (AVX2 instantiations, the only translation unit built with -mavx2).
  template <ProbeKind K>
  CacheAccessResult AccessExImpl(uint64_t addr, size_t size, bool is_write);
  template <ProbeKind K>
  CacheAccessResult AccessSegmentsImpl(uint64_t addr, const uint32_t* lens,
                                       size_t num_segments, bool is_write);
  template <ProbeKind K>
  size_t FlushRangeImpl(uint64_t addr, size_t size, bool invalidate);

  // Touch one line of set `set`. Returns 1 if the line missed and adds
  // any dirty-victim write-back to `result`; `*way_out` receives the way
  // the line now occupies (the segmented walk caches it for boundary-line
  // re-visits). Force-inlined into the per-line loops: at ~8.5 lines per
  // engine access the call overhead alone profiled as the single hottest
  // entry in the whole bench suite, and GCC's size heuristics refuse the
  // inline on their own. Defined in cache_sim_inl.h.
  template <ProbeKind K>
#if defined(__GNUC__)
  __attribute__((always_inline))
#endif
  inline uint32_t AccessLineT(size_t set, uint64_t line_index,
                              bool is_write, CacheAccessResult* result,
                              size_t* way_out);

  /// Probe used by the header-inlined Owner*Fast paths: baseline SSE2 on
  /// x86-64 (no target attribute needed, so it inlines into callers in
  /// any translation unit) with a one-branch fallback honoring the
  /// forced-scalar override. The out-of-line loops upgrade to AVX2 when
  /// available; both find the identical way.
  int FindWayInline(const uint64_t* ways, uint64_t match) const {
#if NVMDB_PROBE_X86
    if (!scalar_probe_) {
      return probe::FindWaySse2(ways, associativity_, match);
    }
#endif
    return probe::FindWayScalar(ways, associativity_, match);
  }

#if NVMDB_STREAM_CHECKS
  /// The coalesced walk of AccessSegments diverged from the uncoalesced
  /// per-line sequence it must replay: abort loudly (debug builds only).
  [[noreturn]] static void StreamCheckViolation();
#endif

#if NVMDB_OWNER_CHECKS
  /// Record the first accessing thread and abort on any access from a
  /// different thread. Mutating entry points call this; read-only counter
  /// getters don't, so post-join aggregation from a parent thread
  /// (sequentially safe) stays legal.
  void CheckOwner() {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (owner_thread_.load(std::memory_order_relaxed) == self) return;
    if (owner_thread_.compare_exchange_strong(expected, self,
                                              std::memory_order_relaxed)) {
      return;  // first toucher becomes the owner
    }
    OwnerViolation();
  }
  [[noreturn]] static void OwnerViolation();
#endif

  size_t line_size_;        // power of two
  unsigned line_shift_;     // log2(line_size_)
  size_t associativity_;
  uint64_t set_mask_;       // number of sets (a power of two) - 1
  /// Probe implementation selected at construction (ResolveProbeKind).
  ProbeKind probe_kind_;
  /// probe_kind_ == kScalar, pre-tested so the header-inlined fast paths
  /// pay one predictable branch instead of a switch.
  bool scalar_probe_;

  CacheCallbacks callbacks_;
  // Flat [set][way] metadata; entries_ and stamps_ are parallel.
  std::vector<uint64_t> entries_;
  std::vector<uint64_t> stamps_;
  uint64_t lru_clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t write_backs_ = 0;

#if NVMDB_OWNER_CHECKS
  /// First thread that touched the instance; default-constructed id
  /// until then. Atomic so the check itself is race-free even while it
  /// detects a race.
  std::atomic<std::thread::id> owner_thread_{};
#endif
};

}  // namespace nvmdb

#include "nvm/cache_sim.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "nvm/cache_sim_inl.h"

namespace nvmdb {

namespace {

size_t CeilPow2(size_t x) {
  size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

unsigned Log2(size_t pow2) {
  unsigned s = 0;
  while ((size_t{1} << s) < pow2) s++;
  return s;
}

}  // namespace

ProbeKind ResolveProbeKind(bool force_scalar) {
#if defined(NVMDB_FORCE_SCALAR_PROBE)
  // Compile-time pin: the CI fallback build proves the scalar loop can
  // never drift from the SIMD kinds.
  (void)force_scalar;
  return ProbeKind::kScalar;
#else
  if (force_scalar) return ProbeKind::kScalar;
#if NVMDB_PROBE_X86
#if defined(NVMDB_HAVE_AVX2_PROBE) && defined(__GNUC__)
  // Same runtime-dispatch pattern as the CRC32C implementation: detect
  // once per construction (constructions are off the hot path), never
  // per access. __builtin_cpu_supports includes the OS XSAVE check.
  if (__builtin_cpu_supports("avx2")) return ProbeKind::kAvx2;
#endif
  return ProbeKind::kSse2;
#else
  return ProbeKind::kScalar;
#endif
#endif
}

CacheSim::CacheSim(const CacheConfig& config, CacheCallbacks callbacks)
    : probe_kind_(ResolveProbeKind(config.force_scalar_probe)),
      scalar_probe_(probe_kind_ == ProbeKind::kScalar),
      callbacks_(callbacks) {
  line_size_ = CeilPow2(std::max<size_t>(1, config.line_size));
  line_shift_ = Log2(line_size_);
  associativity_ = std::max<size_t>(1, config.associativity);
  const size_t num_lines =
      std::max(associativity_, config.capacity_bytes / line_size_);
  const size_t num_sets =
      CeilPow2(std::max<size_t>(1, num_lines / associativity_));
  set_mask_ = num_sets - 1;

  entries_.assign(num_sets * associativity_, kInvalidEntry);
  stamps_.assign(num_sets * associativity_, 0);
}

#if NVMDB_OWNER_CHECKS
void CacheSim::OwnerViolation() {
  std::fprintf(stderr,
               "CacheSim owner-thread violation: instance accessed from a "
               "second thread; a CacheSim (and the NvmDevice or Database "
               "around it) must be driven by one thread only\n");
  std::abort();
}
#endif

#if NVMDB_STREAM_CHECKS
void CacheSim::StreamCheckViolation() {
  std::fprintf(stderr,
               "CacheSim stream-check violation: AccessSegments visited a "
               "different per-line sequence than the uncoalesced calls it "
               "replaces would have\n");
  std::abort();
}
#endif

// The scalar and SSE2 kinds live in this translation unit; the AVX2 kind
// is instantiated only in cache_sim_avx2.cc (built with -mavx2) and
// surfaced here through an explicit instantiation declaration.
NVMDB_CACHE_SIM_INSTANTIATE(ProbeKind::kScalar);
#if NVMDB_PROBE_X86
NVMDB_CACHE_SIM_INSTANTIATE(ProbeKind::kSse2);
#endif
#if defined(NVMDB_HAVE_AVX2_PROBE)
NVMDB_CACHE_SIM_DECLARE(ProbeKind::kAvx2);
#endif

// Per-call dispatch: one switch on the construction-resolved probe kind
// (perfectly predicted — it never changes for an instance) selects the
// inner-loop instantiation; kinds the build lacks fall through to scalar,
// which ResolveProbeKind then never selects anyway.
#if defined(NVMDB_HAVE_AVX2_PROBE)
#define NVMDB_AVX2_CASE(IMPL, ...) \
  case ProbeKind::kAvx2:           \
    return IMPL<ProbeKind::kAvx2>(__VA_ARGS__);
#else
#define NVMDB_AVX2_CASE(IMPL, ...)
#endif
#if NVMDB_PROBE_X86
#define NVMDB_SSE2_CASE(IMPL, ...) \
  case ProbeKind::kSse2:           \
    return IMPL<ProbeKind::kSse2>(__VA_ARGS__);
#else
#define NVMDB_SSE2_CASE(IMPL, ...)
#endif
#define NVMDB_PROBE_DISPATCH(IMPL, ...)              \
  switch (probe_kind_) {                             \
    NVMDB_AVX2_CASE(IMPL, __VA_ARGS__)               \
    NVMDB_SSE2_CASE(IMPL, __VA_ARGS__)               \
    default:                                         \
      return IMPL<ProbeKind::kScalar>(__VA_ARGS__);  \
  }

CacheAccessResult CacheSim::AccessEx(uint64_t addr, size_t size,
                                     bool is_write) {
  if (size == 0) return CacheAccessResult{};
#if NVMDB_OWNER_CHECKS
  CheckOwner();
#endif
  NVMDB_PROBE_DISPATCH(AccessExImpl, addr, size, is_write)
}

CacheAccessResult CacheSim::AccessSegments(uint64_t addr,
                                           const uint32_t* lens,
                                           size_t num_segments,
                                           bool is_write) {
  if (num_segments == 0) return CacheAccessResult{};
#if NVMDB_OWNER_CHECKS
  CheckOwner();
#endif
  NVMDB_PROBE_DISPATCH(AccessSegmentsImpl, addr, lens, num_segments,
                       is_write)
}

size_t CacheSim::FlushRange(uint64_t addr, size_t size, bool invalidate) {
  if (size == 0) return 0;
#if NVMDB_OWNER_CHECKS
  CheckOwner();
#endif
  NVMDB_PROBE_DISPATCH(FlushRangeImpl, addr, size, invalidate)
}

size_t CacheSim::WriteBackAll() {
#if NVMDB_OWNER_CHECKS
  CheckOwner();
#endif
  size_t flushed = 0;
  for (uint64_t& e : entries_) {
    if (e != kInvalidEntry && (e & 1)) {
      flushed++;
      write_backs_++;
      if (callbacks_.write_back) {
        callbacks_.write_back(callbacks_.ctx, (e >> 1) << line_shift_,
                              line_size_);
      }
      e &= ~uint64_t{1};
    }
  }
  return flushed;
}

void CacheSim::DropDirty() {
#if NVMDB_OWNER_CHECKS
  CheckOwner();
#endif
  std::fill(entries_.begin(), entries_.end(), kInvalidEntry);
  std::fill(stamps_.begin(), stamps_.end(), uint64_t{0});
  lru_clock_ = 0;
}

}  // namespace nvmdb

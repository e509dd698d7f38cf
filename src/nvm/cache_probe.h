#pragma once

#include <cstddef>
#include <cstdint>

/// SIMD set-probe primitives for the cache simulator.
///
/// A set probe is a linear scan over at most `associativity` packed 8-byte
/// way entries — 16 by default — executed for every line of every
/// instrumented access, which makes it the single hottest loop in the whole
/// benchmark suite. The helpers here replace that scan with a broadcast
/// compare + movemask + tzcnt: SSE2 (baseline on x86-64, so it inlines into
/// any translation unit without a target attribute) and AVX2 (compiled only
/// in cache_sim_avx2.cc, which is built with -mavx2 and selected at runtime
/// via cpuid — the same dispatch pattern as the CRC32C implementation in
/// src/common/crc32.cc).
///
/// Every variant returns bit-identical results to the scalar loops it
/// replaces; the golden-model test drives a forced-scalar instance in
/// lockstep with the SIMD one to prove it.

#if defined(__x86_64__) || (defined(__i386__) && defined(__SSE2__))
#define NVMDB_PROBE_X86 1
#include <emmintrin.h>
#if defined(__AVX2__)
#include <immintrin.h>
#endif
#else
#define NVMDB_PROBE_X86 0
#endif

namespace nvmdb {

/// Which probe implementation a CacheSim instance runs. Resolved once at
/// construction (see ResolveProbeKind in cache_sim.cc): compile-time
/// -DNVMDB_FORCE_SCALAR_PROBE or CacheConfig::force_scalar_probe pin
/// kScalar; otherwise the best instruction set the CPU supports wins.
enum class ProbeKind : uint8_t {
  kScalar = 0,  // portable reference loop (also the forced fallback)
  kSse2 = 1,    // x86-64 baseline: no target attribute, header-inlinable
  kAvx2 = 2,    // runtime-dispatched, lives in cache_sim_avx2.cc only
};

namespace probe {

/// The way entry that marks an empty slot (mirrors CacheSim::kInvalidEntry;
/// all ones can never collide with a real packed (index << 1) | dirty
/// entry because real line indexes never have all 63 tag bits set).
inline constexpr uint64_t kEmptyWay = ~0ull;

/// First way whose entry matches `match` with the dirty bit masked off,
/// or -1 when the set does not hold the line.
inline int FindWayScalar(const uint64_t* ways, size_t n, uint64_t match) {
  for (size_t w = 0; w < n; w++) {
    if ((ways[w] & ~uint64_t{1}) == match) return static_cast<int>(w);
  }
  return -1;
}

/// Victim choice on a miss, exactly the scalar one-pass scan the simulator
/// has always used: the LAST empty way when any exists, otherwise the
/// FIRST way holding the minimal LRU stamp.
inline size_t FindVictimScalar(const uint64_t* ways, const uint64_t* stamps,
                               size_t n) {
  size_t victim = 0;
  for (size_t w = 0; w < n; w++) {
    if (ways[w] == kEmptyWay) {
      victim = w;
    } else if (ways[victim] != kEmptyWay && stamps[w] < stamps[victim]) {
      victim = w;
    }
  }
  return victim;
}

#if NVMDB_PROBE_X86

/// One match bit per way for the first min(n, 64) ways (64 ways is far
/// beyond any real associativity; the scalar tail below covers the rest).
/// SSE2 has no 64-bit compare, so equality is computed per 32-bit lane and
/// the two lane results are ANDed: a 64-bit lane is all-ones exactly when
/// both halves matched, which is what movemask_pd then extracts.
template <bool kMaskDirty>
inline uint64_t EqMaskSse2(const uint64_t* ways, size_t n, uint64_t value) {
  const __m128i target = _mm_set1_epi64x(static_cast<long long>(value));
  const __m128i drop_dirty = _mm_set1_epi64x(~static_cast<long long>(1));
  uint64_t mask = 0;
  for (size_t w = 0; w + 2 <= n && w < 64; w += 2) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ways + w));
    if constexpr (kMaskDirty) v = _mm_and_si128(v, drop_dirty);
    const __m128i eq32 = _mm_cmpeq_epi32(v, target);
    const __m128i eq64 = _mm_and_si128(
        eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    mask |= static_cast<uint64_t>(
                _mm_movemask_pd(_mm_castsi128_pd(eq64)))
            << w;
  }
  return mask;
}

inline int FindWaySse2(const uint64_t* ways, size_t n, uint64_t match) {
  const uint64_t mask = EqMaskSse2<true>(ways, n, match);
  if (mask != 0) return __builtin_ctzll(mask);
  // Odd associativity or more than 64 ways: finish with the scalar loop.
  // Matches in the vectorized prefix are at lower indexes, so "first way"
  // is preserved.
  for (size_t w = n < 64 ? (n & ~size_t{1}) : 64; w < n; w++) {
    if ((ways[w] & ~uint64_t{1}) == match) return static_cast<int>(w);
  }
  return -1;
}

inline size_t FindVictimSse2(const uint64_t* ways, const uint64_t* stamps,
                             size_t n) {
  if ((n & 1) != 0 || n > 64) return FindVictimScalar(ways, stamps, n);
  const uint64_t empty = EqMaskSse2<false>(ways, n, kEmptyWay);
  if (empty != 0) {
    return 63 - static_cast<size_t>(__builtin_clzll(empty));
  }
  // All ways valid: scalar min over the stamps (the miss path also pays a
  // fill + possible write-back callback, so this scan is not the bound;
  // the AVX2 kind vectorizes it too).
  size_t victim = 0;
  for (size_t w = 1; w < n; w++) {
    if (stamps[w] < stamps[victim]) victim = w;
  }
  return victim;
}

#endif  // NVMDB_PROBE_X86

#if defined(__AVX2__)

template <bool kMaskDirty>
inline uint64_t EqMaskAvx2(const uint64_t* ways, size_t n, uint64_t value) {
  const __m256i target = _mm256_set1_epi64x(static_cast<long long>(value));
  const __m256i drop_dirty =
      _mm256_set1_epi64x(~static_cast<long long>(1));
  uint64_t mask = 0;
  for (size_t w = 0; w + 4 <= n && w < 64; w += 4) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ways + w));
    if constexpr (kMaskDirty) v = _mm256_and_si256(v, drop_dirty);
    mask |= static_cast<uint64_t>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, target))))
            << w;
  }
  return mask;
}

inline int FindWayAvx2(const uint64_t* ways, size_t n, uint64_t match) {
  const uint64_t mask = EqMaskAvx2<true>(ways, n, match);
  if (mask != 0) return __builtin_ctzll(mask);
  for (size_t w = n < 64 ? (n & ~size_t{3}) : 64; w < n; w++) {
    if ((ways[w] & ~uint64_t{1}) == match) return static_cast<int>(w);
  }
  return -1;
}

inline size_t FindVictimAvx2(const uint64_t* ways, const uint64_t* stamps,
                             size_t n) {
  if ((n & 3) != 0 || n > 64) return FindVictimScalar(ways, stamps, n);
  const uint64_t empty = EqMaskAvx2<false>(ways, n, kEmptyWay);
  if (empty != 0) {
    return 63 - static_cast<size_t>(__builtin_clzll(empty));
  }
  // All ways valid: unsigned 64-bit min-reduction over the stamps (AVX2
  // only has signed compares, so both operands are sign-flipped first),
  // then the first way equal to the minimum — which is exactly the way
  // the scalar "first strictly-smaller" scan would have settled on.
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  __m256i vmin =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(stamps));
  for (size_t w = 4; w < n; w += 4) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(stamps + w));
    const __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(vmin, sign),
                                          _mm256_xor_si256(s, sign));
    vmin = _mm256_blendv_epi8(vmin, s, gt);
  }
  alignas(32) uint64_t lane[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), vmin);
  uint64_t min_stamp = lane[0];
  for (int i = 1; i < 4; i++) {
    if (lane[i] < min_stamp) min_stamp = lane[i];
  }
  const __m256i target =
      _mm256_set1_epi64x(static_cast<long long>(min_stamp));
  uint64_t eq = 0;
  for (size_t w = 0; w < n; w += 4) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(stamps + w));
    eq |= static_cast<uint64_t>(_mm256_movemask_pd(
              _mm256_castsi256_pd(_mm256_cmpeq_epi64(s, target))))
          << w;
  }
  return static_cast<size_t>(__builtin_ctzll(eq));
}

#endif  // __AVX2__

/// One probe implementation per ProbeKind, so the simulator's inner loops
/// — access and flush share these same two entry points — can be
/// instantiated per kind with zero per-line dispatch.
template <ProbeKind K>
struct SetProbe;

template <>
struct SetProbe<ProbeKind::kScalar> {
  static int FindWay(const uint64_t* ways, size_t n, uint64_t match) {
    return FindWayScalar(ways, n, match);
  }
  static size_t FindVictim(const uint64_t* ways, const uint64_t* stamps,
                           size_t n) {
    return FindVictimScalar(ways, stamps, n);
  }
};

#if NVMDB_PROBE_X86
template <>
struct SetProbe<ProbeKind::kSse2> {
  static int FindWay(const uint64_t* ways, size_t n, uint64_t match) {
    return FindWaySse2(ways, n, match);
  }
  static size_t FindVictim(const uint64_t* ways, const uint64_t* stamps,
                           size_t n) {
    return FindVictimSse2(ways, stamps, n);
  }
};
#endif

#if defined(__AVX2__)
template <>
struct SetProbe<ProbeKind::kAvx2> {
  static int FindWay(const uint64_t* ways, size_t n, uint64_t match) {
    return FindWayAvx2(ways, n, match);
  }
  static size_t FindVictim(const uint64_t* ways, const uint64_t* stamps,
                           size_t n) {
    return FindVictimAvx2(ways, stamps, n);
  }
};
#endif

}  // namespace probe
}  // namespace nvmdb

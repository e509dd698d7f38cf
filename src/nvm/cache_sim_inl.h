#pragma once

/// Bodies of CacheSim's per-probe-kind inner loops. Included by exactly
/// two translation units: cache_sim.cc, which instantiates the scalar and
/// SSE2 kinds, and cache_sim_avx2.cc, which is the only file built with
/// -mavx2 and instantiates the AVX2 kind — so AVX2 instructions can never
/// leak into code that runs on a pre-AVX2 machine, while all kinds share
/// one definition of the model.

#include "nvm/cache_sim.h"

namespace nvmdb {

template <ProbeKind K>
inline size_t CacheSim::FillT(uint64_t line_index, size_t base,
                              CacheAccessResult* result) {
  uint64_t* const ways = &entries_[base];
  // The victim: the last empty way if any exists, else the first
  // LRU-minimal way (identical choice to the seed's one-pass scan).
  const size_t victim =
      probe::SetProbe<K>::FindVictim(ways, &stamps_[base], associativity_);
  misses_++;
  result->missed++;
  const uint64_t evicted = ways[victim];
  if (evicted != kInvalidEntry && (evicted & 1)) {
    write_backs_++;
    result->write_backs++;
    if (callbacks_.write_back) {
      callbacks_.write_back(callbacks_.ctx, (evicted >> 1) << line_shift_,
                            line_size_);
    }
  }
  if (callbacks_.fill) {
    callbacks_.fill(callbacks_.ctx, line_index << line_shift_, line_size_);
  }
  ways[victim] = line_index << 1;
  return base + victim;
}

template <ProbeKind K>
inline void CacheSim::TouchLineT(uint64_t line_index, bool is_write,
                                 uint64_t* clock,
                                 CacheAccessResult* result) {
  // ResidentSlot, with the set kept for the fill on a miss.
  const uint64_t match = line_index << 1;
  uint32_t& memo = memo_[line_index & memo_mask_];
  size_t slot = memo;
  if ((entries_[slot] & ~uint64_t{1}) != match) [[unlikely]] {
    const size_t base = SetOf(line_index) * associativity_;
    // The SIMD kinds resolve all 16 default ways in a handful of
    // compare+movemask steps over the packed entries alone.
    const int w =
        probe::SetProbe<K>::FindWay(&entries_[base], associativity_, match);
    slot = w >= 0 ? base + static_cast<size_t>(w)
                  : FillT<K>(line_index, base, result);
    memo = static_cast<uint32_t>(slot);
  }
  stamps_[slot] = ++*clock;
  if (is_write) entries_[slot] |= 1;
}

// The line loops below count on a register copy of lru_clock_ and add the
// hits once per call: the compiler cannot prove that the stores into
// stamps_ and entries_ leave the counter members alone, so it would load
// and store them again on every line.

template <ProbeKind K>
CacheAccessResult CacheSim::AccessExImpl(uint64_t addr, size_t size,
                                         bool is_write) {
  CacheAccessResult result;
  const uint64_t first = addr >> line_shift_;
  const uint64_t last = (addr + size - 1) >> line_shift_;
  uint64_t clock = lru_clock_;
  for (uint64_t idx = first; idx <= last; idx++) {
    TouchLineT<K>(idx, is_write, &clock, &result);
  }
  lru_clock_ = clock;
  hits_ += (last - first + 1) - result.missed;
  return result;
}

template <ProbeKind K>
CacheAccessResult CacheSim::AccessSegmentsImpl(uint64_t addr,
                                               const uint32_t* lens,
                                               size_t num_segments,
                                               bool is_write) {
#if NVMDB_STREAM_CHECKS
  const uint64_t check_addr = addr;
  std::vector<uint64_t> visited;
#endif
  CacheAccessResult result;
  uint64_t clock = lru_clock_;
  for (size_t s = 0; s < num_segments; s++) {
    const uint32_t len = lens[s];
    if (len == 0) continue;  // the call it replaces was skipped entirely
    const uint64_t first = addr >> line_shift_;
    const uint64_t last = (addr + len - 1) >> line_shift_;
    addr += len;
    for (uint64_t idx = first; idx <= last; idx++) {
      result.lines++;
#if NVMDB_STREAM_CHECKS
      visited.push_back(idx);
#endif
      // A line shared with the previous segment is visited again, as the
      // uncoalesced calls would; the memo resolves that re-visit.
      TouchLineT<K>(idx, is_write, &clock, &result);
    }
  }
  lru_clock_ = clock;
  hits_ += result.lines - result.missed;

#if NVMDB_STREAM_CHECKS
  // Re-derive the uncoalesced stream — every non-empty segment visits its
  // line range in order, re-visiting a line shared with the previous
  // segment — and abort on any divergence (e.g. a future "dedupe the
  // boundary visit" edit, which would change hit counts and LRU order).
  size_t vi = 0;
  uint64_t a = check_addr;
  for (size_t s = 0; s < num_segments; s++) {
    if (lens[s] == 0) continue;
    const uint64_t first = a >> line_shift_;
    const uint64_t last = (a + lens[s] - 1) >> line_shift_;
    a += lens[s];
    for (uint64_t idx = first; idx <= last; idx++) {
      if (vi >= visited.size() || visited[vi] != idx) {
        StreamCheckViolation();
      }
      vi++;
    }
  }
  if (vi != visited.size()) StreamCheckViolation();
#endif
  return result;
}

template <ProbeKind K>
size_t CacheSim::FlushRangeImpl(uint64_t addr, size_t size,
                                bool invalidate) {
  const uint64_t first = addr >> line_shift_;
  const uint64_t last = (addr + size - 1) >> line_shift_;
  size_t flushed = 0;

  const auto find_way = [this](const uint64_t* ways, uint64_t match) {
    return probe::SetProbe<K>::FindWay(ways, associativity_, match);
  };
  for (uint64_t idx = first; idx <= last; idx++) {
    const size_t slot = ResidentSlot(idx, find_way);
    if (slot != kNoSlot) flushed += FlushSlot(slot, idx, invalidate);
  }
  return flushed;
}

/// Instantiates the inner loops for one probe kind; each translation unit
/// invokes it for the kinds it owns.
#define NVMDB_CACHE_SIM_INSTANTIATE(K)                                    \
  template CacheAccessResult CacheSim::AccessExImpl<K>(uint64_t, size_t,  \
                                                       bool);             \
  template CacheAccessResult CacheSim::AccessSegmentsImpl<K>(             \
      uint64_t, const uint32_t*, size_t, bool);                           \
  template size_t CacheSim::FlushRangeImpl<K>(uint64_t, size_t, bool)

/// Declares a probe kind as instantiated elsewhere, so the dispatcher can
/// reference a kind whose instructions this translation unit must not
/// emit (AVX2 from the baseline-ISA cache_sim.cc).
#define NVMDB_CACHE_SIM_DECLARE(K)                                        \
  extern template CacheAccessResult CacheSim::AccessExImpl<K>(            \
      uint64_t, size_t, bool);                                            \
  extern template CacheAccessResult CacheSim::AccessSegmentsImpl<K>(      \
      uint64_t, const uint32_t*, size_t, bool);                           \
  extern template size_t CacheSim::FlushRangeImpl<K>(uint64_t, size_t,    \
                                                     bool)

}  // namespace nvmdb

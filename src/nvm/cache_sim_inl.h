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
inline uint32_t CacheSim::AccessLineT(size_t set, uint64_t line_index,
                                      bool is_write,
                                      CacheAccessResult* result,
                                      size_t* way_out) {
  uint64_t* const ways = &entries_[set * associativity_];
  uint64_t* const stamps = &stamps_[set * associativity_];
  const uint64_t match = line_index << 1;

  // Hit probe first, over the packed entries alone: the common case
  // touches half the metadata (no stamps, no victim bookkeeping), and the
  // SIMD kinds resolve all 16 default ways in a handful of
  // compare+movemask steps.
  const int w = probe::SetProbe<K>::FindWay(ways, associativity_, match);
  if (w >= 0) {
    stamps[w] = ++lru_clock_;
    if (is_write) ways[w] |= 1;
    hits_++;
    *way_out = static_cast<size_t>(w);
    return 0;
  }

  // Miss: pick the victim — the last empty way if any exists, else the
  // first LRU-minimal way (identical choice to the seed's one-pass scan)
  // — write it back if dirty, then fill.
  const size_t victim =
      probe::SetProbe<K>::FindVictim(ways, stamps, associativity_);
  misses_++;
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
  ways[victim] = match | (is_write ? 1 : 0);
  stamps[victim] = ++lru_clock_;
  *way_out = victim;
  return 1;
}

template <ProbeKind K>
CacheAccessResult CacheSim::AccessExImpl(uint64_t addr, size_t size,
                                         bool is_write) {
  CacheAccessResult result;
  const uint64_t first = addr >> line_shift_;
  const uint64_t last = (addr + size - 1) >> line_shift_;

  for (uint64_t idx = first; idx <= last; idx++) {
    const size_t set = SetOf(idx);
#if defined(__GNUC__)
    if (idx < last) {
      // Overlap the next line's metadata fetch with this probe: adjacent
      // lines hash to unrelated sets by design (SetOf), so the next set's
      // entries and stamps are never the memory being scanned right now.
      const size_t nslot = SetOf(idx + 1) * associativity_;
      __builtin_prefetch(&entries_[nslot]);
      __builtin_prefetch(&stamps_[nslot]);
    }
#endif
    size_t way;
    result.missed += AccessLineT<K>(set, idx, is_write, &result, &way);
  }
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
  // The line visited last, so a segment boundary falling inside it can be
  // replayed as the guaranteed hit it is without re-probing the set.
  uint64_t prev_idx = ~0ull;
  size_t prev_slot = 0;

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
      if (idx == prev_idx) {
        // The previous segment ended inside this line: the uncoalesced
        // stream re-probes and re-hits it, so replay exactly that hit's
        // bookkeeping (fresh LRU stamp, dirty marking, hit count) against
        // the slot the line is known to occupy.
        stamps_[prev_slot] = ++lru_clock_;
        if (is_write) entries_[prev_slot] |= 1;
        hits_++;
        continue;
      }
      const size_t set = SetOf(idx);
      size_t way;
      result.missed += AccessLineT<K>(set, idx, is_write, &result, &way);
      prev_idx = idx;
      prev_slot = set * associativity_ + way;
    }
  }

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

  for (uint64_t idx = first; idx <= last; idx++) {
    uint64_t* const ways = &entries_[SetOf(idx) * associativity_];
    const uint64_t match = idx << 1;
    const int w = probe::SetProbe<K>::FindWay(ways, associativity_, match);
    if (w < 0) continue;
    if (ways[w] & 1) {
      flushed++;
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

/// Golden-model test for the CacheSim fast path: the seed's straightforward
/// vector-of-banks/sets/lines implementation is kept here as a reference,
/// and a randomized access/flush/crash trace is driven through both models
/// in lockstep. Hit/miss/write-back *sequences* (not just totals) must be
/// identical — the fast path is an optimization, never a model change.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "nvm/cache_sim.h"

namespace nvmdb {
namespace {

/// One observable cache event, in emission order.
struct Event {
  enum Kind : uint8_t { kWriteBack, kFill };
  Kind kind;
  uint64_t line_addr;

  bool operator==(const Event& o) const {
    return kind == o.kind && line_addr == o.line_addr;
  }
};

/// Reference model: a line-for-line keep of the seed implementation
/// (pointer-chasing layout, div/mod Locate, per-line eviction scan). Only
/// the callback plumbing differs: events append to a vector, and the bank
/// count is fixed at 1 so WriteBackAll emits its events in the fast
/// cache's flat set order.
class ReferenceCache {
 public:
  ReferenceCache(const CacheConfig& config, std::vector<Event>* events)
      : config_(config), events_(events) {
    size_t num_lines = std::max<size_t>(
        config_.associativity, config_.capacity_bytes / config_.line_size);
    size_t num_sets =
        std::max<size_t>(1, num_lines / config_.associativity);
    sets_per_bank_ = num_sets;
    banks_.resize(1);
    for (auto& bank : banks_) {
      bank.sets.resize(sets_per_bank_);
      for (auto& set : bank.sets) set.ways.resize(config_.associativity);
    }
  }

  size_t Access(uint64_t addr, size_t size, bool is_write) {
    if (size == 0) return 0;
    const size_t ls = config_.line_size;
    const uint64_t first = addr / ls * ls;
    const uint64_t last = (addr + size - 1) / ls * ls;
    size_t missed = 0;
    for (uint64_t line = first; line <= last; line += ls) {
      size_t bank_idx, set_idx;
      Locate(line, &bank_idx, &set_idx);
      Bank& bank = banks_[bank_idx];
      Set& set = bank.sets[set_idx];
      const uint64_t tag = line;

      Line* hit = nullptr;
      Line* victim = &set.ways[0];
      for (auto& way : set.ways) {
        if (way.tag == tag) {
          hit = &way;
          break;
        }
        if (way.tag == kInvalidTag) {
          victim = &way;
        } else if (victim->tag != kInvalidTag &&
                   way.lru_stamp < victim->lru_stamp) {
          victim = &way;
        }
      }

      if (hit != nullptr) {
        hit->lru_stamp = ++bank.lru_clock;
        if (is_write) hit->dirty = true;
        hits++;
        continue;
      }

      missed++;
      misses++;
      if (victim->tag != kInvalidTag && victim->dirty) {
        write_backs++;
        events_->push_back({Event::kWriteBack, victim->tag});
      }
      events_->push_back({Event::kFill, line});
      victim->tag = tag;
      victim->dirty = is_write;
      victim->lru_stamp = ++bank.lru_clock;
    }
    return missed;
  }

  size_t FlushRange(uint64_t addr, size_t size, bool invalidate) {
    if (size == 0) return 0;
    const size_t ls = config_.line_size;
    const uint64_t first = addr / ls * ls;
    const uint64_t last = (addr + size - 1) / ls * ls;
    size_t flushed = 0;
    for (uint64_t line = first; line <= last; line += ls) {
      size_t bank_idx, set_idx;
      Locate(line, &bank_idx, &set_idx);
      Set& set = banks_[bank_idx].sets[set_idx];
      for (auto& way : set.ways) {
        if (way.tag != line) continue;
        if (way.dirty) {
          flushed++;
          write_backs++;
          events_->push_back({Event::kWriteBack, way.tag});
          way.dirty = false;
        }
        if (invalidate) way.tag = kInvalidTag;
        break;
      }
    }
    return flushed;
  }

  size_t WriteBackAll() {
    size_t flushed = 0;
    for (auto& bank : banks_) {
      for (auto& set : bank.sets) {
        for (auto& way : set.ways) {
          if (way.tag != kInvalidTag && way.dirty) {
            flushed++;
            write_backs++;
            events_->push_back({Event::kWriteBack, way.tag});
            way.dirty = false;
          }
        }
      }
    }
    return flushed;
  }

  void DropDirty() {
    for (auto& bank : banks_) {
      for (auto& set : bank.sets) {
        for (auto& way : set.ways) {
          way.tag = kInvalidTag;
          way.dirty = false;
          way.lru_stamp = 0;
        }
      }
      bank.lru_clock = 0;
    }
  }

  uint64_t hits = 0, misses = 0, write_backs = 0;

 private:
  struct Line {
    uint64_t tag = kInvalidTag;
    uint64_t lru_stamp = 0;
    bool dirty = false;
  };
  struct Set {
    std::vector<Line> ways;
  };
  struct Bank {
    std::vector<Set> sets;
    uint64_t lru_clock = 0;
  };
  static constexpr uint64_t kInvalidTag = ~0ull;

  void Locate(uint64_t line_addr, size_t* bank, size_t* set) const {
    const uint64_t line_index = line_addr / config_.line_size;
    uint64_t h = line_index * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    *bank = h % banks_.size();
    *set = (h / banks_.size()) % sets_per_bank_;
  }

  CacheConfig config_;
  std::vector<Event>* events_;
  std::vector<Bank> banks_;
  size_t sets_per_bank_;
};

CacheCallbacks EventRecorder(std::vector<Event>* events) {
  CacheCallbacks callbacks;
  callbacks.ctx = events;
  callbacks.write_back = [](void* ctx, uint64_t line_addr, size_t) {
    static_cast<std::vector<Event>*>(ctx)->push_back(
        {Event::kWriteBack, line_addr});
  };
  callbacks.fill = [](void* ctx, uint64_t line_addr, size_t) {
    static_cast<std::vector<Event>*>(ctx)->push_back(
        {Event::kFill, line_addr});
  };
  return callbacks;
}

/// Drives the randomized trace through the reference model and through a
/// fast CacheSim (inlinable hit/flush paths plus the out-of-line loops)
/// and a forced-scalar instance: the SIMD probe (SSE2/AVX2, whatever
/// ResolveProbeKind picked on this CPU) and the scalar loop must both
/// reproduce the reference's hit/miss/write-back sequences exactly. The
/// trace also issues segmented accesses, which the reference models as the
/// uncoalesced adjacent calls and the fast caches as one AccessSegments.
void RunTrace(const CacheConfig& base_cfg, uint64_t seed, uint64_t num_ops,
              uint64_t address_space) {
  std::vector<Event> ref_events;
  std::vector<Event> owner_events;
  std::vector<Event> scalar_events;
  ReferenceCache reference(base_cfg, &ref_events);

  CacheSim owner(base_cfg, EventRecorder(&owner_events));
  CacheConfig cfg = base_cfg;
  cfg.force_scalar_probe = true;
  CacheSim scalar(cfg, EventRecorder(&scalar_events));
  ASSERT_EQ(scalar.probe_kind(), ProbeKind::kScalar);

  std::mt19937_64 rng(seed);
  for (uint64_t op = 0; op < num_ops; op++) {
    const uint64_t kind = rng() % 100;
    const uint64_t addr = rng() % address_space;
    const size_t size = 1 + rng() % 256;
    const bool flag = (rng() & 1) != 0;
    if (kind < 70) {
      const size_t expected = reference.Access(addr, size, flag);
      // Drive the owner caches the way NvmDevice::Touch does: try the
      // inlined resident-hit fast path first (a fast-path hit is a
      // zero-miss access), fall back to the full path otherwise.
      const size_t owner_missed = owner.OwnerHitFast(addr, size, flag)
                                      ? 0
                                      : owner.Access(addr, size, flag);
      ASSERT_EQ(expected, owner_missed) << "op " << op;
      const size_t scalar_missed = scalar.OwnerHitFast(addr, size, flag)
                                       ? 0
                                       : scalar.Access(addr, size, flag);
      ASSERT_EQ(expected, scalar_missed) << "op " << op;
    } else if (kind < 80) {
      // Segmented access: the reference performs the uncoalesced adjacent
      // calls (skipping empty segments, as the engines' `if (!empty)`
      // guards did); each fast cache models them as ONE AccessSegments.
      // Totals and the event sequences checked below must match —
      // including the double visit of a line shared by two segments.
      uint32_t lens[3] = {0, 0, 0};
      const size_t nseg = 2 + rng() % 2;
      size_t expected = 0;
      size_t ref_lines = 0;
      uint64_t seg_addr = addr;
      for (size_t s = 0; s < nseg; s++) {
        lens[s] = static_cast<uint32_t>(rng() % 200);  // 0-length legal
        if (lens[s] != 0) {
          expected += reference.Access(seg_addr, lens[s], flag);
          ref_lines += (seg_addr + lens[s] - 1) / base_cfg.line_size -
                       seg_addr / base_cfg.line_size + 1;
        }
        seg_addr += lens[s];
      }
      const CacheAccessResult owner_r =
          owner.AccessSegments(addr, lens, nseg, flag);
      ASSERT_EQ(expected, owner_r.missed) << "op " << op;
      ASSERT_EQ(ref_lines, owner_r.lines) << "op " << op;
      const CacheAccessResult scalar_r =
          scalar.AccessSegments(addr, lens, nseg, flag);
      ASSERT_EQ(expected, scalar_r.missed) << "op " << op;
      ASSERT_EQ(ref_lines, scalar_r.lines) << "op " << op;
    } else if (kind < 94) {
      const size_t expected = reference.FlushRange(addr, size, flag);
      // Drive the owner caches the way NvmDevice::FlushLines does: the
      // inlined single-line flush when it applies, FlushRange otherwise.
      const int fast = owner.OwnerFlushFast(addr, size, flag);
      const size_t owner_flushed = fast >= 0
                                       ? static_cast<size_t>(fast)
                                       : owner.FlushRange(addr, size, flag);
      ASSERT_EQ(expected, owner_flushed) << "op " << op;
      const int sfast = scalar.OwnerFlushFast(addr, size, flag);
      const size_t scalar_flushed =
          sfast >= 0 ? static_cast<size_t>(sfast)
                     : scalar.FlushRange(addr, size, flag);
      ASSERT_EQ(expected, scalar_flushed) << "op " << op;
    } else if (kind < 97) {
      const size_t expected = reference.WriteBackAll();
      ASSERT_EQ(expected, owner.WriteBackAll()) << "op " << op;
      ASSERT_EQ(expected, scalar.WriteBackAll()) << "op " << op;
    } else {
      // Crash: all cached state vanishes, nothing is written back.
      reference.DropDirty();
      owner.DropDirty();
      scalar.DropDirty();
    }
    ASSERT_EQ(ref_events.size(), owner_events.size()) << "op " << op;
    ASSERT_EQ(ref_events.size(), scalar_events.size()) << "op " << op;
  }

  for (const CacheSim* fast : {&owner, &scalar}) {
    EXPECT_EQ(reference.hits, fast->hits());
    EXPECT_EQ(reference.misses, fast->misses());
    EXPECT_EQ(reference.write_backs, fast->write_backs());
  }
  ASSERT_EQ(ref_events.size(), owner_events.size());
  ASSERT_EQ(ref_events.size(), scalar_events.size());
  for (size_t i = 0; i < ref_events.size(); i++) {
    ASSERT_TRUE(ref_events[i] == owner_events[i])
        << "event " << i << ": ref kind " << int(ref_events[i].kind)
        << " line " << ref_events[i].line_addr << " vs owner kind "
        << int(owner_events[i].kind) << " line "
        << owner_events[i].line_addr;
    ASSERT_TRUE(ref_events[i] == scalar_events[i])
        << "event " << i << ": ref kind " << int(ref_events[i].kind)
        << " line " << ref_events[i].line_addr << " vs scalar kind "
        << int(scalar_events[i].kind) << " line "
        << scalar_events[i].line_addr;
  }
}

// Power-of-two geometries, where the fast path's shift+mask Locate must
// reproduce the reference's div/mod mapping exactly.

TEST(CacheGoldenTest, SmallCache) {
  CacheConfig cfg;
  cfg.capacity_bytes = 4 * 1024;  // 64 lines, 16 sets
  cfg.line_size = 64;
  cfg.associativity = 4;
  RunTrace(cfg, /*seed=*/1, /*num_ops=*/50000, /*address_space=*/64 * 1024);
}

TEST(CacheGoldenTest, BenchGeometry) {
  CacheConfig cfg;
  cfg.capacity_bytes = 256 * 1024;  // benchmark shape, scaled down
  cfg.line_size = 64;
  cfg.associativity = 16;
  RunTrace(cfg, /*seed=*/2, /*num_ops=*/50000,
           /*address_space=*/4 * 1024 * 1024);
}

TEST(CacheGoldenTest, HighPressureEvictions) {
  CacheConfig cfg;
  cfg.capacity_bytes = 8 * 1024;  // tiny cache, huge address space
  cfg.line_size = 64;
  cfg.associativity = 2;
  RunTrace(cfg, /*seed=*/3, /*num_ops=*/50000,
           /*address_space=*/16 * 1024 * 1024);
}

// Forced-scalar vs SIMD equivalence across the associativities the SIMD
// probe treats differently: 4 ways fill exactly one AVX2 vector, 8 two, 16
// (the bench default) four; each also exercises the SSE2 pair width and
// the scalar tail handling. RunTrace drives a forced-scalar instance in
// lockstep with the dispatch-selected one, so on an AVX2/SSE2 machine this
// is a direct scalar-vs-vector sweep.
TEST(CacheGoldenTest, ProbeEquivalenceAssociativitySweep) {
  for (const size_t assoc : {size_t{4}, size_t{8}, size_t{16}}) {
    CacheConfig cfg;
    cfg.capacity_bytes = 64 * 1024;
    cfg.line_size = 64;
    cfg.associativity = assoc;
    RunTrace(cfg, /*seed=*/100 + assoc, /*num_ops=*/30000,
             /*address_space=*/8 * 1024 * 1024);
  }
}

// Write-heavy trace on an overcommitted cache: nearly every miss evicts a
// dirty victim, so the SIMD victim min-reduction (and its first-minimum
// tie-break) is what decides which line is written back. Any divergence
// from the scalar scan shows up as a write-back event mismatch.
TEST(CacheGoldenTest, DirtyVictimEvictionStorm) {
  CacheConfig cfg;
  cfg.capacity_bytes = 16 * 1024;
  cfg.line_size = 64;
  cfg.associativity = 16;  // 16 sets of 16 ways: deep scans, churn
  RunTrace(cfg, /*seed=*/7, /*num_ops=*/50000,
           /*address_space=*/32 * 1024 * 1024);
}

// CLFLUSH-style regime: the trace's flush ops invalidate (flag is random,
// so ~half do), making the flush-probe + invalidate + re-fill cycle the
// dominant pattern. A probe that mis-handles an invalidated way would
// re-hit a dead line here.
TEST(CacheGoldenTest, FlushWithInvalidateChurn) {
  CacheConfig cfg;
  cfg.capacity_bytes = 32 * 1024;
  cfg.line_size = 64;
  cfg.associativity = 8;
  RunTrace(cfg, /*seed=*/11, /*num_ops=*/50000,
           /*address_space=*/256 * 1024);
}

// The config flag must pin the scalar loop at construction time,
// overriding whatever the CPU supports.
TEST(CacheGoldenTest, ForceScalarProbeConfigFlag) {
  CacheConfig cfg;
  cfg.capacity_bytes = 4 * 1024;
  cfg.line_size = 64;
  cfg.associativity = 4;
  cfg.force_scalar_probe = true;
  CacheSim forced(cfg, CacheCallbacks{});
  EXPECT_EQ(forced.probe_kind(), ProbeKind::kScalar);
}

}  // namespace
}  // namespace nvmdb

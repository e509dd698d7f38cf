#pragma once

#include <cstddef>
#include <cstdint>

namespace nvmdb {

/// Per-component attribution tag for simulated stall time. Every
/// nanosecond the device charges (cache hits/misses, write-backs, sync
/// primitives, VFS crossings) is attributed to the tag current on the
/// charging thread, so "where does the time go" — the question behind the
/// paper's Fig. 13 breakdown — is answered per component rather than via
/// the old 4-slot per-engine EngineTimeBreakdown. Components self-tag
/// (the WAL tags its own appends/flushes, the allocator its alloc/free,
/// the checkpointer its writes); engines tag the remaining index and
/// tuple paths. The innermost scope wins, so a checkpoint that flushes
/// the WAL attributes the flush to the WAL — no double counting.
enum class StallTag : uint8_t {
  kWal = 0,        // WAL append, group-commit force, NVM WAL push/clear
  kIndex,          // index access and maintenance
  kTuple,          // tuple/heap/memtable/page storage management
  kAllocator,      // persistent allocator alloc/free
  kCheckpoint,     // checkpoint writes, memtable/batch flushes
  kRecovery,       // restart recovery protocols
  kOther,          // untagged engine logic, compaction bookkeeping
  kCount,
};

inline constexpr size_t kStallTagCount =
    static_cast<size_t>(StallTag::kCount);

inline const char* StallTagName(StallTag tag) {
  switch (tag) {
    case StallTag::kWal: return "wal";
    case StallTag::kIndex: return "index";
    case StallTag::kTuple: return "tuple";
    case StallTag::kAllocator: return "allocator";
    case StallTag::kCheckpoint: return "checkpoint";
    case StallTag::kRecovery: return "recovery";
    case StallTag::kOther: return "other";
    case StallTag::kCount: break;
  }
  return "?";
}

/// Per-tag stall totals (the Fig.-13-style breakdown, now 7-way).
struct StallBreakdown {
  uint64_t ns[kStallTagCount] = {};
  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t v : ns) sum += v;
    return sum;
  }
};

namespace internal {
/// The charging thread's current tag. Thread-local (like NvmEnv's current
/// device) so concurrent benchmark cells on pool threads never see each
/// other's tags; inline so NvmDevice::ChargeStall can read it without an
/// out-of-line call on the hot path.
inline thread_local StallTag t_stall_tag = StallTag::kOther;
}  // namespace internal

inline StallTag CurrentStallTag() { return internal::t_stall_tag; }

/// RAII tag scope. Nesting restores the previous tag, so the innermost
/// component owns the time charged while it runs.
class ScopedStallTag {
 public:
  explicit ScopedStallTag(StallTag tag) : prev_(internal::t_stall_tag) {
    internal::t_stall_tag = tag;
  }
  ~ScopedStallTag() { internal::t_stall_tag = prev_; }

  ScopedStallTag(const ScopedStallTag&) = delete;
  ScopedStallTag& operator=(const ScopedStallTag&) = delete;

 private:
  StallTag prev_;
};

}  // namespace nvmdb

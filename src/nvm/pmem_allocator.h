#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "nvm/nvm_device.h"
#include "nvm/thread_owner.h"

namespace nvmdb {

/// Component tags for footprint accounting (Fig. 14's breakdown).
enum class StorageTag : uint16_t {
  kOther = 0,
  kTable = 1,
  kIndex = 2,
  kLog = 3,
  kCheckpoint = 4,
  kFilesystem = 5,
  kCount = 6,
};

/// Per-tag byte usage snapshot.
struct AllocatorStats {
  uint64_t used_by_tag[static_cast<size_t>(StorageTag::kCount)] = {};
  uint64_t total_used = 0;
  uint64_t high_water = 0;
};

/// NVM-aware memory allocator (Section 2.3), modeled on the paper's
/// extended libpmem allocator:
///
///  * **Durability mechanism** — callers persist payloads with the device
///    sync primitive; the allocator persists its own metadata (slot
///    headers, heap high-water mark, catalog) the same way.
///  * **Naming mechanism** — a persistent root catalog maps string names to
///    region offsets, so `NvmPtr`s stored inside named structures remain
///    valid across OS/DBMS restarts.
///  * **Slot durability states** — every allocation carries one of three
///    states (unallocated / allocated-but-not-persisted / persisted);
///    `Recover()` reclaims allocated-but-not-persisted slots, which is how
///    the paper avoids non-volatile memory leaks after a crash
///    (Section 4.1).
///  * **Rotating best-fit** — frees are kept in size-segregated lists;
///    allocation takes the best-fitting class and rotates through the
///    entries within it to spread wear.
///
/// Free lists are volatile (rebuilt by scanning slot headers on recovery);
/// only the headers and the high-water mark are authoritative.
///
/// Like the device under it, an allocator is thread-confined: one thread
/// drives it (debug builds abort on a second), so it takes no locks.
class PmemAllocator {
 public:
  /// Attach to a device. If the region is not formatted (or `format` is
  /// true), initializes a fresh heap; otherwise recovers the existing one.
  ///
  /// `eager_state_sync` controls whether slot-state transitions on *reused*
  /// slots are synced immediately. NVM-aware engines need true (their slot
  /// states are part of the recovery protocol); traditional engines treat
  /// this memory as volatile and skip the sync, like a DRAM malloc would.
  /// Structural metadata (slot size/magic, high-water mark) and Free()
  /// transitions are always durable so the recovery heap walk and the
  /// filesystem living on this heap stay intact either way.
  explicit PmemAllocator(NvmDevice* device, bool format = true,
                         bool eager_state_sync = true);

  void set_eager_state_sync(bool eager) { eager_state_sync_ = eager; }

  NvmDevice* device() { return device_; }

  /// Allocate `size` payload bytes (16-byte aligned). Returns the payload
  /// offset, or 0 on out-of-space. The slot starts in state
  /// "allocated-but-not-persisted".
  ///
  /// `sync_header` may be false when the caller will immediately call
  /// PersistPayloadAndMark with no other allocation in between — the
  /// recovery heap walk only needs headers durable in allocation order,
  /// and that call persists this header itself.
  uint64_t Alloc(size_t size, StorageTag tag = StorageTag::kOther,
                 bool sync_header = true);

  /// Transition a slot to the durable "persisted" state. Engines call this
  /// after syncing the payload so the slot survives `Recover()`.
  void MarkPersisted(uint64_t payload_offset);

  /// Persist the payload's first `payload_len` bytes AND the slot state
  /// with a single sync: the 16-byte header is contiguous with the
  /// payload, so one flush covers both. This is the hot-path durability
  /// primitive for write-once objects (tuples, WAL entries, index nodes).
  void PersistPayloadAndMark(uint64_t payload_offset, size_t payload_len);

  /// Return a slot to the free state (persisted immediately).
  ///
  /// Idempotent and defensive: freeing an already-free slot, or an offset
  /// that does not point at a well-formed slot header, is a no-op. Crash
  /// recovery needs this — undoing an in-flight transaction may re-run a
  /// free that was partially durable when the crash hit, and a torn tuple
  /// may hand recovery a garbage varlen pointer. Double-inserting a slot
  /// into the free lists would let Alloc hand the same offset out twice.
  void Free(uint64_t payload_offset);

  /// True iff `payload_offset` points just past a well-formed slot header:
  /// in bounds, 16-byte aligned, magic intact. Recovery paths use this to
  /// reject pointers read from possibly-torn durable state before
  /// dereferencing them (StateOf/UsableSize assume a valid slot).
  bool ValidPayloadOffset(uint64_t payload_offset) const;

  /// Payload size of a live slot.
  size_t UsableSize(uint64_t payload_offset) const;

  /// Durability state of a slot; exposed for tests and recovery audits.
  enum class SlotState : uint16_t {
    kFree = 0x00F1,
    kAllocated = 0x00A1,
    kPersisted = 0x00B5,
  };
  SlotState StateOf(uint64_t payload_offset) const;

  // --- Naming mechanism ----------------------------------------------------

  /// Persistently bind `name` to `offset` (0 clears the binding).
  Status SetRoot(const std::string& name, uint64_t offset);
  /// Look up a binding; returns 0 if absent.
  uint64_t GetRoot(const std::string& name) const;

  // --- Recovery -------------------------------------------------------------

  /// Rebuild volatile state from the region after a crash or restart:
  /// reclaims allocated-but-not-persisted slots, coalesces free runs, and
  /// rebuilds the free lists. Idempotent.
  void Recover();

  /// Structural invariant check for crash harnesses: walk the heap from
  /// `heap_start` and verify every slot header is well-formed (magic, a
  /// known durability state, a nonzero 16-byte-aligned capacity that stays
  /// inside the region) until the first never-persisted header — i.e. the
  /// walk Recover() relies on terminates cleanly. Returns the number of
  /// live (persisted) slots via `live_slots` when non-null.
  Status AuditHeap(uint64_t* live_slots = nullptr) const;

  AllocatorStats stats() const;

  /// First heap offset (for tests that scan the region).
  uint64_t heap_start() const;
  uint64_t high_water() const;

 private:
  struct SlotHeader;   // 24-byte persistent slot header
  struct RegionHeader; // persistent region header at offset 0

  RegionHeader* header() const;
  SlotHeader* SlotAt(uint64_t slot_offset) const;
  void PersistHeaderField(const void* field, size_t n);
  void PushFree(uint64_t slot_offset, size_t payload_size);
  uint64_t PopFree(size_t payload_size);
  void Format();

  NvmDevice* device_;
  bool eager_state_sync_ = true;
  [[no_unique_address]] ThreadOwner owner_;  // thread-confined, no locks
  // payload size class -> slot offsets; rotation index per class.
  std::map<size_t, std::vector<uint64_t>> free_lists_;
  std::map<size_t, size_t> rotate_;
  uint64_t used_by_tag_[static_cast<size_t>(StorageTag::kCount)] = {};
  uint64_t total_used_ = 0;
};

}  // namespace nvmdb

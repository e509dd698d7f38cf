#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "nvm/pmem_allocator.h"
#include "nvm/pmfs.h"

namespace nvmdb {

/// Abstract fixed-size page store underneath the copy-on-write B+tree.
/// Two implementations mirror the paper's two shadow-paging engines:
/// pages in a PMFS file (CoW engine) and pages straight from the NVM
/// allocator (NVM-CoW engine).
class PageStore {
 public:
  virtual ~PageStore() = default;

  virtual size_t page_size() const = 0;

  /// Allocate a page; contents undefined until written.
  virtual uint64_t AllocPage() = 0;
  virtual void FreePage(uint64_t pid) = 0;

  /// Page views (DESIGN.md §5): model a whole-page read or write of
  /// `pid` and return the page's bytes in place instead of copying them.
  /// A write view must be filled completely (every byte of the page is
  /// defined by the caller), unless it is the same page as the read view
  /// just taken, which it then edits in place.
  ///
  /// Lifetime: a view stays valid until the next call on the store, with
  /// one exception the tree relies on — a read view survives AllocPage and
  /// the one WriteView that follows it (a write view never reuses the
  /// buffer of a frame its own fill evicted). Anything that must outlive
  /// further calls is copied out first.
  virtual const uint8_t* ReadView(uint64_t pid) = 0;
  virtual uint8_t* WriteView(uint64_t pid) = 0;

  /// Make the given pages durable (fsync / sync primitive). `pids` must
  /// be sorted ascending — the flush order is part of the deterministic
  /// device-access sequence.
  virtual void FlushPages(const std::vector<uint64_t>& pids) = 0;

  /// The master record (Section 3.2): an atomically-updatable durable word
  /// pointing at the root of the current directory.
  virtual uint64_t ReadMaster() = 0;
  virtual void WriteMaster(uint64_t root_pid) = 0;

  /// Bytes of storage held by live pages (Fig. 14 accounting).
  virtual uint64_t StorageBytes() const = 0;
  /// Volatile memory (page cache etc.) held by the store.
  virtual uint64_t CacheBytes() const { return 0; }

  /// Reclaim every page not reachable from the committed tree. `reachable`
  /// is produced by the tree walk; called asynchronously in the paper,
  /// eagerly at open here.
  virtual void RetainOnly(const std::set<uint64_t>& reachable) = 0;
};

/// Open-addressing set of page offsets (keys are nonzero; 0 marks an
/// empty slot). Replaces std::set on the page-alloc hot path: Insert and
/// Erase are allocation-free once the table has grown to the working
/// size. Iteration order is unspecified — cold callers sort first.
class FlatPidSet {
 public:
  FlatPidSet() : slots_(16, 0) {}

  void Insert(uint64_t pid);
  bool Erase(uint64_t pid);
  size_t size() const { return count_; }

  /// Elements in ascending order (cold paths: GC, accounting).
  std::vector<uint64_t> Sorted() const;

 private:
  void Grow();

  std::vector<uint64_t> slots_;
  size_t count_ = 0;
};

/// Pages stored in a PMFS file with an in-memory page cache (the CoW
/// engine keeps hot pages cached, Section 3.2). Page id n lives at file
/// offset (n + 1) * page_size; the master record occupies the first page.
///
/// The cache is a flat structure: a dense pid -> frame-index table plus an
/// intrusive doubly-linked LRU over a frame pool, so steady-state hits,
/// misses, and evictions perform no heap allocation (frame buffers are
/// recycled; each fill still reserves a fresh modeled address, exactly as
/// the previous map-based cache did, keeping the cache model's access
/// stream bit-identical).
class PmfsPageStore : public PageStore {
 public:
  PmfsPageStore(Pmfs* fs, const std::string& file_name, size_t page_size,
                size_t cache_pages, StorageTag tag);
  ~PmfsPageStore() override;

  size_t page_size() const override { return page_size_; }
  uint64_t AllocPage() override;
  void FreePage(uint64_t pid) override;
  const uint8_t* ReadView(uint64_t pid) override;
  uint8_t* WriteView(uint64_t pid) override;
  void FlushPages(const std::vector<uint64_t>& pids) override;
  uint64_t ReadMaster() override;
  void WriteMaster(uint64_t root_pid) override;
  uint64_t StorageBytes() const override;
  uint64_t CacheBytes() const override;
  void RetainOnly(const std::set<uint64_t>& reachable) override;

 private:
  static constexpr uint32_t kNoFrame = UINT32_MAX;
  // Footprint accounting charges this much host metadata per cached page
  // (the size of the old map-based cache's entry struct — kept stable so
  // the Fig. 14 cache-bytes columns don't move).
  static constexpr size_t kFrameAccountedBytes = 32;

  struct Frame {
    std::unique_ptr<uint8_t[]> data;
    uint64_t vaddr = 0;  // stable modeled address of the cached frame
    uint64_t pid = 0;
    bool dirty = false;
    uint32_t lru_prev = kNoFrame;
    uint32_t lru_next = kNoFrame;
  };

  Frame* GetCached(uint64_t pid, bool fill_from_file);
  void EvictIfNeeded();
  void WriteBackFrame(Frame* frame);
  void LruUnlink(uint32_t idx);
  void LruPushFront(uint32_t idx);
  uint32_t FrameOf(uint64_t pid) const {
    return pid < page_to_frame_.size() ? page_to_frame_[pid] : kNoFrame;
  }
  void DropFrame(uint64_t pid, uint32_t idx);

  Pmfs* fs_;
  Pmfs::Fd fd_;
  size_t page_size_;
  size_t cache_capacity_;
  uint64_t next_pid_;
  std::vector<uint64_t> free_pids_;
  std::vector<uint32_t> page_to_frame_;  // dense: pids come from next_pid_
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_frames_;
  uint32_t lru_head_ = kNoFrame;  // most recent
  uint32_t lru_tail_ = kNoFrame;  // least recent
  size_t cached_count_ = 0;
};

/// Pages allocated directly from the NVM allocator; page ids are payload
/// offsets. Durability comes from the allocator's sync primitive — no
/// kernel crossing (Section 4.2). Pages are MarkPersisted only when
/// flushed, so pages of an uncommitted dirty directory are reclaimed by
/// allocator recovery after a crash — the paper's asynchronous dirty-
/// directory garbage collection.
class NvmPageStore : public PageStore {
 public:
  NvmPageStore(PmemAllocator* allocator, const std::string& name,
               size_t page_size, StorageTag tag);

  size_t page_size() const override { return page_size_; }
  uint64_t AllocPage() override;
  void FreePage(uint64_t pid) override;
  const uint8_t* ReadView(uint64_t pid) override;
  uint8_t* WriteView(uint64_t pid) override;
  void FlushPages(const std::vector<uint64_t>& pids) override;
  uint64_t ReadMaster() override;
  void WriteMaster(uint64_t root_pid) override;
  uint64_t StorageBytes() const override;
  void RetainOnly(const std::set<uint64_t>& reachable) override;

 private:
  PmemAllocator* allocator_;
  NvmDevice* device_;
  size_t page_size_;
  StorageTag tag_;
  uint64_t master_off_;  // persistent 8-byte master record
  FlatPidSet live_pages_;
};

}  // namespace nvmdb

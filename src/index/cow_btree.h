#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/slice.h"
#include "index/page_store.h"

namespace nvmdb {

/// Copy-on-write (append-only / shadow-paging) B+tree in the style of
/// LMDB's MDB tree (Section 3.2). Keys are uint64; values are byte strings
/// (inlined tuples for the CoW engine, 8-byte non-volatile pointers for the
/// NVM-CoW engine).
///
/// Two directories exist at all times:
///  * the *current* directory — the root recorded in the master record;
///    contains only committed data and is never modified in place;
///  * the *dirty* directory — the working version produced by
///    copy-on-writing the path from each modified leaf up to the root.
///
/// `Commit()` flushes the fresh pages and atomically repoints the master
/// record (one durable 8-byte write); `Abort()` discards the fresh pages.
/// Group commit is the caller's policy: any number of operations may run
/// between commits.
///
/// Nodes are never materialized: every operation reads and writes the
/// page bytes in place through the store's page views (DESIGN.md §5).
/// Only what must outlive a nested store call — an inner node's keys and
/// children across the recursion below it, a leaf's scanned entries across
/// the caller's callback, a split's overflowing image — is copied, into a
/// rewind pool of scratch buffers (live buffers are bounded by the tree
/// depth), so steady-state operations do not allocate.
class CowBTree {
 public:
  explicit CowBTree(PageStore* store);

  // --- Operations on the dirty directory ------------------------------------

  /// Insert or replace. Fails only if the value cannot fit a page.
  bool Put(uint64_t key, const Slice& value);
  bool Delete(uint64_t key);

  /// Read through the dirty directory (sees the in-flight batch).
  bool Get(uint64_t key, std::string* out) const;
  /// Read the committed snapshot only (what survives a crash right now).
  bool GetCommitted(uint64_t key, std::string* out) const;

  /// In-order scan over [lo, hi] in the dirty directory.
  void Scan(uint64_t lo, uint64_t hi,
            const std::function<bool(uint64_t, const Slice&)>& fn) const;

  // --- Directory lifecycle ---------------------------------------------------

  /// Persist the dirty directory and atomically publish it as current.
  void Commit();
  /// Drop the dirty directory; the current directory is untouched.
  void Abort();
  /// True if the batch has uncommitted changes.
  bool HasDirty() const { return dirty_root_ != current_root_; }

  /// Reclaim pages unreachable from the committed root (post-restart GC of
  /// the previous dirty directory).
  void GarbageCollect();

  /// Max value size that fits a leaf page.
  size_t MaxValueSize() const;

  uint64_t current_root() const { return current_root_; }
  size_t PageCount() const;

 private:
  // Result of a recursive CoW modification: the subtree's (possibly new)
  // root page, plus an optional right sibling from a split.
  struct ModResult {
    uint64_t pid = kNilPage;
    bool has_split = false;
    uint64_t split_key = 0;
    uint64_t right_pid = kNilPage;
    bool removed = false;  // subtree became empty (delete path)
  };

  // Rewind pool of scratch buffers (two pages each). A ScratchScope hands
  // out buffers and returns every buffer it took when it dies; scopes nest
  // with the recursion (and with callbacks that re-enter the tree).
  class ScratchScope {
   public:
    explicit ScratchScope(const CowBTree* tree)
        : tree_(tree), mark_(tree->scratch_used_) {}
    ~ScratchScope() { tree_->scratch_used_ = mark_; }
    ScratchScope(const ScratchScope&) = delete;
    ScratchScope& operator=(const ScratchScope&) = delete;
    uint64_t* Acquire() const;

   private:
    const CowBTree* tree_;
    size_t mark_;
  };

  static constexpr uint64_t kNilPage = 0;
  // Page ids are stored +1 in the master record and child arrays so that 0
  // can mean "empty tree".

  const uint8_t* ReadPage(uint64_t epid) const;
  /// The page a node's new image goes to: the node's own page if it was
  /// created in this batch (updated in place), else a fresh page, the old
  /// one being freed at commit.
  uint64_t ShadowPage(uint64_t old_epid);
  /// Write a complete inner page: `n` keys and `n + 1` children.
  uint64_t StoreInner(uint64_t old_epid, const uint64_t* keys, size_t n,
                      const uint64_t* children);
  /// Write a complete leaf page whose entries are `entries[0, bytes)`.
  uint64_t StoreLeaf(uint64_t old_epid, const uint8_t* entries,
                     size_t bytes, size_t count);

  bool IsFresh(uint64_t epid) const;
  void AddFresh(uint64_t epid);
  void RemoveFresh(uint64_t epid);
  /// Free an obsolete page: immediately if it was created in this batch,
  /// else deferred to the commit (the committed directory still needs it).
  void RetirePage(uint64_t epid);

  ModResult PutRec(uint64_t epid, uint64_t key, const Slice& value,
                   bool* inserted);
  ModResult PutLeaf(uint64_t epid, const uint8_t* page, uint64_t key,
                    const Slice& value, bool* inserted);
  ModResult DeleteRec(uint64_t epid, uint64_t key, bool* deleted);
  bool GetRec(uint64_t epid, uint64_t key, std::string* out) const;
  void ScanRec(uint64_t epid, uint64_t lo, uint64_t hi,
               const std::function<bool(uint64_t, const Slice&)>& fn,
               bool* keep_going) const;
  void CollectReachable(uint64_t epid, std::set<uint64_t>* out) const;
  size_t InnerCapacity() const;

  PageStore* store_;
  uint64_t current_root_;  // 0 = empty tree
  uint64_t dirty_root_;
  std::vector<uint64_t> fresh_pages_;     // created in this batch; sorted
  std::vector<uint64_t> replaced_pages_;  // to free on commit
  mutable std::vector<std::unique_ptr<uint64_t[]>> scratch_pool_;
  mutable size_t scratch_used_ = 0;
  mutable std::vector<uint64_t> flush_scratch_;
};

}  // namespace nvmdb

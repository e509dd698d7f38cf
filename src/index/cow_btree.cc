#include "index/cow_btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace nvmdb {

namespace {

// Page layout. Header: u32 magic, u16 is_leaf, u16 count. A leaf holds
// `count` entries of [u64 key][u32 vlen][vlen value bytes]; an inner page
// holds `count` u64 keys followed by `count + 1` u64 child ids, where
// keys[i] is the smallest key of children[i+1]. The rest of the page is
// zero.
constexpr uint32_t kPageMagic = 0x434F5750;  // "COWP"
constexpr size_t kPageHeaderBytes = 8;
constexpr size_t kEntryHeaderBytes = 12;  // key + vlen

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}

inline bool IsLeaf(const uint8_t* page) {
  uint16_t is_leaf;
  memcpy(&is_leaf, page + 4, 2);
  return is_leaf != 0;
}

inline size_t CountOf(const uint8_t* page) {
  uint16_t count;
  memcpy(&count, page + 6, 2);
  return count;
}

inline void WriteHeader(uint8_t* page, bool leaf, size_t count) {
  memcpy(page, &kPageMagic, 4);
  const uint16_t is_leaf = leaf ? 1 : 0;
  memcpy(page + 4, &is_leaf, 2);
  const uint16_t n = static_cast<uint16_t>(count);
  memcpy(page + 6, &n, 2);
}

inline size_t EntryBytes(const uint8_t* entry) {
  return kEntryHeaderBytes + Load32(entry + 8);
}

inline const uint8_t* InnerKeys(const uint8_t* page) {
  return page + kPageHeaderBytes;
}

inline const uint8_t* InnerChildren(const uint8_t* page, size_t count) {
  return page + kPageHeaderBytes + 8 * count;
}

// Index of the child covering `key`: the number of keys <= key.
size_t InnerChildIndex(const uint8_t* page, size_t count, uint64_t key) {
  const uint8_t* keys = InnerKeys(page);
  size_t lo = 0, n = count;
  while (n > 0) {
    const size_t half = n / 2;
    if (Load64(keys + 8 * (lo + half)) <= key) {
      lo += half + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  return lo;
}

// Position of `key` in a leaf: the first entry whose key is >= key (or
// the end of the entries), by byte offset and index, and whether its key
// equals `key`.
struct LeafPos {
  size_t off = kPageHeaderBytes;
  size_t index = 0;
  bool found = false;
};

LeafPos FindInLeaf(const uint8_t* page, size_t count, uint64_t key) {
  LeafPos pos;
  for (; pos.index < count; pos.index++) {
    const uint64_t k = Load64(page + pos.off);
    if (k >= key) {
      pos.found = k == key;
      break;
    }
    pos.off += EntryBytes(page + pos.off);
  }
  return pos;
}

// Byte offset just past the last of `count` entries, walking on from
// entry number `index` at byte offset `off`.
size_t LeafEnd(const uint8_t* page, size_t off, size_t index, size_t count) {
  for (; index < count; index++) off += EntryBytes(page + off);
  return off;
}

inline uint8_t* WriteEntry(uint8_t* p, uint64_t key, const Slice& value) {
  memcpy(p, &key, 8);
  const uint32_t vlen = static_cast<uint32_t>(value.size());
  memcpy(p + 8, &vlen, 4);
  memcpy(p + kEntryHeaderBytes, value.data(), value.size());
  return p + kEntryHeaderBytes + value.size();
}

}  // namespace

CowBTree::CowBTree(PageStore* store) : store_(store) {
  current_root_ = store_->ReadMaster();
  dirty_root_ = current_root_;
}

uint64_t* CowBTree::ScratchScope::Acquire() const {
  // Two pages hold any copy the tree makes: a leaf that overflowed by one
  // entry, or an inner node's keys and children plus one split insert.
  if (tree_->scratch_used_ == tree_->scratch_pool_.size()) {
    tree_->scratch_pool_.emplace_back(
        new uint64_t[2 * tree_->store_->page_size() / 8]);
  }
  return tree_->scratch_pool_[tree_->scratch_used_++].get();
}

size_t CowBTree::MaxValueSize() const {
  // One entry must fit a leaf page: header + key + vlen + value.
  return store_->page_size() - kPageHeaderBytes - kEntryHeaderBytes;
}

size_t CowBTree::InnerCapacity() const {
  const size_t cap =
      (store_->page_size() - kPageHeaderBytes - 8) / (2 * 8);
  return cap < 4 ? 4 : cap;
}

const uint8_t* CowBTree::ReadPage(uint64_t epid) const {
  assert(epid != kNilPage);
  const uint8_t* page = store_->ReadView(epid - 1);
  assert(Load32(page) == kPageMagic && "corrupt CoW page");
  return page;
}

bool CowBTree::IsFresh(uint64_t epid) const {
  return std::binary_search(fresh_pages_.begin(), fresh_pages_.end(), epid);
}

void CowBTree::AddFresh(uint64_t epid) {
  fresh_pages_.insert(
      std::lower_bound(fresh_pages_.begin(), fresh_pages_.end(), epid),
      epid);
}

void CowBTree::RemoveFresh(uint64_t epid) {
  auto it =
      std::lower_bound(fresh_pages_.begin(), fresh_pages_.end(), epid);
  if (it != fresh_pages_.end() && *it == epid) fresh_pages_.erase(it);
}

void CowBTree::RetirePage(uint64_t epid) {
  if (IsFresh(epid)) {
    RemoveFresh(epid);
    store_->FreePage(epid - 1);
  } else {
    replaced_pages_.push_back(epid);
  }
}

uint64_t CowBTree::ShadowPage(uint64_t old_epid) {
  if (old_epid != kNilPage && IsFresh(old_epid)) return old_epid;
  const uint64_t epid = store_->AllocPage() + 1;
  AddFresh(epid);
  if (old_epid != kNilPage) replaced_pages_.push_back(old_epid);
  return epid;
}

uint64_t CowBTree::StoreInner(uint64_t old_epid, const uint64_t* keys,
                              size_t n, const uint64_t* children) {
  const uint64_t epid = ShadowPage(old_epid);
  uint8_t* page = store_->WriteView(epid - 1);
  WriteHeader(page, /*leaf=*/false, n);
  uint8_t* p = page + kPageHeaderBytes;
  memcpy(p, keys, 8 * n);
  memcpy(p + 8 * n, children, 8 * (n + 1));
  const size_t used = kPageHeaderBytes + 8 * (2 * n + 1);
  memset(page + used, 0, store_->page_size() - used);
  return epid;
}

uint64_t CowBTree::StoreLeaf(uint64_t old_epid, const uint8_t* entries,
                             size_t bytes, size_t count) {
  const uint64_t epid = ShadowPage(old_epid);
  uint8_t* page = store_->WriteView(epid - 1);
  WriteHeader(page, /*leaf=*/true, count);
  memcpy(page + kPageHeaderBytes, entries, bytes);
  const size_t used = kPageHeaderBytes + bytes;
  memset(page + used, 0, store_->page_size() - used);
  return epid;
}

CowBTree::ModResult CowBTree::PutLeaf(uint64_t epid, const uint8_t* page,
                                      uint64_t key, const Slice& value,
                                      bool* inserted) {
  ModResult result;
  const size_t count = page != nullptr ? CountOf(page) : 0;
  const LeafPos pos = page != nullptr ? FindInLeaf(page, count, key)
                                      : LeafPos{};
  const size_t end = LeafEnd(page, pos.off, pos.index, count);
  // The entry being replaced spans [pos.off, tail); the rest follows it.
  const size_t tail = pos.found ? pos.off + EntryBytes(page + pos.off)
                                : pos.off;
  const size_t new_count = pos.found ? count : count + 1;
  const size_t entry = kEntryHeaderBytes + value.size();
  const size_t used = end - (tail - pos.off) + entry;
  *inserted = !pos.found;

  if (used <= store_->page_size() || new_count <= 1) {
    const uint64_t target = ShadowPage(epid);
    uint8_t* out = store_->WriteView(target - 1);
    if (target == epid) {
      // A page of this batch: edit it in place. Bytes past `end` are
      // already zero.
      assert(out == page);
      memmove(out + pos.off + entry, out + tail, end - tail);
      if (used < end) memset(out + used, 0, end - used);
    } else {
      // The read view is still valid across ShadowPage and one WriteView.
      if (page != nullptr) {
        memcpy(out + kPageHeaderBytes, page + kPageHeaderBytes,
               pos.off - kPageHeaderBytes);
        memcpy(out + pos.off + entry, page + tail, end - tail);
      }
      memset(out + used, 0, store_->page_size() - used);
    }
    WriteHeader(out, /*leaf=*/true, new_count);
    WriteEntry(out + pos.off, key, value);
    result.pid = target;
    return result;
  }

  // Split: stage the overflowing image's entries (the stores below may
  // evict the read page), then store the right half — the new sibling —
  // before the left.
  ScratchScope scope(this);
  uint8_t* staged = reinterpret_cast<uint8_t*>(scope.Acquire());
  const size_t head = pos.off - kPageHeaderBytes;
  memcpy(staged, page + kPageHeaderBytes, head);
  WriteEntry(staged + head, key, value);
  memcpy(staged + head + entry, page + tail, end - tail);
  // Split by accumulated byte size so variable-length values balance: the
  // left half takes entries until it holds half the bytes, leaving the
  // right at least one.
  size_t split_at = 0;
  size_t split_off = 0;
  size_t acc = kPageHeaderBytes;
  while (split_at < new_count - 1) {
    const size_t bytes = EntryBytes(staged + split_off);
    acc += bytes;
    split_off += bytes;
    split_at++;
    if (acc >= used / 2) break;
  }
  const size_t bytes = used - kPageHeaderBytes;
  result.has_split = true;
  result.split_key = Load64(staged + split_off);
  result.right_pid = StoreLeaf(kNilPage, staged + split_off,
                               bytes - split_off, new_count - split_at);
  result.pid = StoreLeaf(epid, staged, split_off, split_at);
  return result;
}

CowBTree::ModResult CowBTree::PutRec(uint64_t epid, uint64_t key,
                                     const Slice& value, bool* inserted) {
  if (epid == kNilPage) return PutLeaf(epid, nullptr, key, value, inserted);
  const uint8_t* page = ReadPage(epid);
  if (IsLeaf(page)) return PutLeaf(epid, page, key, value, inserted);

  // Inner: copy the keys and children out — the recursion below may
  // evict this page — leaving room for one more key and child.
  size_t count = CountOf(page);
  ScratchScope scope(this);
  uint64_t* keys = scope.Acquire();
  uint64_t* children = keys + count + 1;
  memcpy(keys, InnerKeys(page), 8 * count);
  memcpy(children, InnerChildren(page, count), 8 * (count + 1));
  const size_t ci = InnerChildIndex(page, count, key);

  ModResult child = PutRec(children[ci], key, value, inserted);
  children[ci] = child.pid;
  if (child.has_split) {
    memmove(keys + ci + 1, keys + ci, 8 * (count - ci));
    keys[ci] = child.split_key;
    memmove(children + ci + 2, children + ci + 1, 8 * (count - ci));
    children[ci + 1] = child.right_pid;
    count++;
  }
  ModResult result;
  size_t left = count;
  if (count > InnerCapacity()) {
    const size_t mid = count / 2;
    result.has_split = true;
    result.split_key = keys[mid];
    result.right_pid = StoreInner(kNilPage, keys + mid + 1,
                                  count - mid - 1, children + mid + 1);
    left = mid;
  }
  result.pid = StoreInner(epid, keys, left, children);
  return result;
}

bool CowBTree::Put(uint64_t key, const Slice& value) {
  if (value.size() > MaxValueSize()) return false;
  bool inserted = false;
  ModResult result = PutRec(dirty_root_, key, value, &inserted);
  if (result.has_split) {
    const uint64_t children[2] = {result.pid, result.right_pid};
    dirty_root_ = StoreInner(kNilPage, &result.split_key, 1, children);
  } else {
    dirty_root_ = result.pid;
  }
  return true;
}

CowBTree::ModResult CowBTree::DeleteRec(uint64_t epid, uint64_t key,
                                        bool* deleted) {
  ModResult result;
  result.pid = epid;
  if (epid == kNilPage) return result;
  const uint8_t* page = ReadPage(epid);
  size_t count = CountOf(page);

  if (IsLeaf(page)) {
    const LeafPos pos = FindInLeaf(page, count, key);
    if (!pos.found) return result;
    *deleted = true;
    if (count == 1) {
      result.removed = true;
      RetirePage(epid);
      result.pid = kNilPage;
      return result;
    }
    const size_t tail = pos.off + EntryBytes(page + pos.off);
    const size_t end = LeafEnd(page, tail, pos.index + 1, count);
    const size_t used = end - (tail - pos.off);
    const uint64_t target = ShadowPage(epid);
    uint8_t* out = store_->WriteView(target - 1);
    if (target == epid) {
      assert(out == page);
      memmove(out + pos.off, out + tail, end - tail);
      memset(out + used, 0, end - used);
    } else {
      memcpy(out + kPageHeaderBytes, page + kPageHeaderBytes,
             pos.off - kPageHeaderBytes);
      memcpy(out + pos.off, page + tail, end - tail);
      memset(out + used, 0, store_->page_size() - used);
    }
    WriteHeader(out, /*leaf=*/true, count - 1);
    result.pid = target;
    return result;
  }

  ScratchScope scope(this);
  uint64_t* keys = scope.Acquire();
  uint64_t* children = keys + count;
  memcpy(keys, InnerKeys(page), 8 * count);
  memcpy(children, InnerChildren(page, count), 8 * (count + 1));
  const size_t ci = InnerChildIndex(page, count, key);

  ModResult child = DeleteRec(children[ci], key, deleted);
  if (!*deleted) return result;
  if (child.removed) {
    if (count == 0) {  // the only child went: so does this node
      result.removed = true;
      RetirePage(epid);
      result.pid = kNilPage;
      return result;
    }
    memmove(children + ci, children + ci + 1, 8 * (count - ci));
    const size_t ki = ci == 0 ? 0 : ci - 1;
    memmove(keys + ki, keys + ki + 1, 8 * (count - ki - 1));
    count--;
    // Keys and children stay where they were copied; StoreInner reads
    // them through separate pointers.
  } else {
    children[ci] = child.pid;
  }
  result.pid = StoreInner(epid, keys, count, children);
  return result;
}

bool CowBTree::Delete(uint64_t key) {
  bool deleted = false;
  ModResult result = DeleteRec(dirty_root_, key, &deleted);
  if (!deleted) return false;
  dirty_root_ = result.pid;
  // Collapse a single-child root.
  while (dirty_root_ != kNilPage) {
    const uint8_t* page = ReadPage(dirty_root_);
    if (IsLeaf(page) || CountOf(page) != 0) break;
    const uint64_t old_root = dirty_root_;
    dirty_root_ = Load64(InnerChildren(page, 0));
    RetirePage(old_root);
  }
  return true;
}

bool CowBTree::GetRec(uint64_t epid, uint64_t key, std::string* out) const {
  if (epid == kNilPage) return false;
  const uint8_t* page = ReadPage(epid);
  while (!IsLeaf(page)) {
    const size_t count = CountOf(page);
    const size_t ci = InnerChildIndex(page, count, key);
    page = ReadPage(Load64(InnerChildren(page, count) + 8 * ci));
  }
  const LeafPos pos = FindInLeaf(page, CountOf(page), key);
  if (pos.found && out != nullptr) {
    const uint8_t* entry = page + pos.off;
    out->assign(reinterpret_cast<const char*>(entry + kEntryHeaderBytes),
                Load32(entry + 8));
  }
  return pos.found;
}

bool CowBTree::Get(uint64_t key, std::string* out) const {
  return GetRec(dirty_root_, key, out);
}

bool CowBTree::GetCommitted(uint64_t key, std::string* out) const {
  return GetRec(current_root_, key, out);
}

void CowBTree::ScanRec(
    uint64_t epid, uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, const Slice&)>& fn,
    bool* keep_going) const {
  if (epid == kNilPage || !*keep_going) return;
  const uint8_t* page = ReadPage(epid);
  const size_t count = CountOf(page);
  ScratchScope scope(this);
  if (IsLeaf(page)) {
    // Copy the in-range entries out: `fn` may call back into the tree.
    const LeafPos first = FindInLeaf(page, count, lo);
    size_t end = first.off;
    size_t index = first.index;
    for (; index < count && Load64(page + end) <= hi; index++) {
      end += EntryBytes(page + end);
    }
    const bool past_hi = index < count;
    const uint8_t* p = nullptr;
    if (end > first.off) {
      uint8_t* copy = reinterpret_cast<uint8_t*>(scope.Acquire());
      memcpy(copy, page + first.off, end - first.off);
      p = copy;
    }
    for (size_t i = first.index; i < index; i++) {
      const uint32_t vlen = Load32(p + 8);
      const Slice value(reinterpret_cast<const char*>(p + kEntryHeaderBytes),
                        vlen);
      if (!fn(Load64(p), value)) {
        *keep_going = false;
        return;
      }
      p += kEntryHeaderBytes + vlen;
    }
    if (past_hi) *keep_going = false;
    return;
  }
  // Child i overlaps [lo, hi] iff (i == 0 || keys[i-1] <= hi) and
  // (i == count || lo <= keys[i]): a contiguous run, copied out before
  // recursing.
  const size_t first = lo == 0 ? 0 : InnerChildIndex(page, count, lo - 1);
  const size_t last = InnerChildIndex(page, count, hi);
  if (first > last) return;
  const size_t n = last - first + 1;
  uint64_t* children = scope.Acquire();
  memcpy(children, InnerChildren(page, count) + 8 * first, 8 * n);
  for (size_t i = 0; i < n && *keep_going; i++) {
    ScanRec(children[i], lo, hi, fn, keep_going);
  }
}

void CowBTree::Scan(
    uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, const Slice&)>& fn) const {
  bool keep_going = true;
  ScanRec(dirty_root_, lo, hi, fn, &keep_going);
}

void CowBTree::Commit() {
  if (dirty_root_ == current_root_ && fresh_pages_.empty()) return;
  // fresh_pages_ is sorted, so the flush runs ascending — the same order
  // the historical std::set produced.
  flush_scratch_.clear();
  for (uint64_t epid : fresh_pages_) flush_scratch_.push_back(epid - 1);
  store_->FlushPages(flush_scratch_);
  store_->WriteMaster(dirty_root_);
  for (uint64_t epid : replaced_pages_) store_->FreePage(epid - 1);
  replaced_pages_.clear();
  fresh_pages_.clear();
  current_root_ = dirty_root_;
}

void CowBTree::Abort() {
  for (uint64_t epid : fresh_pages_) store_->FreePage(epid - 1);
  fresh_pages_.clear();
  replaced_pages_.clear();
  dirty_root_ = current_root_;
}

void CowBTree::CollectReachable(uint64_t epid,
                                std::set<uint64_t>* out) const {
  if (epid == kNilPage) return;
  out->insert(epid - 1);
  const uint8_t* page = ReadPage(epid);
  if (IsLeaf(page)) return;
  const size_t count = CountOf(page);
  ScratchScope scope(this);
  uint64_t* children = scope.Acquire();
  memcpy(children, InnerChildren(page, count), 8 * (count + 1));
  for (size_t i = 0; i <= count; i++) CollectReachable(children[i], out);
}

void CowBTree::GarbageCollect() {
  std::set<uint64_t> reachable;
  CollectReachable(current_root_, &reachable);
  store_->RetainOnly(reachable);
}

size_t CowBTree::PageCount() const {
  std::set<uint64_t> reachable;
  CollectReachable(dirty_root_, &reachable);
  return reachable.size();
}

}  // namespace nvmdb

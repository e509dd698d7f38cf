#include "index/page_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace nvmdb {

// ---------------------------------------------------------------------------
// FlatPidSet
// ---------------------------------------------------------------------------

namespace {
inline size_t PidHash(uint64_t pid) {
  return static_cast<size_t>(pid * 0x9E3779B97F4A7C15ULL);
}
}  // namespace

void FlatPidSet::Grow() {
  std::vector<uint64_t> old;
  old.swap(slots_);
  slots_.assign(old.size() * 2, 0);
  count_ = 0;
  for (uint64_t pid : old) {
    if (pid != 0) Insert(pid);
  }
}

void FlatPidSet::Insert(uint64_t pid) {
  assert(pid != 0);
  if ((count_ + 1) * 4 >= slots_.size() * 3) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = PidHash(pid) & mask;
  while (slots_[i] != 0) {
    if (slots_[i] == pid) return;
    i = (i + 1) & mask;
  }
  slots_[i] = pid;
  count_++;
}

bool FlatPidSet::Erase(uint64_t pid) {
  const size_t mask = slots_.size() - 1;
  size_t i = PidHash(pid) & mask;
  while (slots_[i] != pid) {
    if (slots_[i] == 0) return false;
    i = (i + 1) & mask;
  }
  // Backward-shift deletion keeps probe chains intact without tombstones.
  size_t hole = i;
  for (;;) {
    slots_[hole] = 0;
    size_t j = hole;
    for (;;) {
      j = (j + 1) & mask;
      if (slots_[j] == 0) {
        count_--;
        return true;
      }
      const size_t home = PidHash(slots_[j]) & mask;
      // Move slots_[j] into the hole unless its home lies strictly inside
      // the (hole, j] probe span (cyclically) — then it is already as
      // close to home as it can be.
      const bool in_span = hole <= j ? (home > hole && home <= j)
                                     : (home > hole || home <= j);
      if (!in_span) {
        slots_[hole] = slots_[j];
        hole = j;
        break;
      }
    }
  }
}

std::vector<uint64_t> FlatPidSet::Sorted() const {
  std::vector<uint64_t> out;
  out.reserve(count_);
  for (uint64_t pid : slots_) {
    if (pid != 0) out.push_back(pid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// PmfsPageStore
// ---------------------------------------------------------------------------

PmfsPageStore::PmfsPageStore(Pmfs* fs, const std::string& file_name,
                             size_t page_size, size_t cache_pages,
                             StorageTag tag)
    : fs_(fs), page_size_(page_size), cache_capacity_(cache_pages) {
  fd_ = fs_->Open(file_name, /*create=*/true, tag);
  assert(fd_ >= 0);
  const uint64_t size = fs_->Size(fd_);
  if (size < page_size_) {
    // Fresh file: reserve the master page with a zero master record.
    std::vector<uint8_t> zero(page_size_, 0);
    fs_->Write(fd_, 0, zero.data(), page_size_);
    fs_->Fsync(fd_);
    next_pid_ = 0;
  } else {
    next_pid_ = size / page_size_ - 1;  // minus the master page
  }
}

PmfsPageStore::~PmfsPageStore() { fs_->Close(fd_); }

uint64_t PmfsPageStore::AllocPage() {
  if (!free_pids_.empty()) {
    const uint64_t pid = free_pids_.back();
    free_pids_.pop_back();
    return pid;
  }
  return next_pid_++;
}

void PmfsPageStore::LruUnlink(uint32_t idx) {
  Frame& f = frames_[idx];
  if (f.lru_prev != kNoFrame) {
    frames_[f.lru_prev].lru_next = f.lru_next;
  } else {
    lru_head_ = f.lru_next;
  }
  if (f.lru_next != kNoFrame) {
    frames_[f.lru_next].lru_prev = f.lru_prev;
  } else {
    lru_tail_ = f.lru_prev;
  }
  f.lru_prev = f.lru_next = kNoFrame;
}

void PmfsPageStore::LruPushFront(uint32_t idx) {
  Frame& f = frames_[idx];
  f.lru_prev = kNoFrame;
  f.lru_next = lru_head_;
  if (lru_head_ != kNoFrame) frames_[lru_head_].lru_prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == kNoFrame) lru_tail_ = idx;
}

void PmfsPageStore::DropFrame(uint64_t pid, uint32_t idx) {
  LruUnlink(idx);
  page_to_frame_[pid] = kNoFrame;
  free_frames_.push_back(idx);  // buffer recycled; vaddr is re-reserved
  cached_count_--;
}

void PmfsPageStore::FreePage(uint64_t pid) {
  const uint32_t idx = FrameOf(pid);
  if (idx != kNoFrame) DropFrame(pid, idx);
  free_pids_.push_back(pid);
}

void PmfsPageStore::WriteBackFrame(Frame* frame) {
  if (!frame->dirty) return;
  fs_->Write(fd_, (frame->pid + 1) * page_size_, frame->data.get(),
             page_size_);
  frame->dirty = false;
}

void PmfsPageStore::EvictIfNeeded() {
  while (cached_count_ > cache_capacity_ && lru_tail_ != kNoFrame) {
    const uint32_t victim = lru_tail_;
    WriteBackFrame(&frames_[victim]);
    DropFrame(frames_[victim].pid, victim);
  }
}

PmfsPageStore::Frame* PmfsPageStore::GetCached(uint64_t pid,
                                               bool fill_from_file) {
  uint32_t idx = FrameOf(pid);
  if (idx != kNoFrame) {
    if (lru_head_ != idx) {
      LruUnlink(idx);
      LruPushFront(idx);
    }
    return &frames_[idx];
  }
  if (!free_frames_.empty()) {
    idx = free_frames_.back();
    free_frames_.pop_back();
  } else {
    idx = static_cast<uint32_t>(frames_.size());
    frames_.emplace_back();
    frames_[idx].data = std::make_unique<uint8_t[]>(page_size_);
  }
  Frame& frame = frames_[idx];
  frame.pid = pid;
  frame.dirty = false;
  // Model the frame at a reserved address so the cache simulator sees the
  // same set indices regardless of where the heap buffer landed (ASLR).
  // One fresh reservation per fill — identical to the historical cache,
  // which never recycled modeled addresses, so the modeled access stream
  // is unchanged even though the host buffer is reused.
  frame.vaddr = fs_->device()->ReserveVirtual(page_size_);
  if (fill_from_file) {
    size_t got = 0;
    fs_->Read(fd_, (pid + 1) * page_size_, frame.data.get(), page_size_,
              &got);
    if (got < page_size_) {
      memset(frame.data.get() + got, 0, page_size_ - got);
    }
  }
  if (pid >= page_to_frame_.size()) {
    page_to_frame_.resize(std::max<size_t>(pid + 1,
                                           page_to_frame_.size() * 2),
                          kNoFrame);
  }
  page_to_frame_[pid] = idx;
  LruPushFront(idx);
  cached_count_++;
  EvictIfNeeded();
  // EvictIfNeeded never evicts the just-inserted MRU frame while capacity
  // is at least one page.
  return &frames_[idx];
}

const uint8_t* PmfsPageStore::ReadView(uint64_t pid) {
  Frame* frame = GetCached(pid, /*fill_from_file=*/true);
  // The page cache occupies NVM (used as volatile memory); its accesses
  // pass through the CPU-cache model — this is the "I/O overhead of
  // maintaining this directory reduces the number of hot tuples that can
  // reside in the CPU caches" effect of Section 5.3.
  fs_->device()->TouchVirtual(reinterpret_cast<const void*>(frame->vaddr),
                              page_size_, false);
  return frame->data.get();
}

uint8_t* PmfsPageStore::WriteView(uint64_t pid) {
  // GetCached picks the frame before it evicts, so an evicted frame's
  // buffer is recycled only by a later fill: a read view taken just
  // before stays intact.
  Frame* frame = GetCached(pid, /*fill_from_file=*/false);
  fs_->device()->TouchVirtual(reinterpret_cast<const void*>(frame->vaddr),
                              page_size_, true);
  frame->dirty = true;
  return frame->data.get();
}

void PmfsPageStore::FlushPages(const std::vector<uint64_t>& pids) {
  for (uint64_t pid : pids) {
    const uint32_t idx = FrameOf(pid);
    if (idx != kNoFrame) WriteBackFrame(&frames_[idx]);
  }
  fs_->Fsync(fd_);
}

uint64_t PmfsPageStore::ReadMaster() {
  uint64_t master = 0;
  size_t got = 0;
  fs_->Read(fd_, 0, &master, sizeof(master), &got);
  return got == sizeof(master) ? master : 0;
}

void PmfsPageStore::WriteMaster(uint64_t root_pid) {
  // The master record lives at a fixed offset in the file; the write fits
  // a single cache line so it reaches durability atomically.
  fs_->Write(fd_, 0, &root_pid, sizeof(root_pid));
  fs_->Fsync(fd_);
}

uint64_t PmfsPageStore::StorageBytes() const {
  return (next_pid_ + 1) * page_size_;
}

uint64_t PmfsPageStore::CacheBytes() const {
  return cached_count_ * (page_size_ + kFrameAccountedBytes);
}

void PmfsPageStore::RetainOnly(const std::set<uint64_t>& reachable) {
  free_pids_.clear();
  for (uint64_t pid = 0; pid < next_pid_; pid++) {
    if (reachable.count(pid) == 0) FreePage(pid);
  }
}

// ---------------------------------------------------------------------------
// NvmPageStore
// ---------------------------------------------------------------------------

NvmPageStore::NvmPageStore(PmemAllocator* allocator, const std::string& name,
                           size_t page_size, StorageTag tag)
    : allocator_(allocator),
      device_(allocator->device()),
      page_size_(page_size),
      tag_(tag) {
  const std::string root_name = name + "/master";
  master_off_ = allocator_->GetRoot(root_name);
  if (master_off_ == 0) {
    master_off_ = allocator_->Alloc(sizeof(uint64_t), StorageTag::kIndex);
    assert(master_off_ != 0);
    device_->AtomicPersistWrite64(master_off_, 0);
    allocator_->MarkPersisted(master_off_);
    allocator_->SetRoot(root_name, master_off_);
  }
}

uint64_t NvmPageStore::AllocPage() {
  const uint64_t off = allocator_->Alloc(page_size_, tag_);
  assert(off != 0);
  // Not MarkPersisted yet: an uncommitted dirty-directory page must be
  // reclaimed by allocator recovery if we crash before the commit flush.
  live_pages_.Insert(off);
  return off;
}

void NvmPageStore::FreePage(uint64_t pid) {
  live_pages_.Erase(pid);
  allocator_->Free(pid);
}

const uint8_t* NvmPageStore::ReadView(uint64_t pid) {
  const void* page = device_->PtrAt(pid);
  device_->TouchRead(page, page_size_);
  return static_cast<const uint8_t*>(page);
}

uint8_t* NvmPageStore::WriteView(uint64_t pid) {
  void* page = device_->PtrAt(pid);
  device_->TouchWrite(page, page_size_);
  return static_cast<uint8_t*>(page);
}

void NvmPageStore::FlushPages(const std::vector<uint64_t>& pids) {
  for (uint64_t pid : pids) {
    allocator_->PersistPayloadAndMark(pid, page_size_);
  }
}

uint64_t NvmPageStore::ReadMaster() {
  uint64_t master = 0;
  device_->Read(master_off_, &master, sizeof(master));
  return master;
}

void NvmPageStore::WriteMaster(uint64_t root_pid) {
  device_->AtomicPersistWrite64(master_off_, root_pid);
}

uint64_t NvmPageStore::StorageBytes() const {
  return live_pages_.size() * page_size_;
}

void NvmPageStore::RetainOnly(const std::set<uint64_t>& reachable) {
  // After restart live_pages_ is empty; adopt the committed set. Any page
  // that was live before but is no longer reachable is freed — ascending,
  // matching the old std::set iteration so the allocator's free-list
  // order (and thus every later allocation) is unchanged.
  for (uint64_t pid : live_pages_.Sorted()) {
    if (reachable.count(pid) == 0) FreePage(pid);
  }
  live_pages_ = FlatPidSet();
  for (uint64_t pid : reachable) live_pages_.Insert(pid);
}

}  // namespace nvmdb

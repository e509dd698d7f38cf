#include "nvm/pmem_allocator.h"

#include <cassert>
#include <cstring>

namespace nvmdb {

namespace {
constexpr uint64_t kRegionMagic = 0x4E564D44425F5632ULL;  // "NVMDB_V2"
constexpr uint32_t kSlotMagic = 0x534C4F54;               // "SLOT"
constexpr size_t kCatalogEntries = 256;
constexpr size_t kNameBytes = 40;
constexpr size_t kMinClass = 16;

size_t SizeClass(size_t n) {
  // Quarter-step size classes (16, 32, 48, 64, 80, 96, 112, 128, 160, ...):
  // internal fragmentation is bounded by 25%, which matters for the
  // footprint comparisons of Fig. 14 — ~1 KB tuples must not burn 2 KB
  // slots. Classes stay aligned to 16 bytes.
  if (n <= kMinClass) return kMinClass;
  size_t pow2 = kMinClass;
  while (pow2 < n) pow2 <<= 1;
  if (pow2 == n || pow2 <= 64) return pow2;
  const size_t step = pow2 / 8;
  const size_t base = pow2 / 2;
  return base + (n - base + step - 1) / step * step;
}
}  // namespace

struct PmemAllocator::SlotHeader {
  uint64_t capacity;  // payload capacity (a power-of-two size class)
  uint16_t state;
  uint16_t tag;
  uint32_t magic;
};

struct PmemAllocator::RegionHeader {
  uint64_t magic;
  uint64_t version;
  uint64_t heap_start;
  uint64_t high_water;
  struct CatalogEntry {
    char name[kNameBytes];
    uint64_t offset;
  } catalog[kCatalogEntries];
};

PmemAllocator::PmemAllocator(NvmDevice* device, bool format,
                             bool eager_state_sync)
    : device_(device), eager_state_sync_(eager_state_sync) {
  static_assert(sizeof(SlotHeader) == 16, "slot header layout");
  RegionHeader* h = header();
  if (format || h->magic != kRegionMagic) {
    Format();
  } else {
    Recover();
  }
}

PmemAllocator::RegionHeader* PmemAllocator::header() const {
  return reinterpret_cast<RegionHeader*>(device_->PtrAt(0));
}

PmemAllocator::SlotHeader* PmemAllocator::SlotAt(uint64_t slot_offset) const {
  return reinterpret_cast<SlotHeader*>(device_->PtrAt(slot_offset));
}

void PmemAllocator::PersistHeaderField(const void* field, size_t n) {
  device_->Persist(field, n);
}

void PmemAllocator::Format() {
  RegionHeader* h = header();
  memset(h, 0, sizeof(RegionHeader));
  h->magic = kRegionMagic;
  h->version = 2;
  h->heap_start = (sizeof(RegionHeader) + 4095) / 4096 * 4096;
  h->high_water = h->heap_start;
  device_->TouchWrite(h, sizeof(RegionHeader));
  device_->Persist(h, sizeof(RegionHeader));

  free_lists_.clear();
  rotate_.clear();
  memset(used_by_tag_, 0, sizeof(used_by_tag_));
  total_used_ = 0;
  device_->allocated_bytes = 0;
}

uint64_t PmemAllocator::Alloc(size_t size, StorageTag tag,
                              bool sync_header) {
  ScopedStallTag stall_tag(StallTag::kAllocator);
  if (size == 0) size = 1;
  const size_t cls = SizeClass(size);
  owner_.Check("PmemAllocator");

  uint64_t slot_off = PopFree(cls);
  SlotHeader* slot;
  if (slot_off != 0) {
    slot = SlotAt(slot_off);
    assert(slot->magic == kSlotMagic && slot->capacity >= cls);
    slot->state = static_cast<uint16_t>(SlotState::kAllocated);
    slot->tag = static_cast<uint16_t>(tag);
    device_->TouchWrite(slot, sizeof(SlotHeader));
    // Reused slot: its durable state is still kFree, which is exactly what
    // recovery should see until the owner persists the payload + state.
  } else {
    RegionHeader* h = header();
    slot_off = h->high_water;
    const uint64_t end = slot_off + sizeof(SlotHeader) + cls;
    if (end > device_->capacity()) return 0;  // out of NVM
    slot = SlotAt(slot_off);
    slot->capacity = cls;
    slot->state = static_cast<uint16_t>(SlotState::kAllocated);
    slot->tag = static_cast<uint16_t>(tag);
    slot->magic = kSlotMagic;
    device_->TouchWrite(slot, sizeof(SlotHeader));
    // A fresh header must be durable before any *later* slot persists, or
    // the recovery walk would stop short of live data; skipping is only
    // safe under the sync_header=false contract above.
    if (sync_header) device_->Persist(slot, sizeof(SlotHeader));
    // The high-water mark is volatile: recovery re-derives it by walking
    // the heap until the first slot without a durable magic, so growing
    // the heap costs exactly one sync (the header persist above).
    h->high_water = end;
    device_->TouchWrite(&h->high_water, sizeof(h->high_water));
  }

  const uint64_t cap = SlotAt(slot_off)->capacity;
  used_by_tag_[static_cast<size_t>(tag) %
               static_cast<size_t>(StorageTag::kCount)] += cap;
  total_used_ += cap;
  device_->allocated_bytes += cap;
  return slot_off + sizeof(SlotHeader);
}

void PmemAllocator::MarkPersisted(uint64_t payload_offset) {
  SlotHeader* slot = SlotAt(payload_offset - sizeof(SlotHeader));
  assert(slot->magic == kSlotMagic);
  slot->state = static_cast<uint16_t>(SlotState::kPersisted);
  device_->TouchWrite(&slot->state, sizeof(slot->state));
  device_->Persist(&slot->state, sizeof(slot->state));
}

void PmemAllocator::PersistPayloadAndMark(uint64_t payload_offset,
                                          size_t payload_len) {
  SlotHeader* slot = SlotAt(payload_offset - sizeof(SlotHeader));
  assert(slot->magic == kSlotMagic);
  slot->state = static_cast<uint16_t>(SlotState::kPersisted);
  device_->TouchWrite(&slot->state, sizeof(slot->state));
  device_->Persist(payload_offset - sizeof(SlotHeader),
                   sizeof(SlotHeader) + payload_len);
}

bool PmemAllocator::ValidPayloadOffset(uint64_t payload_offset) const {
  if (payload_offset < sizeof(SlotHeader) ||
      payload_offset % kMinClass != 0) {
    return false;
  }
  const uint64_t slot_off = payload_offset - sizeof(SlotHeader);
  if (slot_off < header()->heap_start ||
      slot_off + sizeof(SlotHeader) > device_->capacity()) {
    return false;
  }
  return SlotAt(slot_off)->magic == kSlotMagic;
}

void PmemAllocator::Free(uint64_t payload_offset) {
  ScopedStallTag stall_tag(StallTag::kAllocator);
  // A garbage pointer here is a legitimate recovery input (a torn tuple's
  // varlen offset), not a caller bug — reject it instead of asserting.
  if (!ValidPayloadOffset(payload_offset)) return;
  const uint64_t slot_off = payload_offset - sizeof(SlotHeader);
  SlotHeader* slot = SlotAt(slot_off);
  owner_.Check("PmemAllocator");
  if (slot->state == static_cast<uint16_t>(SlotState::kFree)) {
    // Already free: either the crash hit mid-way through a multi-slot free
    // and recovery is re-running it, or the allocator walk in Recover()
    // already reclaimed this slot. Pushing it again would hand the same
    // offset out twice.
    return;
  }
  const size_t tag_idx = slot->tag % static_cast<size_t>(StorageTag::kCount);
  slot->state = static_cast<uint16_t>(SlotState::kFree);
  device_->TouchWrite(&slot->state, sizeof(slot->state));
  device_->Persist(&slot->state, sizeof(slot->state));
  if (used_by_tag_[tag_idx] >= slot->capacity) {
    used_by_tag_[tag_idx] -= slot->capacity;
  }
  if (total_used_ >= slot->capacity) total_used_ -= slot->capacity;
  device_->allocated_bytes -= slot->capacity;
  PushFree(slot_off, slot->capacity);
}

size_t PmemAllocator::UsableSize(uint64_t payload_offset) const {
  const SlotHeader* slot = SlotAt(payload_offset - sizeof(SlotHeader));
  assert(slot->magic == kSlotMagic);
  return slot->capacity;
}

PmemAllocator::SlotState PmemAllocator::StateOf(
    uint64_t payload_offset) const {
  const SlotHeader* slot = SlotAt(payload_offset - sizeof(SlotHeader));
  assert(slot->magic == kSlotMagic);
  return static_cast<SlotState>(slot->state);
}

void PmemAllocator::PushFree(uint64_t slot_offset, size_t payload_size) {
  free_lists_[payload_size].push_back(slot_offset);
}

uint64_t PmemAllocator::PopFree(size_t payload_size) {
  // Best fit: smallest class that can hold the request. Within a class,
  // rotate through the entries so repeatedly-recycled sizes spread their
  // writes across different slots (wear leveling).
  auto it = free_lists_.lower_bound(payload_size);
  while (it != free_lists_.end() && it->second.empty()) ++it;
  if (it == free_lists_.end()) return 0;
  auto& list = it->second;
  size_t& rot = rotate_[it->first];
  if (rot >= list.size()) rot = 0;
  const uint64_t slot_off = list[rot];
  list[rot] = list.back();
  list.pop_back();
  if (!list.empty()) rot = (rot + 1) % list.size();
  return slot_off;
}

Status PmemAllocator::SetRoot(const std::string& name, uint64_t offset) {
  if (name.empty() || name.size() >= kNameBytes) {
    return Status::InvalidArgument("root name length");
  }
  owner_.Check("PmemAllocator");
  RegionHeader* h = header();
  RegionHeader::CatalogEntry* empty = nullptr;
  for (auto& e : h->catalog) {
    if (strncmp(e.name, name.c_str(), kNameBytes) == 0) {
      e.offset = offset;
      if (offset == 0) memset(e.name, 0, kNameBytes);
      device_->TouchWrite(&e, sizeof(e));
      device_->Persist(&e, sizeof(e));
      return Status::OK();
    }
    if (empty == nullptr && e.name[0] == '\0') empty = &e;
  }
  if (offset == 0) return Status::OK();  // clearing a non-existent binding
  if (empty == nullptr) return Status::OutOfSpace("root catalog full");
  // Write the offset first, then the name: an entry becomes visible to
  // recovery only once its name is durable.
  empty->offset = offset;
  device_->TouchWrite(&empty->offset, sizeof(empty->offset));
  device_->Persist(&empty->offset, sizeof(empty->offset));
  strncpy(empty->name, name.c_str(), kNameBytes - 1);
  device_->TouchWrite(empty->name, kNameBytes);
  device_->Persist(empty->name, kNameBytes);
  return Status::OK();
}

uint64_t PmemAllocator::GetRoot(const std::string& name) const {
  const RegionHeader* h = header();
  for (const auto& e : h->catalog) {
    if (strncmp(e.name, name.c_str(), kNameBytes) == 0) return e.offset;
  }
  return 0;
}

void PmemAllocator::Recover() {
  owner_.Check("PmemAllocator");
  free_lists_.clear();
  rotate_.clear();
  memset(used_by_tag_, 0, sizeof(used_by_tag_));
  total_used_ = 0;

  RegionHeader* h = header();
  assert(h->magic == kRegionMagic);
  uint64_t off = h->heap_start;
  // Walk until the first header that was never made durable; that is the
  // true high-water mark (headers are persisted in allocation order).
  while (off + sizeof(SlotHeader) <= device_->capacity()) {
    SlotHeader* slot = SlotAt(off);
    if (slot->magic != kSlotMagic) break;  // heap end or torn tail
    if (slot->state == static_cast<uint16_t>(SlotState::kAllocated)) {
      // Allocated but never persisted by its owner before the crash:
      // reclaim it (the paper's non-volatile-memory-leak prevention).
      slot->state = static_cast<uint16_t>(SlotState::kFree);
      device_->TouchWrite(&slot->state, sizeof(slot->state));
      device_->Persist(&slot->state, sizeof(slot->state));
    }
    if (slot->state == static_cast<uint16_t>(SlotState::kFree)) {
      PushFree(off, slot->capacity);
    } else {
      const size_t tag_idx =
          slot->tag % static_cast<size_t>(StorageTag::kCount);
      used_by_tag_[tag_idx] += slot->capacity;
      total_used_ += slot->capacity;
    }
    off += sizeof(SlotHeader) + slot->capacity;
  }
  h->high_water = off;
  device_->TouchWrite(&h->high_water, sizeof(h->high_water));
  device_->allocated_bytes = total_used_;
}

Status PmemAllocator::AuditHeap(uint64_t* live_slots) const {
  const RegionHeader* h = header();
  if (h->magic != kRegionMagic) return Status::Corruption("region magic");
  if (h->heap_start < sizeof(RegionHeader) ||
      h->heap_start > device_->capacity()) {
    return Status::Corruption("heap_start out of range");
  }
  uint64_t live = 0;
  uint64_t off = h->heap_start;
  while (off + sizeof(SlotHeader) <= device_->capacity()) {
    const SlotHeader* slot = SlotAt(off);
    if (slot->magic != kSlotMagic) break;  // clean heap end
    if (slot->state != static_cast<uint16_t>(SlotState::kFree) &&
        slot->state != static_cast<uint16_t>(SlotState::kAllocated) &&
        slot->state != static_cast<uint16_t>(SlotState::kPersisted)) {
      return Status::Corruption("slot state at offset " + std::to_string(off));
    }
    if (slot->capacity == 0 || slot->capacity % kMinClass != 0) {
      return Status::Corruption("slot capacity at offset " +
                                std::to_string(off));
    }
    const uint64_t end = off + sizeof(SlotHeader) + slot->capacity;
    if (end > device_->capacity()) {
      return Status::Corruption("slot overruns region at offset " +
                                std::to_string(off));
    }
    if (slot->state == static_cast<uint16_t>(SlotState::kPersisted)) live++;
    off = end;
  }
  if (live_slots != nullptr) *live_slots = live;
  return Status::OK();
}

AllocatorStats PmemAllocator::stats() const {
  AllocatorStats s;
  memcpy(s.used_by_tag, used_by_tag_, sizeof(used_by_tag_));
  s.total_used = total_used_;
  s.high_water = header()->high_water;
  return s;
}

uint64_t PmemAllocator::heap_start() const { return header()->heap_start; }
uint64_t PmemAllocator::high_water() const { return header()->high_water; }

}  // namespace nvmdb

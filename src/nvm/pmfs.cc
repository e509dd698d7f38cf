#include "nvm/pmfs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "nvm/sync.h"

namespace nvmdb {

namespace {
constexpr uint64_t kSuperMagic = 0x504D46535F563120ULL;  // "PMFS_V1 "
constexpr size_t kNameBytes = 64;
constexpr uint32_t kInitialExtentCap = 64;
constexpr char kSuperRootName[] = "pmfs_super";
}  // namespace

struct Pmfs::Inode {
  char name[kNameBytes];
  uint64_t size;
  uint64_t extent_table_off;  // payload offset of uint64[extent_cap]
  uint32_t extent_count;
  uint32_t extent_cap;
  uint16_t used;
  uint16_t tag;
  uint32_t pad;
};

struct Pmfs::Superblock {
  uint64_t magic;
  uint64_t num_inodes;
  // Inode table follows immediately.
};

Pmfs::Pmfs(PmemAllocator* allocator, const PmfsConfig& config)
    : allocator_(allocator), device_(allocator->device()), config_(config) {
  super_offset_ = allocator_->GetRoot(kSuperRootName);
  if (super_offset_ != 0 && super()->magic == kSuperMagic) {
    return;  // existing namespace recovered via the allocator's catalog
  }
  const size_t bytes =
      sizeof(Superblock) + config_.max_files * sizeof(Inode);
  super_offset_ = allocator_->Alloc(bytes, StorageTag::kFilesystem);
  assert(super_offset_ != 0 && "region too small for pmfs superblock");
  Superblock* sb = super();
  memset(sb, 0, bytes);
  sb->magic = kSuperMagic;
  sb->num_inodes = config_.max_files;
  device_->TouchWrite(sb, bytes);
  device_->Persist(sb, bytes);
  allocator_->MarkPersisted(super_offset_);
  allocator_->SetRoot(kSuperRootName, super_offset_);
}

Pmfs::Superblock* Pmfs::super() const {
  return reinterpret_cast<Superblock*>(device_->PtrAt(super_offset_));
}

Pmfs::Inode* Pmfs::InodeAt(size_t idx) const {
  uint8_t* base = reinterpret_cast<uint8_t*>(super()) + sizeof(Superblock);
  return reinterpret_cast<Inode*>(base) + idx;
}

uint64_t* Pmfs::ExtentTable(const Inode* inode) const {
  return reinterpret_cast<uint64_t*>(
      device_->PtrAt(inode->extent_table_off));
}

Pmfs::Fd Pmfs::Open(const std::string& name, bool create, StorageTag tag) {
  if (name.empty() || name.size() >= kNameBytes) return -1;
  owner_.Check("Pmfs");
  int found = -1, free_idx = -1;
  for (size_t i = 0; i < super()->num_inodes; i++) {
    Inode* inode = InodeAt(i);
    if (inode->used && strncmp(inode->name, name.c_str(), kNameBytes) == 0) {
      found = static_cast<int>(i);
      break;
    }
    if (!inode->used && free_idx < 0) free_idx = static_cast<int>(i);
  }
  if (found < 0) {
    if (!create || free_idx < 0) return -1;
    Inode* inode = InodeAt(free_idx);
    memset(inode, 0, sizeof(Inode));
    strncpy(inode->name, name.c_str(), kNameBytes - 1);
    inode->tag = static_cast<uint16_t>(tag);
    inode->extent_cap = kInitialExtentCap;
    inode->extent_table_off = allocator_->Alloc(
        inode->extent_cap * sizeof(uint64_t), StorageTag::kFilesystem);
    if (inode->extent_table_off == 0) return -1;
    memset(ExtentTable(inode), 0, inode->extent_cap * sizeof(uint64_t));
    device_->TouchWrite(ExtentTable(inode),
                        inode->extent_cap * sizeof(uint64_t));
    device_->Persist(ExtentTable(inode),
                     inode->extent_cap * sizeof(uint64_t));
    allocator_->MarkPersisted(inode->extent_table_off);
    // Publish the inode: contents first, then the used flag.
    device_->TouchWrite(inode, sizeof(Inode));
    device_->Persist(inode, sizeof(Inode));
    inode->used = 1;
    device_->TouchWrite(&inode->used, sizeof(inode->used));
    device_->Persist(&inode->used, sizeof(inode->used));
    found = free_idx;
  }
  const Fd fd = next_fd_++;
  handles_[fd].inode_idx = found;
  return fd;
}

void Pmfs::Close(Fd fd) {
  owner_.Check("Pmfs");
  handles_.erase(fd);
}

Status Pmfs::EnsureBlocks(Inode* inode, uint64_t end_offset) {
  const size_t bs = config_.block_size;
  const uint32_t needed =
      static_cast<uint32_t>((end_offset + bs - 1) / bs);
  if (needed <= inode->extent_count) return Status::OK();
  if (needed > kMaxExtents) return Status::OutOfSpace("file too large");

  if (needed > inode->extent_cap) {
    uint32_t new_cap = inode->extent_cap * 2;
    while (new_cap < needed) new_cap *= 2;
    const uint64_t new_off = allocator_->Alloc(new_cap * sizeof(uint64_t),
                                               StorageTag::kFilesystem);
    if (new_off == 0) return Status::OutOfSpace("extent table");
    uint64_t* new_table =
        reinterpret_cast<uint64_t*>(device_->PtrAt(new_off));
    memset(new_table, 0, new_cap * sizeof(uint64_t));
    memcpy(new_table, ExtentTable(inode),
           inode->extent_count * sizeof(uint64_t));
    device_->TouchWrite(new_table, new_cap * sizeof(uint64_t));
    device_->Persist(new_table, new_cap * sizeof(uint64_t));
    allocator_->MarkPersisted(new_off);
    const uint64_t old_off = inode->extent_table_off;
    inode->extent_table_off = new_off;
    inode->extent_cap = new_cap;
    device_->TouchWrite(inode, sizeof(Inode));
    device_->Persist(inode, sizeof(Inode));
    allocator_->Free(old_off);
  }

  uint64_t* table = ExtentTable(inode);
  StorageTag tag = static_cast<StorageTag>(inode->tag);
  for (uint32_t i = inode->extent_count; i < needed; i++) {
    const uint64_t block = allocator_->Alloc(bs, tag);
    if (block == 0) return Status::OutOfSpace("file block");
    allocator_->MarkPersisted(block);
    table[i] = block;
    device_->TouchWrite(&table[i], sizeof(uint64_t));
    device_->Persist(&table[i], sizeof(uint64_t));
  }
  inode->extent_count = needed;
  device_->TouchWrite(&inode->extent_count, sizeof(inode->extent_count));
  device_->Persist(&inode->extent_count, sizeof(inode->extent_count));
  return Status::OK();
}

Status Pmfs::Write(Fd fd, uint64_t offset, const void* buf, size_t n) {
  owner_.Check("Pmfs");
  auto it = handles_.find(fd);
  if (it == handles_.end()) return Status::InvalidArgument("bad fd");
  Handle& h = it->second;
  Inode* inode = InodeAt(h.inode_idx);

  // Kernel crossing: the cost the allocator interface avoids (Fig. 1).
  device_->ChargeExternalStall(config_.vfs_call_overhead_ns);

  Status s = EnsureBlocks(inode, offset + n);
  if (!s.ok()) return s;

  const size_t bs = config_.block_size;
  const uint8_t* src = static_cast<const uint8_t*>(buf);
  uint64_t pos = offset;
  size_t remaining = n;
  uint64_t* table = ExtentTable(inode);
  while (remaining > 0) {
    const size_t block_idx = pos / bs;
    const size_t in_block = pos % bs;
    const size_t chunk = std::min(remaining, bs - in_block);
    device_->Write(table[block_idx] + in_block, src, chunk);
    if (h.dirty_blocks.empty() || h.dirty_blocks.back() != block_idx) {
      h.dirty_blocks.push_back(block_idx);
    }
    src += chunk;
    pos += chunk;
    remaining -= chunk;
  }

  if (offset + n > inode->size) {
    inode->size = offset + n;
    device_->TouchWrite(&inode->size, sizeof(inode->size));
    h.inode_dirty = true;
  }
  return Status::OK();
}

Status Pmfs::Append(Fd fd, const void* buf, size_t n) {
  auto it = handles_.find(fd);
  if (it == handles_.end()) return Status::InvalidArgument("bad fd");
  return Write(fd, InodeAt(it->second.inode_idx)->size, buf, n);
}

Status Pmfs::Read(Fd fd, uint64_t offset, void* buf, size_t n,
                  size_t* out_n) {
  owner_.Check("Pmfs");
  auto it = handles_.find(fd);
  if (it == handles_.end()) return Status::InvalidArgument("bad fd");
  const Inode* inode = InodeAt(it->second.inode_idx);

  device_->ChargeExternalStall(config_.vfs_call_overhead_ns);

  if (offset >= inode->size) {
    *out_n = 0;
    return Status::OK();
  }
  const size_t to_read =
      std::min<uint64_t>(n, inode->size - offset);
  const size_t bs = config_.block_size;
  uint8_t* dst = static_cast<uint8_t*>(buf);
  uint64_t pos = offset;
  size_t remaining = to_read;
  const uint64_t* table = ExtentTable(inode);
  while (remaining > 0) {
    const size_t block_idx = pos / bs;
    const size_t in_block = pos % bs;
    const size_t chunk = std::min(remaining, bs - in_block);
    device_->Read(table[block_idx] + in_block, dst, chunk);
    dst += chunk;
    pos += chunk;
    remaining -= chunk;
  }
  *out_n = to_read;
  return Status::OK();
}

Status Pmfs::Fsync(Fd fd) {
  owner_.Check("Pmfs");
  auto it = handles_.find(fd);
  if (it == handles_.end()) return Status::InvalidArgument("bad fd");
  Handle& h = it->second;
  Inode* inode = InodeAt(h.inode_idx);

  device_->ChargeExternalStall(config_.fsync_overhead_ns);

  const uint64_t* table = ExtentTable(inode);
  std::sort(h.dirty_blocks.begin(), h.dirty_blocks.end());
  h.dirty_blocks.erase(
      std::unique(h.dirty_blocks.begin(), h.dirty_blocks.end()),
      h.dirty_blocks.end());
  for (size_t block_idx : h.dirty_blocks) {
    device_->Persist(table[block_idx], config_.block_size);
  }
  h.dirty_blocks.clear();
  if (h.inode_dirty) {
    device_->Persist(inode, sizeof(Inode));
    h.inode_dirty = false;
  }
  // The point where the fsync as a whole retires and callers may
  // acknowledge durability — one crash-point event.
  PmemBarrier(device_);
  return Status::OK();
}

Status Pmfs::Truncate(Fd fd, uint64_t new_size) {
  owner_.Check("Pmfs");
  auto it = handles_.find(fd);
  if (it == handles_.end()) return Status::InvalidArgument("bad fd");
  Handle& h = it->second;
  Inode* inode = InodeAt(h.inode_idx);
  if (new_size > inode->size) return Status::InvalidArgument("grow");

  const size_t bs = config_.block_size;
  const uint32_t keep =
      static_cast<uint32_t>((new_size + bs - 1) / bs);
  inode->size = new_size;
  device_->TouchWrite(&inode->size, sizeof(inode->size));
  device_->Persist(&inode->size, sizeof(inode->size));
  uint64_t* table = ExtentTable(inode);
  h.dirty_blocks.erase(
      std::remove_if(h.dirty_blocks.begin(), h.dirty_blocks.end(),
                     [keep](size_t b) { return b >= keep; }),
      h.dirty_blocks.end());
  for (uint32_t i = keep; i < inode->extent_count; i++) {
    allocator_->Free(table[i]);
    table[i] = 0;
  }
  if (keep < inode->extent_count) {
    inode->extent_count = keep;
    device_->TouchWrite(&inode->extent_count, sizeof(inode->extent_count));
    device_->Persist(&inode->extent_count, sizeof(inode->extent_count));
  }
  return Status::OK();
}

uint64_t Pmfs::Size(Fd fd) const {
  auto it = handles_.find(fd);
  if (it == handles_.end()) return 0;
  return InodeAt(it->second.inode_idx)->size;
}

Status Pmfs::Delete(const std::string& name) {
  owner_.Check("Pmfs");
  for (size_t i = 0; i < super()->num_inodes; i++) {
    Inode* inode = InodeAt(i);
    if (!inode->used ||
        strncmp(inode->name, name.c_str(), kNameBytes) != 0) {
      continue;
    }
    uint64_t* table = ExtentTable(inode);
    for (uint32_t b = 0; b < inode->extent_count; b++) {
      if (table[b] != 0) allocator_->Free(table[b]);
    }
    allocator_->Free(inode->extent_table_off);
    inode->used = 0;
    device_->TouchWrite(&inode->used, sizeof(inode->used));
    device_->Persist(&inode->used, sizeof(inode->used));
    memset(inode->name, 0, kNameBytes);
    device_->TouchWrite(inode->name, kNameBytes);
    device_->Persist(inode->name, kNameBytes);
    return Status::OK();
  }
  return Status::NotFound(name);
}

bool Pmfs::Exists(const std::string& name) const {
  for (size_t i = 0; i < super()->num_inodes; i++) {
    const Inode* inode = InodeAt(i);
    if (inode->used &&
        strncmp(inode->name, name.c_str(), kNameBytes) == 0) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> Pmfs::List() const {
  std::vector<std::string> names;
  for (size_t i = 0; i < super()->num_inodes; i++) {
    const Inode* inode = InodeAt(i);
    if (inode->used) names.emplace_back(inode->name);
  }
  return names;
}

uint64_t Pmfs::TotalBlockBytes() const {
  uint64_t total = 0;
  for (size_t i = 0; i < super()->num_inodes; i++) {
    const Inode* inode = InodeAt(i);
    if (inode->used) {
      total += static_cast<uint64_t>(inode->extent_count) *
               config_.block_size;
    }
  }
  return total;
}

uint64_t Pmfs::FileBlockBytes(const std::string& name) const {
  for (size_t i = 0; i < super()->num_inodes; i++) {
    const Inode* inode = InodeAt(i);
    if (inode->used &&
        strncmp(inode->name, name.c_str(), kNameBytes) == 0) {
      return static_cast<uint64_t>(inode->extent_count) *
             config_.block_size;
    }
  }
  return 0;
}

}  // namespace nvmdb

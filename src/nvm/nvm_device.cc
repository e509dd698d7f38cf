#include "nvm/nvm_device.h"

#include <sys/mman.h>

#include <cassert>
#include <cstdlib>

#include "nvm/crash_sim.h"

namespace nvmdb {

namespace {

/// Zero-filled region that only costs page faults for the bytes actually
/// touched. Falls back to calloc if mmap is unavailable.
void* AllocZeroed(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p != MAP_FAILED) return p;
  p = calloc(1, bytes);
  assert(p != nullptr);
  return p;
}

void FreeZeroed(void* p, size_t bytes) {
  if (p == nullptr) return;
  if (munmap(p, bytes) != 0) free(p);
}

}  // namespace

NvmLatencyConfig NvmLatencyConfig::Dram() {
  NvmLatencyConfig cfg;
  cfg.read_latency_ns = 160;
  cfg.dram_latency_ns = 160;
  cfg.write_bandwidth_gbps = 76.0;
  cfg.sync_latency_ns = 100;
  return cfg;
}

NvmLatencyConfig NvmLatencyConfig::LowNvm() {
  NvmLatencyConfig cfg;
  cfg.read_latency_ns = 320;
  cfg.dram_latency_ns = 160;
  cfg.write_bandwidth_gbps = 9.5;
  cfg.sync_latency_ns = 100;
  return cfg;
}

NvmLatencyConfig NvmLatencyConfig::HighNvm() {
  NvmLatencyConfig cfg;
  cfg.read_latency_ns = 1280;
  cfg.dram_latency_ns = 160;
  cfg.write_bandwidth_gbps = 9.5;
  cfg.sync_latency_ns = 100;
  return cfg;
}

NvmDevice::NvmDevice(size_t capacity, const NvmLatencyConfig& latency,
                     const CacheConfig& cache_cfg)
    : capacity_(capacity), latency_(latency) {
  working_ = static_cast<uint8_t*>(AllocZeroed(capacity_));
  durable_ = static_cast<uint8_t*>(AllocZeroed(capacity_));
  // The wear array lives in a lazily-zeroed mapping too instead of an
  // eagerly-constructed new[].
  line_writes_ = static_cast<uint32_t*>(
      AllocZeroed((capacity_ / 64 + 1) * sizeof(uint32_t)));

  CacheCallbacks callbacks;
  callbacks.write_back = &NvmDevice::OnWriteBack;
  callbacks.ctx = this;
  // Miss latency is charged at the access site (together with hit and
  // write-back costs), not in a fill callback, so no fill hook is needed.
  cache_ = std::make_unique<CacheSim>(cache_cfg, callbacks);
}

NvmDevice::~NvmDevice() {
  if (NvmEnv::Get() == this) NvmEnv::Set(nullptr);
  FreeZeroed(working_, capacity_);
  FreeZeroed(durable_, capacity_);
  FreeZeroed(line_writes_, (capacity_ / 64 + 1) * sizeof(uint32_t));
}

uint64_t NvmDevice::StoreCostNs() const {
  const double gbps = latency_.write_bandwidth_gbps;
  if (gbps <= 0) return 0;
  // line_size bytes at gbps GB/s.
  return static_cast<uint64_t>(static_cast<double>(cache_->line_size()) /
                               gbps);
}

void NvmDevice::OnWriteBack(void* ctx, uint64_t line_addr,
                            size_t line_size) {
  // A dirty line reaching NVM: copy working -> durable and count wear.
  // Lines outside the managed region (virtual heap addresses routed
  // through TouchVirtual) have no durable bytes but still cost a store.
  NvmDevice* const d = static_cast<NvmDevice*>(ctx);
  if (line_addr + line_size <= d->capacity_) {
    memcpy(d->durable_ + line_addr, d->working_ + line_addr, line_size);
    d->line_writes_[line_addr / 64]++;
  }
}

void NvmDevice::ChargeAccess(uint64_t addr, size_t n, bool is_write) {
  const CacheAccessResult r = cache_->AccessEx(addr, n, is_write);
  const size_t lines =
      (addr + n - 1) / cache_->line_size() - addr / cache_->line_size() + 1;
  // One accumulation covers the whole call: miss latency, hit latency, and
  // write-back bandwidth for every line the access touched.
  ChargeStall(r.missed * latency_.read_latency_ns +
              (lines - r.missed) * latency_.cache_hit_ns +
              r.write_backs * StoreCostNs());
}

void NvmDevice::TouchSegments(uint64_t addr, const uint32_t* lens,
                              size_t k, bool is_write) {
  const CacheAccessResult r = cache_->AccessSegments(addr, lens, k, is_write);
  if (r.lines == 0) return;  // every segment empty: nothing was modeled
  // Identical total to the per-call charges of the uncoalesced stream:
  // the summands are order-independent and AccessSegments reports the
  // exact visit count (boundary lines visited once per touching segment).
  ChargeStall(r.missed * latency_.read_latency_ns +
              (r.lines - r.missed) * latency_.cache_hit_ns +
              r.write_backs * StoreCostNs());
}

void NvmDevice::ReadSegments(uint64_t offset, const ReadSeg* segs,
                             size_t k) {
  assert(k <= kMaxIoSegments);
  uint32_t lens[kMaxIoSegments] = {};
  for (size_t i = 0; i < k; i++) lens[i] = segs[i].len;
  TouchSegments(offset, lens, k, /*is_write=*/false);
  for (size_t i = 0; i < k; i++) {
    assert(offset + segs[i].len <= capacity_);
    if (segs[i].len != 0) memcpy(segs[i].dst, working_ + offset, segs[i].len);
    offset += segs[i].len;
  }
}

void NvmDevice::WriteSegments(uint64_t offset, const WriteSeg* segs,
                              size_t k) {
  assert(k <= kMaxIoSegments);
  uint32_t lens[kMaxIoSegments] = {};
  for (size_t i = 0; i < k; i++) lens[i] = segs[i].len;
  TouchSegments(offset, lens, k, /*is_write=*/true);
  for (size_t i = 0; i < k; i++) {
    assert(offset + segs[i].len <= capacity_);
    if (segs[i].len != 0) memcpy(working_ + offset, segs[i].src, segs[i].len);
    offset += segs[i].len;
  }
}

void NvmDevice::Read(uint64_t offset, void* dst, size_t n) {
  assert(offset + n <= capacity_);
  // Same resident-hit fast path as Touch(): a single-line hit —
  // the overwhelmingly common shape for header/field reads — completes
  // with one inline probe and one plain add, identical accounting to the
  // out-of-line path (n == 0 must keep taking ChargeAccess, whose legacy
  // cost formula charges line coverage without probing the cache).
  if (n != 0 && cache_->OwnerHitFast(offset, n, false)) {
    ChargeStall(latency_.cache_hit_ns);
  } else {
    ChargeAccess(offset, n, /*is_write=*/false);
  }
  memcpy(dst, working_ + offset, n);
}

void NvmDevice::Write(uint64_t offset, const void* src, size_t n) {
  assert(offset + n <= capacity_);
  if (n != 0 && cache_->OwnerHitFast(offset, n, true)) {
    ChargeStall(latency_.cache_hit_ns);
  } else {
    ChargeAccess(offset, n, /*is_write=*/true);
  }
  memcpy(working_ + offset, src, n);
}

void NvmDevice::Persist(uint64_t offset, size_t n) {
  if (n == 0) return;
  assert(offset + n <= capacity_);
  // Crash-point hook: this is a durability event, and a capture must see
  // the durable image *before* the range below is mirrored into it.
  if (crash_sim_ != nullptr) crash_sim_->OnPersist(this, offset, n);
  // CLFLUSH/CLWB each covered line (counts stores for dirty cached lines),
  // then unconditionally mirror the range into the durable image so the
  // post-condition "range is durable" holds even for bytes written through
  // an uninstrumented pointer.
  const size_t flushed = FlushLines(offset, n);
  const size_t ls = cache_->line_size();
  const uint64_t first = offset / ls * ls;
  uint64_t last_end = (offset + n + ls - 1) / ls * ls;
  if (last_end > capacity_) last_end = capacity_;
  memcpy(durable_ + first, working_ + first, last_end - first);
  // Write-back bandwidth plus SFENCE + flush latency, in one accumulation.
  ChargeStall(flushed * StoreCostNs() + latency_.sync_latency_ns);
  sync_calls_++;
}

void NvmDevice::AtomicPersistWrite64(uint64_t offset, uint64_t value) {
  assert(offset % 8 == 0);
  assert(offset + 8 <= capacity_);
  if (crash_sim_ != nullptr) crash_sim_->OnAtomicPersist(this, offset, value);
  ChargeAccess(offset, 8, /*is_write=*/true);
  memcpy(working_ + offset, &value, 8);
  const size_t flushed = FlushLines(offset, 8);
  // The durable copy of an aligned 8-byte store is itself atomic: either
  // the old or the new value survives a crash, never a torn mix.
  memcpy(durable_ + offset, &value, 8);
  ChargeStall(flushed * StoreCostNs() + latency_.sync_latency_ns);
  sync_calls_++;
}

void NvmDevice::Crash() {
  // Dirty cached lines die with the caches; the working image reverts to
  // exactly what had been made durable.
  cache_->DropDirty();
  memcpy(working_, durable_, capacity_);
}

void NvmDevice::RestoreImages(const uint8_t* image, size_t n) {
  assert(n == capacity_);
  (void)n;
  cache_->DropDirty();
  memcpy(durable_, image, capacity_);
  memcpy(working_, image, capacity_);
}

void NvmDevice::FlushAll() {
  const size_t flushed = cache_->WriteBackAll();
  ChargeStall(flushed * StoreCostNs());
  memcpy(durable_, working_, capacity_);
}

NvmCounters NvmDevice::counters() const {
  NvmCounters c;
  c.loads = cache_->misses();
  c.stores = cache_->write_backs();
  c.hits = cache_->hits();
  c.stall_ns = stall_ns_;
  c.external_ns = external_ns_;
  c.sync_calls = sync_calls_;
  c.bytes_read = c.loads * cache_->line_size();
  c.bytes_written = c.stores * cache_->line_size();
  for (size_t i = 0; i < kStallTagCount; i++) c.tag_ns[i] = tag_ns_[i];
  return c;
}

void NvmDevice::ResetCounters() {
  // CacheSim counters are monotonically increasing; snapshot-deltas are the
  // caller's job for fine-grained phases, but a full reset is handy between
  // benchmark sections. We emulate reset by recording nothing here for the
  // cache (it has no reset) — instead benches take deltas. Stall and sync
  // counters do support reset.
  stall_ns_ = 0;
  sync_calls_ = 0;
  for (uint64_t& ns : tag_ns_) ns = 0;
}

WearStats NvmDevice::wear() const {
  WearStats w;
  const size_t num_lines = capacity_ / 64 + 1;
  for (size_t i = 0; i < num_lines; i++) {
    const uint32_t writes = line_writes_[i];
    if (writes == 0) continue;
    w.total_line_writes += writes;
    w.lines_touched++;
    if (writes > w.max_line_writes) w.max_line_writes = writes;
  }
  if (w.lines_touched > 0) {
    w.mean_line_writes = static_cast<double>(w.total_line_writes) /
                         static_cast<double>(w.lines_touched);
    w.hotspot_factor =
        static_cast<double>(w.max_line_writes) / w.mean_line_writes;
  }
  return w;
}

namespace {
thread_local NvmDevice* g_current_device = nullptr;
thread_local TraceWriter* g_current_trace = nullptr;
}  // namespace

NvmDevice* NvmEnv::Get() { return g_current_device; }
void NvmEnv::Set(NvmDevice* device) { g_current_device = device; }

TraceWriter* NvmEnv::Trace() { return g_current_trace; }
void NvmEnv::SetTrace(TraceWriter* trace) { g_current_trace = trace; }

}  // namespace nvmdb

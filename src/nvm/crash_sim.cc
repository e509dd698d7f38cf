#include "nvm/crash_sim.h"

#include <algorithm>
#include <cstring>

#include "common/trace.h"
#include "nvm/nvm_device.h"

namespace nvmdb {

void CrashSim::Arm(uint64_t target_event, bool tear_final_persist,
                   uint64_t tear_seed) {
  owner_.Check("CrashSim");
  target_ = target_event;
  tear_ = tear_final_persist;
  rng_state_ = tear_seed * 0x9E3779B97F4A7C15ull + 1;
  captured_ = false;
  captured_event_ = 0;
  image_.clear();
}

void CrashSim::Disarm() {
  owner_.Check("CrashSim");
  target_ = 0;
}

uint64_t CrashSim::event_count() const {
  return events_;
}

bool CrashSim::captured() const {
  return captured_;
}

uint64_t CrashSim::captured_event() const {
  return captured_event_;
}

bool CrashSim::Coin() {
  // xorshift64*: deterministic per-line tearing from the armed seed.
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  return (rng_state_ * 0x2545F4914F6CDD1Dull) >> 63;
}

void CrashSim::OnPersist(NvmDevice* device, uint64_t offset, size_t n) {
  Event(device, offset, n, /*atomic=*/false, 0);
}

void CrashSim::OnAtomicPersist(NvmDevice* device, uint64_t offset,
                               uint64_t value) {
  Event(device, offset, 8, /*atomic=*/true, value);
}

void CrashSim::OnBarrier(NvmDevice* device) {
  Event(device, 0, 0, /*atomic=*/false, 0);
}

void CrashSim::Event(NvmDevice* device, uint64_t offset, size_t n,
                     bool atomic, uint64_t value) {
  owner_.Check("CrashSim");
  events_++;
  if (target_ != 0 && !captured_ && events_ == target_) {
    Capture(device, offset, n, atomic, value);
  }
}

void CrashSim::Capture(NvmDevice* device, uint64_t offset, size_t n,
                       bool atomic, uint64_t value) {
  // The durable image as of "just before this event retires": prior
  // persists plus natural dirty-line evictions, never cached-only data.
  const uint8_t* durable = device->durable_image();
  image_.assign(durable, durable + device->capacity());
  if (tear_ && n > 0) {
    if (atomic) {
      // An aligned 8-byte atomic persist lands whole or not at all.
      if (Coin()) memcpy(image_.data() + offset, &value, 8);
    } else {
      // Tear the in-flight persist: each covered line independently
      // reaches NVM or dies in the cache, modeling reordered partial
      // line flushes within one sync primitive.
      const uint64_t ls = device->cache_line_size();
      const uint64_t first = offset / ls * ls;
      const uint64_t end =
          std::min<uint64_t>(device->capacity(),
                             (offset + n + ls - 1) / ls * ls);
      for (uint64_t a = first; a < end; a += ls) {
        if (Coin()) {
          const size_t len =
              static_cast<size_t>(std::min<uint64_t>(ls, end - a));
          memcpy(image_.data() + a, device->working_image() + a, len);
        }
      }
    }
  }
  captured_ = true;
  captured_event_ = events_;
  if (TraceWriter* trace = NvmEnv::Trace()) {
    trace->Instant("crash_capture", "crash", device->TotalStallNanos(), 0);
  }
  if (on_capture_) on_capture_();
}

}  // namespace nvmdb

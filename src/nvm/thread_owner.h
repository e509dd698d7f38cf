#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

/// Debug-build owner checks: a thread-confined component records the first
/// thread that mutates it and aborts on a mutation from any other thread,
/// making silent cross-thread use of its unsynchronized state impossible.
/// Compiled out under NDEBUG (hot paths must stay branch-free in release
/// builds); define NVMDB_FORCE_OWNER_CHECKS to keep them in an optimized
/// build (the sanitizer CI job does).
#if !defined(NDEBUG) || defined(NVMDB_FORCE_OWNER_CHECKS)
#define NVMDB_OWNER_CHECKS 1
#else
#define NVMDB_OWNER_CHECKS 0
#endif

namespace nvmdb {

/// The owner-thread assertion shared by CacheSim, PmemAllocator, Pmfs and
/// CrashSim. Mutating entry points call Check(); read-only getters don't,
/// so post-join aggregation from a parent thread (sequentially safe) stays
/// legal. An empty object whose Check() is a no-op when checks are off.
class ThreadOwner {
 public:
  /// `what` names the component in the abort message.
  void Check(const char* what) {
#if NVMDB_OWNER_CHECKS
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (owner_.load(std::memory_order_relaxed) == self) return;
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return;  // first caller becomes the owner
    }
    std::fprintf(stderr,
                 "%s owner-thread violation: instance accessed from a "
                 "second thread; it (and the NvmDevice or Database around "
                 "it) must be driven by one thread only\n",
                 what);
    std::abort();
#else
    (void)what;
#endif
  }

#if NVMDB_OWNER_CHECKS
 private:
  /// First thread that called Check(); default-constructed id until then.
  /// Atomic so the check itself is race-free even while it detects a race.
  std::atomic<std::thread::id> owner_{};
#endif
};

}  // namespace nvmdb

#include "util/pin.hpp"

#include <atomic>

#include "util/log.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace montage::util {

int cpu_count() {
#if defined(__linux__)
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
#else
  return 1;
#endif
}

bool pin_thread(int tid) {
#if defined(__linux__)
  const int ncpu = cpu_count();
  if (ncpu <= 1) {
    // Nothing to pin to; avoid needless syscalls. Say so once, structured,
    // instead of silently degrading to the unpinned round-robin layout.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      log::warn("pin_fallback")
          .field("reason", "single_cpu")
          .field("cpus", static_cast<uint64_t>(ncpu));
    }
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(tid % ncpu, &set);
  const bool ok =
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
  if (!ok) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      log::warn("pin_fallback")
          .field("reason", "setaffinity_failed")
          .field("cpus", static_cast<uint64_t>(ncpu));
    }
  }
  return ok;
#else
  (void)tid;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    log::warn("pin_fallback").field("reason", "unsupported");
  }
  return false;
#endif
}

}  // namespace montage::util

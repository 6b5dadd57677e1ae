// Mindicator (Liu, Luchangco & Spear, ICDCS'13): a tree that tracks the
// minimum of per-thread values with O(log n) update cost. Montage uses one to
// track, per thread, the oldest epoch for which unpersisted payloads still
// exist; sync() consults the root to decide whether any helping is needed.
//
// This implementation favours simplicity: leaf stores are atomic and updates
// recompute ancestors bottom-up. Concurrent updates can leave interior nodes
// momentarily stale-low (never stale-high is NOT guaranteed either), so the
// root is a fast-path hint; exact decisions re-check per-thread state under
// that thread's lock. In quiescence the root is exact, which the tests
// verify.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "util/padded.hpp"
#include "util/telemetry.hpp"

namespace montage {

class Mindicator {
 public:
  static constexpr uint64_t kIdle = ~0ull;

  explicit Mindicator(int nleaves) {
    leaves_ = 1;
    while (leaves_ < nleaves) leaves_ *= 2;
    nodes_ = std::make_unique<std::atomic<uint64_t>[]>(2 * leaves_);
    for (int i = 0; i < 2 * leaves_; ++i) {
      nodes_[i].store(kIdle, std::memory_order_relaxed);
    }
    parked_ = std::make_unique<std::atomic<bool>[]>(leaves_);
    for (int i = 0; i < leaves_; ++i) {
      parked_[i].store(false, std::memory_order_relaxed);
    }
  }

  /// Set leaf `i` to `v` (kIdle = this thread has nothing unpersisted).
  /// Ignored while the leaf is parked: an evicted orphan that wakes up with
  /// a stale view cannot re-pin the minimum.
  void set(int i, uint64_t v) {
    telemetry::count(telemetry::Ctr::kMindicatorUpdates);
    if (parked_[i].load(std::memory_order_acquire)) return;
    propagate(i, v);
    // A park that raced in between the check and the store wrote kIdle
    // first; rewrite it so the stale value never survives the eviction.
    if (v != kIdle && parked_[i].load(std::memory_order_acquire)) {
      propagate(i, kIdle);
    }
  }

  /// Park leaf `i` (orphan eviction): the leaf reports kIdle and rejects
  /// set() until unpark(). Used when the epoch advancer adopts a failed
  /// thread — its unpersisted work is now the adopter's responsibility, so
  /// the dead thread must stop holding the minimum down.
  void park(int i) {
    telemetry::count(telemetry::Ctr::kMindicatorParks);
    parked_[i].store(true, std::memory_order_release);
    propagate(i, kIdle);
  }

  /// Re-admit leaf `i` (a presumed-dead thread came back and re-registered).
  void unpark(int i) { parked_[i].store(false, std::memory_order_release); }

  bool parked(int i) const {
    return parked_[i].load(std::memory_order_acquire);
  }

  uint64_t get(int i) const {
    return nodes_[leaves_ + i].load(std::memory_order_acquire);
  }

  /// Minimum across all leaves (kIdle when every leaf is idle).
  uint64_t min() const { return nodes_[1].load(std::memory_order_acquire); }

  int capacity() const { return leaves_; }

 private:
  void propagate(int i, uint64_t v) {
    int node = leaves_ + i;
    nodes_[node].store(v, std::memory_order_release);
    node /= 2;
    while (node >= 1) {
      const uint64_t l = nodes_[2 * node].load(std::memory_order_acquire);
      const uint64_t r = nodes_[2 * node + 1].load(std::memory_order_acquire);
      const uint64_t m = l < r ? l : r;
      nodes_[node].store(m, std::memory_order_release);
      node /= 2;
    }
  }

  int leaves_;
  std::unique_ptr<std::atomic<uint64_t>[]> nodes_;
  std::unique_ptr<std::atomic<bool>[]> parked_;
};

}  // namespace montage

// Tests for the mindicator (min-tracking tree).
#include "montage/mindicator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "util/rand.hpp"

using montage::Mindicator;

namespace {

TEST(Mindicator, EmptyIsIdle) {
  Mindicator m(8);
  EXPECT_EQ(m.min(), Mindicator::kIdle);
}

TEST(Mindicator, SingleLeaf) {
  Mindicator m(8);
  m.set(3, 42);
  EXPECT_EQ(m.min(), 42u);
  EXPECT_EQ(m.get(3), 42u);
  m.set(3, Mindicator::kIdle);
  EXPECT_EQ(m.min(), Mindicator::kIdle);
}

TEST(Mindicator, MinOfSeveralLeaves) {
  Mindicator m(16);
  m.set(0, 10);
  m.set(7, 5);
  m.set(15, 20);
  EXPECT_EQ(m.min(), 5u);
  m.set(7, Mindicator::kIdle);
  EXPECT_EQ(m.min(), 10u);
  m.set(0, 30);
  EXPECT_EQ(m.min(), 20u);
}

TEST(Mindicator, CapacityRoundsUpToPowerOfTwo) {
  Mindicator m(5);
  EXPECT_EQ(m.capacity(), 8);
  m.set(4, 1);  // leaf beyond requested but within capacity
  EXPECT_EQ(m.min(), 1u);
}

TEST(Mindicator, QuiescentExactnessAfterConcurrentChurn) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  Mindicator m(kThreads);
  std::vector<uint64_t> final_vals(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      montage::util::Xorshift128Plus rng(t + 1);
      uint64_t v = 0;
      for (int i = 0; i < kRounds; ++i) {
        v = rng.next_bounded(1000);
        m.set(t, v);
      }
      final_vals[t] = v;
    });
  }
  for (auto& th : ts) th.join();
  // Re-propagate each leaf once: in quiescence the root must be exact.
  for (int t = 0; t < kThreads; ++t) m.set(t, final_vals[t]);
  EXPECT_EQ(m.min(), *std::min_element(final_vals.begin(), final_vals.end()));
}

TEST(Mindicator, ParkedLeafReportsIdleAndIgnoresSet) {
  Mindicator m(8);
  m.set(2, 5);
  ASSERT_EQ(m.min(), 5u);
  m.park(2);
  EXPECT_TRUE(m.parked(2));
  EXPECT_EQ(m.min(), Mindicator::kIdle);  // eviction lifts the minimum
  m.set(2, 3);                            // a stale orphan wakes up...
  EXPECT_EQ(m.min(), Mindicator::kIdle);  // ...and cannot re-pin it
  m.unpark(2);
  EXPECT_FALSE(m.parked(2));
  m.set(2, 7);  // re-registered thread participates again
  EXPECT_EQ(m.min(), 7u);
}

TEST(Mindicator, ParkDuringConcurrentSetNeverResurrectsStaleValue) {
  // Race a permanently-stalled thread's last set() against its eviction:
  // whichever order the stores land in, the parked leaf must end up idle.
  for (int round = 0; round < 500; ++round) {
    Mindicator m(4);
    std::thread setter([&] {
      for (int i = 0; i < 8; ++i) m.set(0, 42);
    });
    m.park(0);
    setter.join();
    // The leaf itself must never retain the stale 42: set() re-fixes after
    // observing a racing park. Interior nodes may lag until the next
    // propagation (documented), so heal them with an idempotent re-park
    // before checking the root.
    EXPECT_EQ(m.get(0), Mindicator::kIdle)
        << "stale leaf value survived round " << round;
    m.park(0);
    EXPECT_EQ(m.min(), Mindicator::kIdle) << "stale root survived round "
                                          << round;
  }
}

TEST(Mindicator, OrphanEvictionUnderConcurrentChurn) {
  // Leaves 1..3 churn while leaf 0 — the "orphan" — is parked mid-churn.
  // After quiescence the root reflects only the live leaves.
  constexpr int kThreads = 3;
  constexpr int kRounds = 2000;
  Mindicator m(4);
  std::vector<uint64_t> final_vals(kThreads);
  std::vector<std::thread> ts;
  std::thread orphan([&] {
    for (int i = 0; i < kRounds; ++i) m.set(0, 1);  // pins min at 1 until parked
  });
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      montage::util::Xorshift128Plus rng(t + 1);
      uint64_t v = 0;
      for (int i = 0; i < kRounds; ++i) {
        v = 100 + rng.next_bounded(1000);  // always above the orphan's 1
        m.set(t + 1, v);
      }
      final_vals[t] = v;
    });
  }
  m.park(0);
  orphan.join();
  for (auto& th : ts) th.join();
  for (int t = 0; t < kThreads; ++t) m.set(t + 1, final_vals[t]);
  EXPECT_EQ(m.min(),
            *std::min_element(final_vals.begin(), final_vals.end()));
  EXPECT_TRUE(m.parked(0));
}

}  // namespace

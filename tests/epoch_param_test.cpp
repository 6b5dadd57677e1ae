// Parameterized property tests: the buffered-durable-linearizability
// guarantee must hold across the whole configuration space — write-back
// buffer sizes, write-back policies, reclamation placement — and at
// arbitrary crash points.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <sstream>
#include <thread>

#include "montage/recoverable.hpp"
#include "tests/test_env.hpp"
#include "util/rand.hpp"
#include "util/timing.hpp"

namespace montage {
namespace {

using testing::PersistentEnv;

struct KvPayload : public PBlk {
  GENERATE_FIELD(uint64_t, key, KvPayload);
  GENERATE_FIELD(uint64_t, val, KvPayload);
};

struct ParamCase {
  std::size_t buffer_capacity;
  WriteBack write_back;
  bool local_free;
  bool coalesce = true;

  friend std::ostream& operator<<(std::ostream& os, const ParamCase& p) {
    os << "buf" << p.buffer_capacity << "_wb"
       << static_cast<int>(p.write_back) << (p.local_free ? "_localfree" : "")
       << (p.coalesce ? "" : "_nocoalesce");
    return os;
  }
};

class EpochParamTest : public ::testing::TestWithParam<ParamCase> {
 protected:
  EpochSys::Options options() const {
    EpochSys::Options o;
    o.start_advancer = false;
    o.buffer_capacity = GetParam().buffer_capacity;
    o.write_back = GetParam().write_back;
    o.local_free = GetParam().local_free;
    o.coalesce = GetParam().coalesce;
    return o;
  }
};

/// The model: a map of key -> (payload pointer, value), updated alongside
/// Montage ops; after sync + crash, recovery must reproduce the model.
TEST_P(EpochParamTest, SyncedStateSurvivesCrash) {
  PersistentEnv env(64 << 20, options());
  EpochSys* es = env.esys();
  std::map<uint64_t, KvPayload*> live;
  std::map<uint64_t, uint64_t> model;
  util::Xorshift128Plus rng(GetParam().buffer_capacity + 1);

  for (int i = 0; i < 400; ++i) {
    const uint64_t k = rng.next_bounded(60);
    es->begin_op();
    auto it = live.find(k);
    switch (rng.next_bounded(3)) {
      case 0:  // put (insert or update)
        if (it == live.end()) {
          auto* p = es->pnew<KvPayload>();
          p->set_key(k);
          p->set_val(i);
          live[k] = p;
        } else {
          live[k] = it->second->set_val(i);
        }
        model[k] = i;
        break;
      case 1:  // remove
        if (it != live.end()) {
          es->pdelete(it->second);
          live.erase(it);
          model.erase(k);
        }
        break;
      default:  // read
        if (it != live.end()) {
          EXPECT_EQ(it->second->get_val(), model[k]);
        }
    }
    es->end_op();
    if (i % 97 == 0) es->advance_epoch();
  }
  es->sync();
  // Unsynced churn that must vanish:
  es->begin_op();
  auto* junk = es->pnew<KvPayload>();
  junk->set_key(9999);
  es->end_op();

  auto survivors = env.crash_and_recover(2);
  std::map<uint64_t, uint64_t> recovered;
  for (PBlk* b : survivors) {
    auto* p = static_cast<KvPayload*>(b);
    EXPECT_TRUE(
        recovered.emplace(p->get_unsafe_key(), p->get_unsafe_val()).second);
  }
  EXPECT_EQ(recovered, model);
}

/// Crash WITHOUT sync at an arbitrary point: the recovered state must be a
/// consistent prefix — here checked as "every recovered (key,val) pair was
/// the live pair at some single earlier moment", using versioned values.
TEST_P(EpochParamTest, UnsyncedCrashRecoversAPrefix) {
  PersistentEnv env(64 << 20, options());
  EpochSys* es = env.esys();
  // Single key, monotonically increasing value: any consistent prefix is
  // characterized by one number.
  es->begin_op();
  KvPayload* p = es->pnew<KvPayload>();
  p->set_key(1);
  p->set_val(0);
  es->end_op();
  std::vector<uint64_t> history{0};
  util::Xorshift128Plus rng(99);
  for (uint64_t v = 1; v <= 50; ++v) {
    es->begin_op();
    p = p->set_val(v);
    es->end_op();
    history.push_back(v);
    if (rng.next_bounded(4) == 0) es->advance_epoch();
  }
  auto survivors = env.crash_and_recover();
  ASSERT_LE(survivors.size(), 1u);
  if (!survivors.empty()) {
    auto* q = static_cast<KvPayload*>(survivors[0]);
    EXPECT_EQ(q->get_unsafe_key(), 1u);
    // The recovered value is SOME value from the history (a prefix point),
    // not an invented one.
    const uint64_t v = q->get_unsafe_val();
    EXPECT_LE(v, 50u);
  }
}

/// Post-recovery, the system must keep full functionality under the same
/// configuration (fresh epochs, uids, reclamation).
TEST_P(EpochParamTest, SystemRemainsUsableAfterRecovery) {
  PersistentEnv env(64 << 20, options());
  EpochSys* es = env.esys();
  es->begin_op();
  auto* p = es->pnew<KvPayload>();
  p->set_key(1);
  p->set_val(1);
  es->end_op();
  es->sync();
  env.crash_and_recover(1, options());
  es = env.esys();
  for (int round = 0; round < 3; ++round) {
    es->begin_op();
    auto* q = es->pnew<KvPayload>();
    q->set_key(100 + round);
    q->set_val(round);
    es->end_op();
    es->advance_epoch();
  }
  es->sync();
  auto survivors = env.crash_and_recover(1, options());
  EXPECT_EQ(survivors.size(), 4u);  // original + 3 rounds
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EpochParamTest,
    ::testing::Values(ParamCase{2, WriteBack::kBuffered, false},
                      ParamCase{16, WriteBack::kBuffered, false},
                      ParamCase{64, WriteBack::kBuffered, false},
                      ParamCase{256, WriteBack::kBuffered, false},
                      ParamCase{0, WriteBack::kBuffered, false},  // unbounded
                      ParamCase{64, WriteBack::kPerOp, false},
                      ParamCase{64, WriteBack::kImmediate, false},
                      ParamCase{64, WriteBack::kBuffered, true},
                      ParamCase{2, WriteBack::kBuffered, true},
                      // The MONTAGE_WB_COALESCE=0 fallback path must hold
                      // the same guarantees across all write-back modes.
                      ParamCase{64, WriteBack::kBuffered, false, false},
                      ParamCase{64, WriteBack::kPerOp, false, false},
                      ParamCase{64, WriteBack::kImmediate, false, false},
                      ParamCase{2, WriteBack::kBuffered, true, false}),
    [](const ::testing::TestParamInfo<ParamCase>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

/// Random-crash-point fuzz: run a random mix with random manual epoch
/// advances, crash at a random op index, and check uid-level consistency
/// (no duplicate keys, no resurrections of removed-then-synced keys).
class CrashFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashFuzzTest, RecoveredSetIsDuplicateFreeAndPlausible) {
  EpochSys::Options o;
  o.start_advancer = false;
  o.buffer_capacity = 8;
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();
  util::Xorshift128Plus rng(GetParam() * 7919 + 13);
  std::map<uint64_t, KvPayload*> live;
  std::set<uint64_t> ever;
  const int crash_at = 50 + static_cast<int>(rng.next_bounded(300));
  for (int i = 0; i < crash_at; ++i) {
    const uint64_t k = rng.next_bounded(40);
    es->begin_op();
    auto it = live.find(k);
    if (it == live.end()) {
      auto* p = es->pnew<KvPayload>();
      p->set_key(k);
      p->set_val(i);
      live[k] = p;
      ever.insert(k);
    } else if (rng.next_bounded(2) == 0) {
      live[k] = it->second->set_val(i);
    } else {
      es->pdelete(it->second);
      live.erase(it);
    }
    es->end_op();
    if (rng.next_bounded(20) == 0) es->advance_epoch();
    if (rng.next_bounded(50) == 0) es->sync();
  }
  auto survivors = env.crash_and_recover(2);
  std::set<uint64_t> keys;
  for (PBlk* b : survivors) {
    auto* p = static_cast<KvPayload*>(b);
    EXPECT_TRUE(keys.insert(p->get_unsafe_key()).second)
        << "duplicate key " << p->get_unsafe_key() << " after recovery";
    EXPECT_TRUE(ever.contains(p->get_unsafe_key()))
        << "resurrected a key that never existed";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashFuzzTest, ::testing::Range(0, 12));

/// Regression (DESIGN.md §12): every cooperative advance refreshes the
/// staleness timestamp the watchdog reads, so a HEALTHY cooperative-only
/// configuration — advancer dead, workers pacing the clock themselves —
/// must never cross the alarm threshold. Before the fix, only the
/// background advancer's ticks refreshed the timestamp and a
/// cooperative-only run alarmed spuriously on every watchdog_ns window.
TEST(CooperativeWatchdog, HealthyCooperativePacingNeverAlarms) {
  EpochSys::Options o;
  o.epoch_length_ns = 1'000'000;  // 1 ms pace
  o.watchdog_ns = 8'000'000;      // alarm after 8 ms without any tick
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();
  telemetry::reset_metrics();

  es->inject_advancer_kill();
  while (es->advancer_alive()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t c0 = es->current_epoch();

  // ~80 ms of healthy traffic: ten full watchdog windows. Each begin_op
  // runs watchdog_poke; the pacing branch keeps the clock (and with it the
  // staleness timestamp) fresh, so the alarm path must never fire.
  const uint64_t end = util::now_ns() + 80'000'000ull;
  while (util::now_ns() < end) {
    es->begin_op();
    auto* p = es->pnew<KvPayload>();
    p->set_key(1);
    p->set_val(2);
    es->pdelete(p);
    es->end_op();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  EXPECT_GE(es->current_epoch(), c0 + 3) << "cooperative pacing stalled";
  EXPECT_FALSE(es->advancer_alive()) << "something restarted the advancer";
  if (telemetry::kEnabled) {
    uint64_t alarms = 0, coop = 0;
    for (const auto& c : telemetry::counters_snapshot()) {
      if (std::string(c.name) == "epoch.watchdog_alarms") alarms = c.value;
      if (std::string(c.name) == "epoch.cooperative_advances") coop = c.value;
    }
    EXPECT_EQ(alarms, 0u) << "healthy cooperative config alarmed";
    EXPECT_GE(coop, 3u);
  }
  EXPECT_TRUE(es->sync_for(5'000'000'000ull));
}

/// epoch.cooperative_advances counts only ticks a worker drove because the
/// pacer was stale; the advances sync() drives for its own durability are
/// epoch.sync_advances. With a live advancer on a long epoch, every sync
/// must tick the clock itself, and none of those ticks is cooperative.
TEST(CooperativeWatchdog, SyncAdvancesAreNotCooperative) {
  if (!telemetry::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  EpochSys::Options o;
  o.epoch_length_ns = 1'000'000'000;  // the advancer stays live but idle
  PersistentEnv env(64 << 20, o);
  EpochSys* es = env.esys();
  ASSERT_TRUE(es->advancer_alive());
  telemetry::reset_metrics();

  for (uint64_t i = 0; i < 50; ++i) {
    es->begin_op();
    auto* p = es->pnew<KvPayload>();
    p->set_key(i);
    es->end_op();
    es->sync();
  }

  EXPECT_TRUE(es->advancer_alive());
  uint64_t coop = 0, sync_adv = 0;
  for (const auto& c : telemetry::counters_snapshot()) {
    if (std::string(c.name) == "epoch.cooperative_advances") coop = c.value;
    if (std::string(c.name) == "epoch.sync_advances") sync_adv = c.value;
  }
  EXPECT_EQ(coop, 0u) << "sync-driven advances counted as cooperative";
  EXPECT_GT(sync_adv, 0u);
}

}  // namespace
}  // namespace montage

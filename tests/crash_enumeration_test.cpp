// Systematic crash-state enumeration (ALICE-style): run a deterministic
// three-structure workload once to count persistence events, then replay it
// crashing at EVERY persist/fence event index and prove that recovery always
// lands on a prefix-consistent model state at the reported cutoff epoch.
// A second sweep arms crash points inside recovery's own persist events and
// proves recovery is idempotent under re-crash. Corruption injection proves
// a bit-flipped durable header is quarantined and reported, never fatal.
//
// Everything here is single-threaded with the background advancer off and
// explicit epoch ticks, so a run's epochs and uids are identical between
// replays — that determinism is what makes whole-sweep comparison sound.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ds/montage_hashmap.hpp"
#include "ds/montage_queue.hpp"
#include "ds/montage_stack.hpp"
#include "tests/test_env.hpp"

namespace montage {
namespace {

using testing::PersistentEnv;

constexpr std::size_t kRegionSize = 8ull << 20;
constexpr int kOps = 60;
constexpr int kKeySpace = 8;

EpochSys::Options no_advancer() {
  EpochSys::Options o;
  o.start_advancer = false;
  return o;
}

struct Structures {
  ds::MontageHashMap<uint64_t, uint64_t> map;
  ds::MontageQueue<uint64_t> queue;
  ds::MontageStack<uint64_t> stack;
  explicit Structures(EpochSys* es) : map(es, 16), queue(es), stack(es) {}
};

/// In-DRAM model of the abstract state the three structures should hold.
struct Model {
  std::map<uint64_t, uint64_t> map;
  std::deque<uint64_t> queue;
  std::vector<uint64_t> stack;
};

/// Apply workload step `i` to the model (mirrors run_step below).
void model_step(Model& m, int i) {
  switch (i % 3) {
    case 0: {
      const uint64_t k = static_cast<uint64_t>(i / 3 % kKeySpace);
      if (i % 9 == 6) {
        m.map.erase(k);
      } else {
        m.map[k] = static_cast<uint64_t>(i);
      }
      break;
    }
    case 1:
      if (i % 6 == 1) {
        m.queue.push_back(static_cast<uint64_t>(i));
      } else if (!m.queue.empty()) {
        m.queue.pop_front();
      }
      break;
    default:
      if (i % 6 == 2) {
        m.stack.push_back(static_cast<uint64_t>(i));
      } else if (!m.stack.empty()) {
        m.stack.pop_back();
      }
      break;
  }
}

/// Apply workload step `i` to the live structures (the epoch ticks that give
/// the sweep its epoch diversity run separately, after the step's epoch has
/// been recorded).
void run_step(Structures& s, int i) {
  switch (i % 3) {
    case 0: {
      const uint64_t k = static_cast<uint64_t>(i / 3 % kKeySpace);
      if (i % 9 == 6) {
        s.map.remove(k);
      } else {
        s.map.put(k, static_cast<uint64_t>(i));
      }
      break;
    }
    case 1:
      if (i % 6 == 1) {
        s.queue.enqueue(static_cast<uint64_t>(i));
      } else {
        s.queue.dequeue();
      }
      break;
    default:
      if (i % 6 == 2) {
        s.stack.push(static_cast<uint64_t>(i));
      } else {
        s.stack.pop();
      }
      break;
  }
}

/// Run the workload until it crashes (or completes), recording the epoch each
/// step ran in. A step crashed mid-operation keeps its recorded epoch: that
/// epoch always exceeds the recovery cutoff (the durable clock cannot pass
/// the epoch of an announced operation), so the model never replays it.
/// Never throws.
std::vector<uint64_t> run_workload(Structures& s, EpochSys* es) {
  std::vector<uint64_t> step_epochs;
  try {
    for (int i = 0; i < kOps; ++i) {
      step_epochs.push_back(es->current_epoch());
      run_step(s, i);
      if (i % 7 == 6) es->advance_epoch();
      if (i % 20 == 19) es->sync();
    }
  } catch (const nvm::CrashPointException&) {
    // The stack's explicit begin/end pairs do not unwind through a holder,
    // so clean up the announced-op state by hand; the other structures'
    // AUTOEND holders have already aborted themselves.
    es->abort_op();
  }
  return step_epochs;
}

/// Assert the recovered structures equal the model after replaying exactly
/// the completed steps whose epoch is <= the recovery cutoff.
/// `overlay_map`/`overlay_epoch` describe map puts issued AFTER the
/// workload, all in one epoch: buffered durability makes them atomic as a
/// group — durable iff overlay_epoch <= cutoff — so the model applies them
/// exactly when the cutoff says so.
void check_prefix_consistent(PersistentEnv& env,
                             const std::vector<PBlk*>& survivors,
                             const std::vector<uint64_t>& step_epochs,
                             uint64_t context, uint64_t overlay_epoch = 0,
                             const std::map<uint64_t, uint64_t>* overlay_map =
                                 nullptr) {
  const RecoveryReport& rep = env.esys()->last_recovery_report();
  EXPECT_EQ(rep.recovered, survivors.size());
  // Single-threaded epochs are nondecreasing, so "epoch <= cutoff" selects a
  // prefix of the completed steps — the buffered-durability guarantee.
  Model m;
  for (std::size_t i = 0; i < step_epochs.size(); ++i) {
    if (i > 0) {
      ASSERT_GE(step_epochs[i], step_epochs[i - 1]);
    }
    if (step_epochs[i] <= rep.cutoff_epoch) model_step(m, static_cast<int>(i));
  }
  if (overlay_map != nullptr && overlay_epoch <= rep.cutoff_epoch) {
    for (const auto& [k, v] : *overlay_map) m.map[k] = v;
  }

  Structures rebuilt(env.esys());
  rebuilt.map.recover(survivors, rep);
  rebuilt.queue.recover(survivors, rep);
  rebuilt.stack.recover(survivors, rep);

  EXPECT_EQ(rebuilt.map.size(), m.map.size()) << "at " << context;
  for (const auto& [k, v] : m.map) {
    auto got = rebuilt.map.get(k);
    ASSERT_TRUE(got.has_value()) << "key " << k << " at " << context;
    EXPECT_EQ(*got, v) << "key " << k << " at " << context;
  }
  for (uint64_t want : m.queue) {
    auto got = rebuilt.queue.dequeue();
    ASSERT_TRUE(got.has_value()) << "at " << context;
    EXPECT_EQ(*got, want) << "at " << context;
  }
  EXPECT_FALSE(rebuilt.queue.dequeue().has_value()) << "at " << context;
  for (auto it = m.stack.rbegin(); it != m.stack.rend(); ++it) {
    auto got = rebuilt.stack.pop();
    ASSERT_TRUE(got.has_value()) << "at " << context;
    EXPECT_EQ(*got, *it) << "at " << context;
  }
  EXPECT_FALSE(rebuilt.stack.pop().has_value()) << "at " << context;
}

TEST(CrashSchedule, EventCounterAndArming) {
  nvm::RegionOptions ropts;
  ropts.size = 1 << 20;
  ropts.mode = nvm::PersistMode::kTracked;
  nvm::Region r(ropts);
  char* a = r.arena_begin();
  EXPECT_EQ(r.persistence_events(), 0u);
  r.persist(a, 8);  // event 1
  r.fence();        // event 2
  EXPECT_EQ(r.persistence_events(), 2u);
  r.crash_at_event(4);
  r.persist(a, 8);  // event 3
  EXPECT_THROW(r.persist(a, 8), nvm::CrashPointException);  // event 4 fires
  // Power stays off for the whole process: later persistence attempts — from
  // any thread — throw without counting, so a straggler cannot commit
  // durability between the armed event and the crash image being taken.
  EXPECT_THROW(r.fence(), nvm::CrashPointException);
  EXPECT_THROW(r.persist(a, 8), nvm::CrashPointException);
  EXPECT_EQ(r.persistence_events(), 4u);
  // Disarming alone does not restore power; taking the crash image does.
  r.clear_crash_schedule();
  EXPECT_THROW(r.persist(a, 8), nvm::CrashPointException);
  r.simulate_crash();
  EXPECT_NO_THROW(r.fence());  // event 5: recovery's events count normally
  EXPECT_EQ(r.persistence_events(), 5u);
  EXPECT_NO_THROW(r.persist(a, 8));
}

TEST(CrashSchedule, EnvKnobArmsSchedule) {
  ::setenv("MONTAGE_CRASH_AT", "2", 1);
  nvm::RegionOptions ropts;
  ropts.size = 1 << 20;
  ropts.mode = nvm::PersistMode::kTracked;
  nvm::Region r(ropts);
  ::unsetenv("MONTAGE_CRASH_AT");
  char* a = r.arena_begin();
  r.persist(a, 8);
  EXPECT_THROW(r.fence(), nvm::CrashPointException);
}

TEST(CrashEnumeration, SweepEveryPersistenceEvent) {
  // Pass 1: count the events a complete run issues.
  uint64_t total_events;
  {
    PersistentEnv env(kRegionSize, no_advancer());
    Structures s(env.esys());
    auto epochs = run_workload(s, env.esys());
    ASSERT_EQ(epochs.size(), static_cast<std::size_t>(kOps));
    total_events = env.region()->persistence_events();
  }
  ASSERT_GT(total_events, 0u);

  // Pass 2: one full replay per event index, crashing exactly there.
  for (uint64_t n = 1; n <= total_events; ++n) {
    PersistentEnv env(kRegionSize, no_advancer());
    env.region()->crash_at_event(n);
    Structures s(env.esys());
    auto step_epochs = run_workload(s, env.esys());
    env.region()->clear_crash_schedule();
    std::vector<PBlk*> survivors;
    ASSERT_NO_THROW(survivors = env.crash_and_recover(1, no_advancer()))
        << "recovery aborted for crash point " << n;
    check_prefix_consistent(env, survivors, step_epochs, n);
  }
}

TEST(CrashEnumeration, SweepInsideCooperativeAdvance) {
  // The cooperative advance (DESIGN.md §12) runs helper write-backs and
  // reclamation before committing the tick with a CAS and only then
  // persisting the clock. Crash at EVERY event inside one advance — helper
  // mid-writeback, reclamation invalidations, and the window where the CAS
  // has published the tick in DRAM but the clock persist has not landed —
  // and prove recovery is prefix-consistent and idempotent at each point.
  //
  // Pass 1: measure the event window of one trailing advance.
  uint64_t before, after;
  {
    PersistentEnv env(kRegionSize, no_advancer());
    Structures s(env.esys());
    run_workload(s, env.esys());
    before = env.region()->persistence_events();
    env.esys()->advance_epoch();
    after = env.region()->persistence_events();
  }
  ASSERT_GT(after, before) << "an advance issued no persistence events";

  // Pass 2: one replay per in-advance event index.
  for (uint64_t n = before + 1; n <= after; ++n) {
    PersistentEnv env(kRegionSize, no_advancer());
    env.region()->crash_at_event(n);
    Structures s(env.esys());
    auto step_epochs = run_workload(s, env.esys());
    try {
      env.esys()->advance_epoch();
    } catch (const nvm::CrashPointException&) {
      // Crashed inside the advance, as armed.
    }
    env.region()->clear_crash_schedule();
    std::vector<PBlk*> survivors;
    ASSERT_NO_THROW(survivors = env.crash_and_recover(1, no_advancer()))
        << "recovery aborted for in-advance crash point " << n;
    check_prefix_consistent(env, survivors, step_epochs, n);

    // Idempotence: crashing again right after recovery (no new operations)
    // must land on the identical survivor set.
    std::multiset<uint64_t> uids1;
    for (PBlk* b : survivors) uids1.insert(b->blk_uid());
    std::vector<PBlk*> survivors2;
    ASSERT_NO_THROW(survivors2 = env.crash_and_recover(1, no_advancer()))
        << "re-recovery aborted for in-advance crash point " << n;
    std::multiset<uint64_t> uids2;
    for (PBlk* b : survivors2) uids2.insert(b->blk_uid());
    EXPECT_EQ(uids2, uids1)
        << "recovery not idempotent at in-advance crash point " << n;
  }
}

TEST(CrashEnumeration, SweepInsideCoalescedBoundaryDrain) {
  // The coalesced boundary drain (DESIGN.md §13) seals every pending
  // payload of the closing epoch, then flushes each distinct dirty cache
  // line exactly once — and every line flush is its OWN persistence event,
  // so this sweep lands between any two line flushes of one drain. Fatten
  // the final ring with payloads written twice in one epoch (registration
  // dedup) before a trailing advance, and prove recovery is
  // prefix-consistent and idempotent at every in-drain event.
  ASSERT_TRUE(no_advancer().coalesce) << "coalescing must default ON";

  // Post-workload fattening, all in one epoch: the first put of each key
  // clones (the node's epoch predates the workload's trailing sync), the
  // second hits the in-place path and dedups in the ring, so the drained
  // ring holds dedup'd re-writes spanning many distinct lines.
  std::map<uint64_t, uint64_t> overlay;
  for (uint64_t k = 0; k < kKeySpace; ++k) overlay[k] = 2000 + k;
  auto fatten = [](Structures& s) {
    for (uint64_t k = 0; k < kKeySpace; ++k) s.map.put(k, 1000 + k);
    for (uint64_t k = 0; k < kKeySpace; ++k) s.map.put(k, 2000 + k);
  };

  // Pass 1: measure the event window of the advance that drains the
  // fattened ring (the first advance positions the clock so the second
  // one's boundary drain covers the fattening epoch).
  uint64_t before, after, fat_epoch;
  {
    PersistentEnv env(kRegionSize, no_advancer());
    Structures s(env.esys());
    run_workload(s, env.esys());
    telemetry::reset_metrics();
    fat_epoch = env.esys()->current_epoch();
    fatten(s);
    if (telemetry::kEnabled) {
      uint64_t hits = 0;
      for (const auto& c : telemetry::counters_snapshot()) {
        if (std::string(c.name) == "epoch.writebacks_dedup_hits") {
          hits = c.value;
        }
      }
      EXPECT_GE(hits, static_cast<uint64_t>(kKeySpace))
          << "second puts in one epoch must dedup in the ring";
    }
    env.esys()->advance_epoch();
    before = env.region()->persistence_events();
    env.esys()->advance_epoch();
    after = env.region()->persistence_events();
  }
  // The fat drain flushes several distinct lines (one event each) plus the
  // clock persist and fences — a window wide enough to sweep inside.
  ASSERT_GT(after, before + 4) << "coalesced drain issued too few events";

  // Pass 2: one replay per in-drain event index.
  for (uint64_t n = before + 1; n <= after; ++n) {
    PersistentEnv env(kRegionSize, no_advancer());
    env.region()->crash_at_event(n);
    Structures s(env.esys());
    auto step_epochs = run_workload(s, env.esys());
    try {
      fatten(s);
      env.esys()->advance_epoch();
      env.esys()->advance_epoch();
    } catch (const nvm::CrashPointException&) {
      // Crashed inside the drain, as armed.
    }
    env.region()->clear_crash_schedule();
    std::vector<PBlk*> survivors;
    ASSERT_NO_THROW(survivors = env.crash_and_recover(1, no_advancer()))
        << "recovery aborted for in-drain crash point " << n;
    check_prefix_consistent(env, survivors, step_epochs, n, fat_epoch,
                            &overlay);

    // Idempotence: crashing again right after recovery (no new operations)
    // must land on the identical survivor set.
    std::multiset<uint64_t> uids1;
    for (PBlk* b : survivors) uids1.insert(b->blk_uid());
    std::vector<PBlk*> survivors2;
    ASSERT_NO_THROW(survivors2 = env.crash_and_recover(1, no_advancer()))
        << "re-recovery aborted for in-drain crash point " << n;
    std::multiset<uint64_t> uids2;
    for (PBlk* b : survivors2) uids2.insert(b->blk_uid());
    EXPECT_EQ(uids2, uids1)
        << "recovery not idempotent at in-drain crash point " << n;
  }
}

TEST(CrashEnumeration, CrashDuringRecoveryIsIdempotent) {
  // Crash mid-workload at a fixed point, then sweep a second crash across
  // every persistence event RECOVERY itself issues. The rerun after the
  // nested crash must classify identically — same survivor uids, same
  // prefix-consistent state — because the durable clock (and therefore the
  // cutoff) is only published as recovery's final event.
  const auto crash_points = {uint64_t{40}, uint64_t{90}};
  for (uint64_t n : crash_points) {
    // Reference run: crash at n, recover undisturbed.
    std::multiset<uint64_t> ref_uids;
    uint64_t recovery_events;
    {
      PersistentEnv env(kRegionSize, no_advancer());
      env.region()->crash_at_event(n);
      Structures s(env.esys());
      run_workload(s, env.esys());
      const uint64_t before = env.region()->persistence_events();
      auto survivors = env.crash_and_recover(1, no_advancer());
      recovery_events = env.region()->persistence_events() - before;
      for (PBlk* b : survivors) ref_uids.insert(b->blk_uid());
    }
    ASSERT_GT(recovery_events, 0u);

    for (uint64_t j = 1; j <= recovery_events; ++j) {
      PersistentEnv env(kRegionSize, no_advancer());
      env.region()->crash_at_event(n);
      Structures s(env.esys());
      auto step_epochs = run_workload(s, env.esys());
      // Arm the nested crash at the j-th event recovery will issue.
      env.region()->crash_at_event(env.region()->persistence_events() + j);
      bool crashed_in_recovery = false;
      std::vector<PBlk*> survivors;
      try {
        survivors = env.crash_and_recover(1, no_advancer());
      } catch (const nvm::CrashPointException&) {
        crashed_in_recovery = true;
      }
      if (crashed_in_recovery) {
        env.region()->clear_crash_schedule();
        ASSERT_NO_THROW(survivors = env.crash_and_recover(1, no_advancer()))
            << "second recovery aborted (crash " << n << ", event +" << j
            << ")";
      }
      std::multiset<uint64_t> uids;
      for (PBlk* b : survivors) uids.insert(b->blk_uid());
      EXPECT_EQ(uids, ref_uids)
          << "survivor set changed (crash " << n << ", event +" << j << ")";
      check_prefix_consistent(env, survivors, step_epochs, n * 1000 + j);
    }
  }
}

TEST(CrashEnumeration, BitFlippedHeaderIsQuarantinedNotFatal) {
  PersistentEnv env(kRegionSize, no_advancer());
  EpochSys* es = env.esys();
  struct P : public PBlk {
    GENERATE_FIELD(uint64_t, val, P);
  };
  std::vector<P*> blocks;
  es->begin_op();
  for (int i = 0; i < 8; ++i) {
    P* p = es->pnew<P>();
    p->set_val(static_cast<uint64_t>(i));
    blocks.push_back(p);
  }
  es->end_op();
  es->sync();  // everything durable, headers sealed

  // Media corruption after the fence: flip one bit inside a durable header
  // (offset 8 is inside the epoch label) and make the damage durable too.
  char* raw = reinterpret_cast<char*>(blocks[3]);
  raw[8] ^= 0x04;
  env.region()->persist(raw, sizeof(PBlk));
  env.region()->fence();

  std::vector<PBlk*> survivors;
  ASSERT_NO_THROW(survivors = env.crash_and_recover(1, no_advancer()));
  const RecoveryReport& rep = env.esys()->last_recovery_report();
  EXPECT_EQ(rep.quarantined_corrupt, 1u);
  EXPECT_EQ(rep.recovered, 7u);
  EXPECT_EQ(survivors.size(), 7u);
  std::set<uint64_t> vals;
  for (PBlk* b : survivors) vals.insert(static_cast<P*>(b)->get_unsafe_val());
  EXPECT_FALSE(vals.contains(3u));
  for (uint64_t v : {0u, 1u, 2u, 4u, 5u, 6u, 7u}) EXPECT_TRUE(vals.contains(v));
}

TEST(CrashEnumeration, RecoveryReportCountsLateEpochDiscards) {
  // Immediate write-back: every payload header reaches NVM sealed right
  // away, so the second op's block survives the crash as a well-formed
  // header whose epoch is inside the rollback window.
  EpochSys::Options o = no_advancer();
  o.write_back = WriteBack::kImmediate;
  PersistentEnv env(kRegionSize, o);
  EpochSys* es = env.esys();
  struct P : public PBlk {
    GENERATE_FIELD(uint64_t, val, P);
  };
  es->begin_op();
  es->pnew<P>()->set_val(1);
  es->end_op();
  es->sync();  // clock moves two epochs: op 1 is now below the cutoff
  es->begin_op();
  es->pnew<P>()->set_val(2);
  es->end_op();  // durable header, but epoch inside the rollback window
  auto survivors = env.crash_and_recover(1, no_advancer());
  const RecoveryReport& rep = env.esys()->last_recovery_report();
  EXPECT_EQ(rep.recovered, 1u);
  EXPECT_EQ(rep.discarded_late_epoch, 1u);
  EXPECT_EQ(rep.quarantined_corrupt, 0u);
  EXPECT_EQ(rep.cutoff_epoch, rep.crash_epoch - 2);
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(static_cast<P*>(survivors[0])->get_unsafe_val(), 1u);
}

}  // namespace
}  // namespace montage

// Unit tests for the utility layer: InlineStr, PRNG, zipfian generator,
// env parsing, barrier, padding, thread-id pool, hazard pointers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <thread>

#include "server/config.hpp"
#include "util/barrier.hpp"
#include "util/env.hpp"
#include "util/hazard.hpp"
#include "util/inline_str.hpp"
#include "util/padded.hpp"
#include "util/rand.hpp"
#include "util/threadid.hpp"
#include "util/timing.hpp"
#include "util/zipf.hpp"

namespace montage::util {
namespace {

// ---- InlineStr ---------------------------------------------------------------

TEST(InlineStr, DefaultIsEmpty) {
  InlineStr<32> s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_STREQ(s.c_str(), "");
}

TEST(InlineStr, RoundTrips) {
  InlineStr<32> s("hello");
  EXPECT_EQ(s.str(), "hello");
  EXPECT_EQ(s.view(), "hello");
  EXPECT_EQ(s.size(), 5u);
}

TEST(InlineStr, TruncatesAtCapacity) {
  InlineStr<8> s("abcdefghij");  // capacity 7
  EXPECT_EQ(s.size(), 7u);
  EXPECT_EQ(s.str(), "abcdefg");
  EXPECT_EQ(InlineStr<8>::capacity(), 7u);
}

TEST(InlineStr, ComparisonOperators) {
  InlineStr<16> a("apple"), b("banana"), a2("apple");
  EXPECT_TRUE(a == a2);
  EXPECT_TRUE(a != b);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_FALSE(a < a2);
}

TEST(InlineStr, HashMatchesEquality) {
  InlineStr<16> a("same"), b("same"), c("diff");
  std::hash<InlineStr<16>> h;
  EXPECT_EQ(h(a), h(b));
  // Different strings *usually* hash differently (not guaranteed, but for
  // these fixed values it must hold with std::hash<string_view>).
  EXPECT_NE(h(a), h(c));
}

TEST(InlineStr, TriviallyCopyable) {
  static_assert(std::is_trivially_copyable_v<InlineStr<64>>);
  InlineStr<64> a("payload-safe");
  InlineStr<64> b;
  std::memcpy(&b, &a, sizeof(a));
  EXPECT_EQ(b.str(), "payload-safe");
}

// ---- PRNG ---------------------------------------------------------------------

TEST(Xorshift, DeterministicPerSeed) {
  Xorshift128Plus a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  Xorshift128Plus a2(7);
  EXPECT_NE(a2.next(), c.next());
}

TEST(Xorshift, BoundedStaysInBounds) {
  Xorshift128Plus r(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_bounded(17), 17u);
  }
}

TEST(Xorshift, DoubleInUnitInterval) {
  Xorshift128Plus r(2);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xorshift, RoughUniformity) {
  Xorshift128Plus r(3);
  int buckets[10] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) buckets[r.next_bounded(10)]++;
  for (int b : buckets) {
    EXPECT_GT(b, kDraws / 10 * 0.9);
    EXPECT_LT(b, kDraws / 10 * 1.1);
  }
}

// ---- Zipfian -------------------------------------------------------------------

TEST(Zipf, StaysInRange) {
  ZipfianGenerator z(1000, 0.99, 5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(z.next(), 1000u);
    EXPECT_LT(z.next_scrambled(), 1000u);
  }
}

TEST(Zipf, RankZeroIsHottest) {
  ZipfianGenerator z(10000, 0.99, 6);
  std::map<uint64_t, int> freq;
  for (int i = 0; i < 50000; ++i) freq[z.next()]++;
  int max_freq = 0;
  uint64_t max_key = 0;
  for (auto& [k, n] : freq) {
    if (n > max_freq) {
      max_freq = n;
      max_key = k;
    }
  }
  EXPECT_EQ(max_key, 0u);
  EXPECT_GT(max_freq, 50000 / 20);  // far above uniform (5 per key)
}

TEST(Zipf, ScrambledSpreadsHotKeys) {
  ZipfianGenerator z(10000, 0.99, 7);
  std::map<uint64_t, int> freq;
  for (int i = 0; i < 20000; ++i) freq[z.next_scrambled()]++;
  // The hottest scrambled key is NOT key 0 with overwhelming likelihood.
  int zero_freq = freq.count(0) ? freq[0] : 0;
  int max_freq = 0;
  for (auto& [k, n] : freq) max_freq = std::max(max_freq, n);
  EXPECT_GT(max_freq, 500);       // skew preserved...
  EXPECT_NE(max_freq, zero_freq);  // ...but relocated
}

// ---- env -----------------------------------------------------------------------

TEST(Env, FallbacksAndParsing) {
  ::unsetenv("MONTAGE_TEST_ENV_X");
  EXPECT_EQ(env_u64("MONTAGE_TEST_ENV_X", 42), 42u);
  EXPECT_DOUBLE_EQ(env_double("MONTAGE_TEST_ENV_X", 1.5), 1.5);
  EXPECT_EQ(env_str("MONTAGE_TEST_ENV_X", "d"), "d");
  ::setenv("MONTAGE_TEST_ENV_X", "123", 1);
  EXPECT_EQ(env_u64("MONTAGE_TEST_ENV_X", 42), 123u);
  ::setenv("MONTAGE_TEST_ENV_X", "2.75", 1);
  EXPECT_DOUBLE_EQ(env_double("MONTAGE_TEST_ENV_X", 1.5), 2.75);
  ::setenv("MONTAGE_TEST_ENV_X", "", 1);
  EXPECT_EQ(env_u64("MONTAGE_TEST_ENV_X", 9), 9u);  // empty = unset
  ::unsetenv("MONTAGE_TEST_ENV_X");
}

TEST(Env, CheckedAcceptsPlainDecimal) {
  ::unsetenv("MONTAGE_TEST_ENV_X");
  EXPECT_EQ(env_u64_checked("MONTAGE_TEST_ENV_X", 42), 42u);
  ::setenv("MONTAGE_TEST_ENV_X", "", 1);
  EXPECT_EQ(env_u64_checked("MONTAGE_TEST_ENV_X", 7), 7u);  // empty = unset
  ::setenv("MONTAGE_TEST_ENV_X", "0", 1);
  EXPECT_EQ(env_u64_checked("MONTAGE_TEST_ENV_X", 7), 0u);
  ::setenv("MONTAGE_TEST_ENV_X", "123456789", 1);
  EXPECT_EQ(env_u64_checked("MONTAGE_TEST_ENV_X", 7), 123456789u);
  ::setenv("MONTAGE_TEST_ENV_X", "18446744073709551615", 1);  // UINT64_MAX
  EXPECT_EQ(env_u64_checked("MONTAGE_TEST_ENV_X", 7), UINT64_MAX);
  ::unsetenv("MONTAGE_TEST_ENV_X");
}

TEST(Env, CheckedRejectsGarbageInsteadOfReadingZero) {
  // A fault-injection knob silently parsed as 0 would disarm the injection;
  // the strict parser must throw instead.
  for (const char* bad : {"12abc", "abc", "-5", "+5", " 12", "12 ", "0x10",
                          "1.5", "99999999999999999999999"}) {
    ::setenv("MONTAGE_TEST_ENV_X", bad, 1);
    EXPECT_THROW(env_u64_checked("MONTAGE_TEST_ENV_X", 0),
                 std::invalid_argument)
        << "accepted garbage value '" << bad << "'";
  }
  ::unsetenv("MONTAGE_TEST_ENV_X");
}

// ---- barrier -------------------------------------------------------------------

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr int kThreads = 4, kPhases = 50;
  SpinBarrier bar(kThreads);
  std::atomic<int> phase_counts[kPhases] = {};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        phase_counts[p].fetch_add(1);
        bar.arrive_and_wait();
        // All arrivals of phase p happened before anyone passes.
        EXPECT_EQ(phase_counts[p].load(), kThreads);
        bar.arrive_and_wait();
      }
    });
  }
  for (auto& th : ts) th.join();
}

// ---- padded --------------------------------------------------------------------

TEST(Padded, CacheLineAlignedAndSized) {
  static_assert(alignof(Padded<int>) == kCacheLineSize);
  static_assert(sizeof(Padded<int>) % kCacheLineSize == 0);
  static_assert(sizeof(Padded<char[100]>) % kCacheLineSize == 0);
  Padded<int> p(7);
  EXPECT_EQ(*p, 7);
  *p = 9;
  EXPECT_EQ(p.value, 9);
}

// ---- thread ids ----------------------------------------------------------------

TEST(ThreadIdPool, StableWithinThreadDistinctAcross) {
  const int mine = thread_id();
  EXPECT_EQ(thread_id(), mine);
  int other = -1;
  std::thread t([&] { other = thread_id(); });
  t.join();
  EXPECT_NE(other, mine);
}

TEST(ThreadIdPool, IdsAreReusedAfterExit) {
  int first = -1;
  std::thread a([&] { first = thread_id(); });
  a.join();
  int second = -1;
  std::thread b([&] { second = thread_id(); });
  b.join();
  EXPECT_EQ(first, second);  // the exited thread's id was recycled
}

TEST(ThreadIdPool, LiveThreadsNeverAlias) {
  constexpr int kThreads = 16;
  std::set<int> ids;
  std::mutex m;
  SpinBarrier bar(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      const int id = thread_id();
      bar.arrive_and_wait();  // all alive simultaneously
      std::lock_guard lk(m);
      EXPECT_TRUE(ids.insert(id).second);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads));
}

// ---- hazard pointers -------------------------------------------------------------

TEST(Hazard, ProtectedNodeIsNotFreed) {
  auto& hd = HazardDomain::global();
  std::atomic<int> freed{0};
  int* obj = new int(5);
  hd.protect(0, obj);
  hd.retire(obj, [&](void* p) {
    ++freed;
    delete static_cast<int*>(p);
  });
  hd.flush();
  EXPECT_EQ(freed.load(), 0);  // still protected
  hd.clear(0);
  hd.flush();
  EXPECT_EQ(freed.load(), 1);
}

TEST(Hazard, UnprotectedNodesFreeOnFlush) {
  auto& hd = HazardDomain::global();
  std::atomic<int> freed{0};
  for (int i = 0; i < 10; ++i) {
    hd.retire(new int(i), [&](void* p) {
      ++freed;
      delete static_cast<int*>(p);
    });
  }
  hd.flush();
  EXPECT_EQ(freed.load(), 10);
}

TEST(Hazard, CrossThreadProtection) {
  auto& hd = HazardDomain::global();
  std::atomic<int> freed{0};
  int* obj = new int(1);
  std::atomic<bool> protected_flag{false}, done{false};
  std::thread reader([&] {
    hd.protect(0, obj);
    protected_flag.store(true);
    while (!done.load()) std::this_thread::yield();
    hd.clear_all();
  });
  while (!protected_flag.load()) std::this_thread::yield();
  hd.retire(obj, [&](void* p) {
    ++freed;
    delete static_cast<int*>(p);
  });
  hd.flush();
  EXPECT_EQ(freed.load(), 0);
  done.store(true);
  reader.join();
  hd.flush();
  EXPECT_EQ(freed.load(), 1);
}

// ---- timing --------------------------------------------------------------------

TEST(Timing, StopwatchMeasuresElapsed) {
  Stopwatch sw;
  spin_for_ns(2'000'000);  // 2 ms
  EXPECT_GE(sw.elapsed_ns(), 1'500'000u);
  sw.reset();
  EXPECT_LT(sw.elapsed_ns(), 1'000'000u);
}

// ---- server config -------------------------------------------------------------

namespace {

/// RAII: set a MONTAGE_SERVER_* variable for one test, restore on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

}  // namespace

TEST(ServerConfig, DefaultsWhenUnset) {
  for (const char* v :
       {"MONTAGE_SERVER_PORT", "MONTAGE_SERVER_THREADS", "MONTAGE_SERVER_IDLE_MS",
        "MONTAGE_SERVER_STALL_MS", "MONTAGE_SERVER_MAX_CONNS",
        "MONTAGE_SERVER_MAX_INFLIGHT", "MONTAGE_SERVER_WRITE_BUF",
        "MONTAGE_SERVER_SYNC_US", "MONTAGE_SERVER_DRAIN_MS",
        "MONTAGE_SERVER_HELP_US", "MONTAGE_SERVER_SYNCER_WEDGE"}) {
    ::unsetenv(v);
  }
  const auto c = server::ServerConfig::from_env();
  EXPECT_EQ(c.port, 11211);
  EXPECT_EQ(c.workers, 4u);
  EXPECT_EQ(c.max_conns, 1024u);
  EXPECT_EQ(c.sync_interval_us, 500u);
  EXPECT_EQ(c.help_threshold_us, 0u);  // 0 = derive 8x sync_interval_us
  EXPECT_FALSE(c.syncer_wedge);
  EXPECT_EQ(c.drain_deadline_ms, 5000u);
  // The admin plane and slow-op capture default OFF: no unrequested listener,
  // no unrequested log traffic.
  EXPECT_FALSE(c.admin_enabled);
  EXPECT_EQ(c.admin_port, 0);
  EXPECT_EQ(c.slow_op_ns, 0u);
}

TEST(ServerConfig, AdminPortPresenceIsTheEnableSwitch) {
  ::unsetenv("MONTAGE_SERVER_ADMIN_PORT");
  EXPECT_FALSE(server::ServerConfig::from_env().admin_enabled);
  {
    ScopedEnv e("MONTAGE_SERVER_ADMIN_PORT", "0");  // 0 = kernel-chosen port
    const auto c = server::ServerConfig::from_env();
    EXPECT_TRUE(c.admin_enabled);
    EXPECT_EQ(c.admin_port, 0);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_ADMIN_PORT", "9901");
    const auto c = server::ServerConfig::from_env();
    EXPECT_TRUE(c.admin_enabled);
    EXPECT_EQ(c.admin_port, 9901);
  }
  {
    // Empty string counts as unset, not as port 0 (a likely quoting slip in
    // a service file should not silently open a listener).
    ScopedEnv e("MONTAGE_SERVER_ADMIN_PORT", "");
    EXPECT_FALSE(server::ServerConfig::from_env().admin_enabled);
  }
}

TEST(ServerConfig, SlowOpThresholdParses) {
  ScopedEnv e("MONTAGE_SERVER_SLOW_OP_NS", "2500000");
  EXPECT_EQ(server::ServerConfig::from_env().slow_op_ns, 2'500'000u);
}

TEST(ServerConfig, ParsesOverrides) {
  ScopedEnv p("MONTAGE_SERVER_PORT", "0");
  ScopedEnv t("MONTAGE_SERVER_THREADS", "2");
  ScopedEnv i("MONTAGE_SERVER_MAX_INFLIGHT", "0");
  ScopedEnv s("MONTAGE_SERVER_STALL_MS", "250");
  ScopedEnv h("MONTAGE_SERVER_HELP_US", "3000");
  ScopedEnv w("MONTAGE_SERVER_SYNCER_WEDGE", "1");
  const auto c = server::ServerConfig::from_env();
  EXPECT_EQ(c.port, 0);
  EXPECT_EQ(c.workers, 2u);
  EXPECT_EQ(c.max_inflight, 0u);  // 0 = unbounded is a valid setting
  EXPECT_EQ(c.stall_timeout_ms, 250u);
  EXPECT_EQ(c.help_threshold_us, 3000u);
  EXPECT_TRUE(c.syncer_wedge);
}

TEST(ServerConfig, RejectsMalformedInsteadOfDefaulting) {
  // The PR-2 MONTAGE_STALL_* rule: garbage must abort startup, not silently
  // run with a value the operator never chose.
  {
    ScopedEnv e("MONTAGE_SERVER_PORT", "eleven");
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_PORT", "70000");  // not a TCP port
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_THREADS", "0");
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_THREADS", "-3");
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_MAX_CONNS", "0");
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_WRITE_BUF", "100");  // one response can't fit
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_SYNC_US", "0");
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_DRAIN_MS", "5s");
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_HELP_US", "soon");
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_SYNCER_WEDGE", "2");  // strictly 0 or 1
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_ADMIN_PORT", "70000");  // not a TCP port
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_ADMIN_PORT", "metrics");
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
  {
    ScopedEnv e("MONTAGE_SERVER_SLOW_OP_NS", "slowish");
    EXPECT_THROW(server::ServerConfig::from_env(), std::invalid_argument);
  }
}

}  // namespace
}  // namespace montage::util

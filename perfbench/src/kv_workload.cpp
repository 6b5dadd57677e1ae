// kv-ycsba-1k: kvstore::MontageMemCache under YCSB-A (50/50 get/set,
// zipfian theta 0.99) with 1000-byte values, two worker threads.
#include <atomic>
#include <mutex>
#include <thread>

#include "checker.hpp"
#include "inproc.hpp"
#include "kvstore/memcache.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Cache = montage::kvstore::MontageMemCache;
using montage::kvstore::CacheKey;
using montage::kvstore::CacheValue;

struct KvWorkload {
  static constexpr const char* kName = "kv-ycsba-1k";
  static constexpr std::size_t kRegionBytes = 768ull << 20;
  static constexpr uint64_t kKeys = 100'000;
  static constexpr int kThreads = 2;
  static constexpr std::size_t kShards = 1024;

  // Per-key versions, shared with the parent so they survive the kill. A set
  // publishes `issued` before it starts and `completed` once it returned.
  struct Shared {
    std::atomic<uint64_t> issued[kKeys];
    std::atomic<uint64_t> completed[kKeys];
    uint64_t synced[kKeys];  ///< `completed` as it stood before the last sync()
  };

  KvWorkload(const Args& a, Shared* sh)
      : sh_(sh), seed_(a.seed), seconds_(a.seconds) {}

  void build(montage::EpochSys* esys) {
    cache_ = std::make_unique<Cache>(esys, kShards, kKeys);
  }

  void preload() {
    for (uint64_t k = 0; k < kKeys; ++k) {
      sh_->issued[k].store(1, std::memory_order_relaxed);
      set(k, CacheValue(make_value(k, 1)));
      sh_->completed[k].store(1, std::memory_order_relaxed);
    }
  }

  struct Worker {
    explicit Worker(WindowSeries s) : ws(std::move(s)) {}
    WindowSeries ws;
    SliceTotals st;
    Result res;
    uint64_t ops = 0, sets = 0;
    Tracer::Thread* tt = nullptr;
  };

  void window(Result& r, Tracer* tracer, WindowInfo& wi) {
    const uint64_t start = now_ns();
    std::vector<Worker> w(kThreads, Worker(WindowSeries(start, seconds_)));
    uint32_t names[3] = {0, 0, 0};
    if (tracer != nullptr) {
      names[0] = tracer->name_id("bench.op");
      names[1] = tracer->name_id("kv.set");
      names[2] = tracer->name_id("kv.get");
      for (auto& x : w) x.tt = tracer->thread();
    }
    std::vector<Zipf> zipfs;
    for (int i = 0; i < kThreads; ++i) zipfs.emplace_back(kKeys, 0.99, seed_ * 7 + i);
    const uint64_t deadline = start + static_cast<uint64_t>(seconds_ * 1e9);
    std::vector<std::thread> th;
    for (int i = 0; i < kThreads; ++i) {
      th.emplace_back([&, i] {
        pin_self({i});
        run_ops(w[i], zipfs[i], seed_ * 7 + i + 100, start, deadline, names);
      });
    }
    for (auto& t : th) t.join();
    const uint64_t end = now_ns();
    WindowSeries& ws = w[0].ws;
    for (int i = 1; i < kThreads; ++i) ws.merge(w[i].ws);
    SliceTotals st;
    for (auto& x : w) {
      st.add(x.st);
      wi.ops += x.ops;
      wi.user_bytes += x.sets * (11 + kValueBytes);
      r.failed += x.res.failed;
      r.correct = r.correct && x.res.correct;
      for (const auto& n : x.res.notes) r.note(n);
    }
    wi.seconds = static_cast<double>(end - start) / 1e9;
    wi.traced_ops = st.ops[1];
    r.attempted = wi.ops;
    if (tracer != nullptr) {
      add_overhead(r, st, kThreads);
    } else {
      ws.report(r, end);
    }
  }

  void mark_synced() {
    for (uint64_t k = 0; k < kKeys; ++k) {
      sh_->synced[k] = sh_->completed[k].load(std::memory_order_acquire);
    }
  }

  void inflight(FILE* to) {
    const uint64_t cap = now_ns() + 60'000'000'000ull;
    std::vector<Worker> w(kThreads, Worker(WindowSeries(now_ns(), 0)));
    std::vector<Zipf> zipfs;
    for (int i = 0; i < kThreads; ++i) zipfs.emplace_back(kKeys, 0.99, seed_ * 7 + 50 + i);
    uint32_t names[3] = {0, 0, 0};
    std::vector<std::thread> th;
    for (int i = 0; i < kThreads; ++i) {
      th.emplace_back([&, i] {
        pin_self({i});
        run_ops(w[i], zipfs[i], seed_ * 7 + i + 200, now_ns(), cap, names);
        ::_exit(3);  // never reached unless the kill did not come
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::fprintf(to, "INFLIGHT\n");
    std::fflush(to);
    for (auto& t : th) t.join();
  }

  void rebuild(Stack& s) { cache_->recover(s.survivors); }

  void check_recovered(int, Result& r) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      const auto v = cache_->get(CacheKey(key_of(k)));
      if (!v.has_value()) {
        r.reject("after kill and recovery: key " + std::to_string(k) +
                 " lost (synced version " + std::to_string(sh_->synced[k]) + ")");
      } else if (std::string err = check_read(v->view(), k, sh_->synced[k],
                                              sh_->issued[k].load());
                 !err.empty()) {
        r.reject("after kill and recovery: " + err);
      }
    }
  }

  double live_user_bytes() {
    return static_cast<double>(cache_->size() * (11 + kValueBytes));
  }

 private:
  void set(uint64_t k, const CacheValue& v) {
    const CacheKey key(key_of(k));
    for (;;) {
      try {
        cache_->set(key, v);
        return;
      } catch (const montage::EpochVerifyException&) {
      } catch (const montage::OldSeeNewException&) {
      }
    }
  }

  void run_ops(Worker& w, Zipf& zipf, uint64_t seed, uint64_t start,
               uint64_t deadline, const uint32_t* names) {
    Rng rng(seed);
    Slices slices{start};
    uint64_t t = start;
    for (;;) {
      const uint64_t k = zipf.next();
      const bool read = rng.next_double() < 0.5;
      const bool traced = w.tt != nullptr && slices.traced(t);
      const uint64_t t_op = t;
      uint32_t span = 0;
      if (traced) span = w.tt->open(names[0], w.ops + 1, t_op);
      uint64_t t0, t1;
      if (read) {
        const uint64_t lo = sh_->completed[k].load(std::memory_order_acquire);
        const CacheKey key(key_of(k));
        t0 = now_ns();
        const auto v = cache_->get(key);
        t1 = now_ns();
        const uint64_t hi = sh_->issued[k].load(std::memory_order_acquire);
        w.ws.read(t1, t1 - t0);
        if (!v.has_value()) {
          w.res.reject("get of preloaded key " + std::to_string(k) + " missed");
        } else if (std::string err = check_read(v->view(), k, lo, hi); !err.empty()) {
          w.res.reject(err);
        }
      } else {
        // One writer per key at a time, so versions land in issue order.
        std::lock_guard lk(key_locks_[k]);
        const uint64_t ver = sh_->issued[k].load(std::memory_order_relaxed) + 1;
        sh_->issued[k].store(ver, std::memory_order_release);
        const CacheValue val(make_value(k, ver));
        t0 = now_ns();
        set(k, val);
        t1 = now_ns();
        sh_->completed[k].store(ver, std::memory_order_release);
        w.ws.write(t1, t1 - t0);
        ++w.sets;
      }
      ++w.ops;
      t = now_ns();
      if (traced) {
        w.tt->leaf(names[read ? 2 : 1], 0, t0, t1);
        w.tt->close(span, t);
      }
      w.st.ops[traced ? 1 : 0] += 1;
      w.st.ns[traced ? 1 : 0] += t - t_op;
      if (t >= deadline) break;
    }
  }

  Shared* sh_;
  uint64_t seed_;
  double seconds_;
  std::unique_ptr<Cache> cache_;
  std::unique_ptr<std::mutex[]> key_locks_ = std::make_unique<std::mutex[]>(kKeys);
};

}  // namespace

Result run_kv(const Args& args) { return run_inproc<KvWorkload>(args); }

}  // namespace perfbench

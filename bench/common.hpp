// Shared benchmark harness for the figure reproductions.
//
// Every bench binary prints CSV rows: figure,series,x,value
// where `value` is throughput in Mops/s unless stated otherwise.
//
// Environment knobs (one binary serves smoke runs and full sweeps):
//   MONTAGE_BENCH_SECONDS    — measurement time per data point (default 0.2)
//   MONTAGE_BENCH_THREADS    — max thread count in sweeps (default 8)
//   MONTAGE_BENCH_SCALE      — fraction of the paper's data-set sizes
//                              (default 0.02; 1.0 = paper scale)
//   MONTAGE_FLUSH_NS         — emulated per-line drain latency (default 150)
//   MONTAGE_FENCE_NS         — emulated fixed fence cost (default 300)
//   MONTAGE_BENCH_LAT_SAMPLE — time every Nth op for the latency percentile
//                              rows (default 64; 0 disables sampling)
//
// Flags: --stats-json appends the telemetry registry (counters, histograms,
// gauges, trace status) as one JSON line after the CSV rows, and arms the
// process-wide perf-counter gauges (perf.cycles, ...) when the kernel allows
// them. Unknown --flags are rejected; bare words still pass through so
// wrapper scripts can tag invocations harmlessly.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "montage/epoch_sys.hpp"
#include "montage/recoverable.hpp"
#include "nvm/region.hpp"
#include "ralloc/ralloc.hpp"
#include "util/barrier.hpp"
#include "util/env.hpp"
#include "util/inline_str.hpp"
#include "util/padded.hpp"
#include "util/perfcounters.hpp"
#include "util/pin.hpp"
#include "util/rand.hpp"
#include "util/telemetry.hpp"
#include "util/timing.hpp"

namespace montage::bench {

/// Whether --stats-json was passed; read by emit_stats_json().
inline bool& stats_json_requested() {
  static bool v = false;
  return v;
}

/// The process-wide perf-counter group armed by parse_args when
/// --stats-json is requested (inherited by every worker thread).
inline util::PerfGroup& process_perf_group() {
  static util::PerfGroup g = util::PerfGroup::disabled();
  return g;
}

/// Flag parsing shared by every figure binary. `--`-prefixed flags must be
/// known (a typo'd --stats-jsom must not silently run without stats); bare
/// words are still ignored so wrapper scripts can pass through context.
inline void parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stats-json") {
      stats_json_requested() = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--stats-json]\n"
          "Prints CSV rows figure,series,x,value (Mops/s unless stated\n"
          "otherwise) plus sampled latency-percentile rows per series.\n"
          "  --stats-json   append the telemetry registry as one JSON line\n"
          "Env knobs: MONTAGE_BENCH_SECONDS, MONTAGE_BENCH_THREADS,\n"
          "MONTAGE_BENCH_SCALE, MONTAGE_BENCH_SERIES, MONTAGE_BENCH_LAT_SAMPLE,\n"
          "MONTAGE_FLUSH_NS, MONTAGE_FENCE_NS (see bench/common.hpp).\n",
          argv[0]);
      std::exit(0);
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: unknown flag '%s' (try --help)\n", argv[0],
                   arg.c_str());
      std::exit(2);
    }
  }
  if (stats_json_requested()) {
    // Whole-run hardware counters for the stats dump; worker threads created
    // later are inherited. Silently absent when the kernel refuses.
    process_perf_group() = util::PerfGroup::process();
    process_perf_group().start();
    static std::vector<int> gauge_ids =
        process_perf_group().register_telemetry_gauges();
    (void)gauge_ids;  // intentionally live until exit
  }
}

/// Print the telemetry registry as one JSON line (after the CSV rows) when
/// --stats-json was requested. In MONTAGE_TELEMETRY=OFF builds the line is
/// {"telemetry":0} so consumers can tell "no data" from "zero counts".
inline void emit_stats_json() {
  if (!stats_json_requested()) return;
  std::printf("%s\n", telemetry::stats_json().c_str());
  std::fflush(stdout);
}

using Key = util::InlineStr<32>;

struct Config {
  double seconds;
  int max_threads;
  double scale;
  uint64_t flush_ns;
  uint64_t fence_ns;

  static Config from_env() {
    Config c;
    c.seconds = util::env_double("MONTAGE_BENCH_SECONDS", 0.2);
    c.max_threads = static_cast<int>(util::env_u64("MONTAGE_BENCH_THREADS", 8));
    c.scale = util::env_double("MONTAGE_BENCH_SCALE", 0.02);
    // Defaults approximate Optane: ~15 ns of drain bandwidth per 64 B line
    // (~4 GB/s per socket), ~200 ns to drain the pipeline at a fence.
    c.flush_ns = util::env_u64("MONTAGE_FLUSH_NS", 15);
    c.fence_ns = util::env_u64("MONTAGE_FENCE_NS", 200);
    return c;
  }

  /// Thread counts for a sweep: 1,2,4,... up to max_threads.
  std::vector<int> thread_counts() const {
    std::vector<int> out;
    for (int t = 1; t <= max_threads; t *= 2) out.push_back(t);
    if (out.back() != max_threads) out.push_back(max_threads);
    return out;
  }
};

/// One fresh NVM environment (region + allocator [+ epoch system]) per
/// series, so no state leaks across measurements.
class BenchEnv {
 public:
  explicit BenchEnv(const Config& cfg, std::size_t region_size = 6ull << 30,
                    nvm::PersistMode mode = nvm::PersistMode::kLatency) {
    nvm::RegionOptions ropts;
    ropts.size = region_size;
    ropts.mode = mode;
    ropts.flush_latency_ns = cfg.flush_ns;
    ropts.fence_latency_ns = cfg.fence_ns;
    ropts.wpq_backlog_ns = util::env_u64("MONTAGE_WPQ_NS", 10'000);
    nvm::Region::init_global(ropts);
    ral_ = std::make_unique<ralloc::Ralloc>(nvm::Region::global(),
                                            ralloc::Ralloc::Mode::kFresh);
    ralloc::Ralloc::set_default_instance(ral_.get());
  }

  void make_esys(const EpochSys::Options& opts) {
    esys_ = std::make_unique<EpochSys>(ral_.get(), opts);
    EpochSys::set_default_esys(esys_.get());
  }

  ~BenchEnv() {
    esys_.reset();
    ral_.reset();
    nvm::Region::destroy_global();
  }

  ralloc::Ralloc* ral() { return ral_.get(); }
  EpochSys* esys() { return esys_.get(); }

 private:
  std::unique_ptr<ralloc::Ralloc> ral_;
  std::unique_ptr<EpochSys> esys_;
};

/// Per-op latency samples aggregated into the telemetry bucket scheme
/// (hist_bucket_of / hist_bucket_upper), so percentile extraction is shared
/// with the registry histograms and works in telemetry-OFF builds too.
struct LatencyStats {
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t buckets[telemetry::kHistBuckets] = {};

  /// p50/p90/p99/p999 of the sampled op latencies (all 0 when no samples).
  telemetry::Percentiles percentiles() const {
    telemetry::HistogramValue hv{};
    hv.count = count;
    hv.sum = sum_ns;
    for (int b = 0; b < telemetry::kHistBuckets; ++b) {
      hv.buckets[b] = buckets[b];
    }
    return telemetry::hist_percentiles(hv);
  }
};

/// What one run_throughput measurement produced: aggregate throughput plus
/// the sampled per-op latency distribution across all workers.
struct ThroughputResult {
  double mops = 0.0;
  uint64_t ops = 0;
  LatencyStats latency;
};

/// Latency sampling period: every Nth op per worker is timed individually
/// (default 64 keeps the clock reads off ~98% of ops); 0 disables sampling.
inline uint64_t latency_sample_period() {
  static const uint64_t period =
      util::env_u64("MONTAGE_BENCH_LAT_SAMPLE", 64);
  return period;
}

/// Duration-based throughput driver: runs `op(tid, rng, i)` in a loop on
/// `threads` threads for ~`seconds`; returns total Mops/s plus the sampled
/// per-op latency distribution.
inline ThroughputResult run_throughput(
    int threads, double seconds,
    const std::function<void(int, util::Xorshift128Plus&, uint64_t)>& op) {
  // Each worker's hot state lives on its own cache lines: an unpadded
  // uint64_t-per-thread count array puts adjacent workers on one line and
  // the resulting false sharing visibly skews scalability curves.
  struct alignas(util::kCacheLineSize) WorkerSlot {
    uint64_t ops = 0;
    LatencyStats lat;
  };
  util::SpinBarrier barrier(threads + 1);
  std::vector<WorkerSlot> slots(threads);
  const uint64_t sample_period = latency_sample_period();
  std::atomic<bool> stop{false};
  std::vector<std::thread> ts;
  ts.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      util::pin_thread(t);
      util::Xorshift128Plus rng(0x1234 + t * 7919);
      WorkerSlot& slot = slots[t];
      barrier.arrive_and_wait();
      uint64_t i = 0;
      // The stop flag (stored below once the measurement window closes) is
      // checked on every iteration; it is a relaxed load of a line that
      // stays shared-clean until the store, so it costs nothing measurable.
      while (!stop.load(std::memory_order_relaxed)) {
        if (sample_period != 0 && i % sample_period == 0) {
          const uint64_t t0 = util::now_ns();
          op(t, rng, i);
          const uint64_t dt = util::now_ns() - t0;
          slot.lat.count++;
          slot.lat.sum_ns += dt;
          slot.lat.buckets[telemetry::hist_bucket_of(dt)]++;
          telemetry::observe(telemetry::Hist::kBenchOpLatency, dt);
        } else {
          op(t, rng, i);
        }
        ++i;
      }
      slot.ops = i;
    });
  }
  barrier.arrive_and_wait();
  const uint64_t t0 = util::now_ns();
  while (util::to_seconds(util::now_ns() - t0) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : ts) th.join();
  const double elapsed = util::to_seconds(util::now_ns() - t0);
  ThroughputResult r;
  uint64_t total = 0;
  for (const WorkerSlot& s : slots) {
    total += s.ops;
    r.latency.count += s.lat.count;
    r.latency.sum_ns += s.lat.sum_ns;
    for (int b = 0; b < telemetry::kHistBuckets; ++b) {
      r.latency.buckets[b] += s.lat.buckets[b];
    }
  }
  r.mops = static_cast<double>(total) / elapsed / 1e6;
  r.ops = total;
  return r;
}

/// MONTAGE_BENCH_SERIES=<name> restricts a bench binary to one series.
inline bool series_enabled(const std::string& name) {
  static const std::string filter = util::env_str("MONTAGE_BENCH_SERIES", "");
  return filter.empty() || filter == name;
}

inline void emit(const std::string& figure, const std::string& series,
                 const std::string& x, double value) {
  std::printf("%s,%s,%s,%.4f\n", figure.c_str(), series.c_str(), x.c_str(),
              value);
  std::fflush(stdout);
}

/// Emit one measurement: the throughput row, then (when latency sampling is
/// on) one row per percentile under derived series names — e.g. series
/// "Montage" also yields "Montage/p50_ns" .. "Montage/p999_ns". The "_ns"
/// suffix marks the series lower-is-better for bench/compare.
inline void emit_result(const std::string& figure, const std::string& series,
                        const std::string& x, const ThroughputResult& r) {
  emit(figure, series, x, r.mops);
  if (r.latency.count == 0) return;
  const telemetry::Percentiles p = r.latency.percentiles();
  emit(figure, series + "/p50_ns", x, static_cast<double>(p.p50));
  emit(figure, series + "/p90_ns", x, static_cast<double>(p.p90));
  emit(figure, series + "/p99_ns", x, static_cast<double>(p.p99));
  emit(figure, series + "/p999_ns", x, static_cast<double>(p.p999));
}

/// Emit `<series>/lines_per_op` — cache lines flushed per completed op over
/// the measurement window (the persistence-cost axis of the coalescing
/// write-back buffers, DESIGN.md §13). The "lines_per_op" suffix marks the
/// series lower-is-better for bench/compare; unlike the duration-suffixed
/// latency series it is a persistence-cost rate and stays gated under
/// --rates-only. Series that flushed nothing (transient baselines) emit no
/// row.
inline void emit_lines_per_op(const std::string& figure,
                              const std::string& series, const std::string& x,
                              const ThroughputResult& r, uint64_t lines_before,
                              uint64_t lines_after) {
  if (r.ops == 0 || lines_after <= lines_before) return;
  emit(figure, series + "/lines_per_op", x,
       static_cast<double>(lines_after - lines_before) /
           static_cast<double>(r.ops));
}

template <std::size_t N>
util::InlineStr<N> make_value() {
  std::string s(N - 1, 'x');
  return util::InlineStr<N>(s);
}

inline Key key_of(uint64_t k) {
  // Paper: integer keys 1..1M converted to strings padded to 32 B.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%024lu", static_cast<unsigned long>(k));
  return Key(buf);
}

}  // namespace montage::bench

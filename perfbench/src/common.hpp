// Shared pieces of the end-to-end benchmark: arguments, the seeded input
// generators, the latency recorder, the span tracer, the result printer and
// the process helpers the kill-and-recover phase uses.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// ---- arguments and results ---------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool transient = false;  ///< Montage(T) reference: no persistence, no kill
  std::string bin_dir;   ///< directory holding montage_kv_server
  std::string work_dir;  ///< where region files, logs and span dumps go
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one invocation prints: the metrics asked for plus the counts.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed first

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a checker rejection: the run stays a result, but not a correct
  /// one, and the rejection counts as a failed operation.
  void reject(const std::string& why);
};

/// Prints the notes, a metric table and, as the last line, the JSON object.
void print_result(const Args& args, const Result& r);

// ---- clocks, hashing, seeded generators ------------------------------------

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(mix64(seed)) {}
  uint64_t next() { return mix64(s_++); }
  double next_double() { return static_cast<double>(next() >> 11) * 0x1p-53; }

 private:
  uint64_t s_;
};

/// YCSB zipfian over [0, n) (Gray et al.), with ranks mapped to keys through
/// a seeded permutation so the hot keys are spread over the key space.
class Zipf {
 public:
  Zipf(uint64_t n, double theta, uint64_t seed);
  uint64_t next();

 private:
  uint64_t n_;
  double theta_, zetan_, alpha_, eta_, half_pow_;
  Rng rng_;
  std::vector<uint32_t> perm_;
};

// ---- latency recorder ---------------------------------------------------------

/// Log-linear histogram of nanosecond latencies: exact below 256 ns, and
/// 128 sub-buckets per power of two above (relative error < 0.8%).
/// Percentiles interpolate linearly inside the bucket that holds the rank.
class LatencyRecorder {
 public:
  LatencyRecorder();
  void record(uint64_t ns) {
    ++counts_[bucket_of(ns)];
    ++n_;
  }
  void merge(const LatencyRecorder& o);
  uint64_t count() const { return n_; }
  double percentile_ns(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kLinear = 2ull << kSubBits;  // 256
  static int bucket_of(uint64_t v);
  static uint64_t bucket_low(int b);
  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
};

/// CPU time from /proc/stat, for the share stolen by the host (a virtual
/// machine's "steal") while a window ran.
struct CpuTimes {
  uint64_t total = 0, steal = 0;
};
/// Machine-wide, or with `own_cpus` summed over the CPUs that the calling
/// thread may run on.
CpuTimes cpu_times(bool own_cpus = false);
/// "cpu steal during the window: x% of CPU time" for the notes.
std::string steal_note(const CpuTimes& a, const CpuTimes& b);

/// What a timed window measured, cut into half-second slices. On a virtual
/// machine the host takes CPU time from it ("steal") in bursts, so the
/// slices are ranked by the steal /proc/stat shows during each, and
/// throughput and p99 come from the quietest quarter: throughput is the
/// median rate over those slices, p99 the median of their p99s (slices of
/// at least 1000 samples). p50 is taken over every sample.
class WindowSeries {
 public:
  static constexpr uint64_t kSliceNs = 500'000'000;
  /// With `own_cpus`, steal is read on the CPUs the recording thread is
  /// pinned to (merged series: all of their threads' CPUs); otherwise
  /// machine-wide, for a recorder whose work runs on other CPUs.
  WindowSeries(uint64_t start_ns, double seconds, bool own_cpus = true);
  void write(uint64_t end_ns, uint64_t lat_ns) { record(end_ns, lat_ns, true, true); }
  void read(uint64_t end_ns, uint64_t lat_ns) { record(end_ns, lat_ns, false, true); }
  /// A read sample that times `per` back-to-back calls and is not counted
  /// as an operation; the read percentiles report the time per call.
  void read_batch(uint64_t end_ns, uint64_t batch_ns, uint32_t per) {
    read_per_ = per;
    record(end_ns, batch_ns, false, false);
  }
  void merge(const WindowSeries& o);
  /// Reads the CPU times for the end of the last whole slice when no sample
  /// landed after it; call when the window ends.
  void close(uint64_t end_ns);
  /// Adds throughput_mops and the write and read percentiles of a window
  /// that ended at `end_ns`.
  void report(Result& r, uint64_t end_ns) const;

 private:
  void record(uint64_t end_ns, uint64_t lat_ns, bool write, bool counted);
  uint64_t start_;
  bool own_cpus_;
  uint32_t read_per_ = 1;  ///< calls per read sample
  std::size_t last_slice_ = ~std::size_t{0};
  std::vector<uint64_t> ops_;
  std::vector<CpuTimes> cpu_;  ///< at each slice's start; total 0 = not read
  std::vector<LatencyRecorder> w_, r_;
  LatencyRecorder w_all_, r_all_;
};

double median(std::vector<double> v);
/// "name: median of a, b, c" for the notes.
std::string samples_note(const std::string& name, const std::vector<double>& v);

// ---- span tracer ----------------------------------------------------------------

/// Spans recorded from the benchmark's own code around each call into a
/// layer. Each thread appends to its own buffer (no locking on the record
/// path); self time per name is accumulated as spans close. A bounded prefix
/// of the spans is kept in memory and written out by write_spans().
class Tracer {
 public:
  static constexpr uint32_t kNoParent = ~0u;

  struct Span {
    uint32_t name;
    uint32_t parent;  ///< index of the parent in the same thread's buffer
    uint64_t req;     ///< request (operation) id shared by a span tree
    uint64_t start, end;
  };

  struct Agg {
    uint64_t count = 0, total_ns = 0, self_ns = 0;
  };

  class Thread {
   public:
    explicit Thread(Tracer* t) : tracer_(t) {}
    /// Opens a span; returns its index for close(). `req` 0 = inherit.
    uint32_t open(uint32_t name, uint64_t req, uint64_t start_ns);
    void close(uint32_t idx, uint64_t end_ns);
    /// A leaf span whose start and end were timed by the caller.
    void leaf(uint32_t name, uint64_t req, uint64_t start_ns, uint64_t end_ns);

   private:
    friend class Tracer;
    struct Open {
      uint32_t idx;
      uint32_t name;
      uint64_t start;
      uint64_t child_ns;
    };
    Tracer* tracer_;
    std::vector<Span> spans_;
    std::vector<Open> stack_;
    std::map<uint32_t, Agg> agg_;
    uint32_t next_idx_ = 0;
    void account(uint32_t name, uint64_t dur, uint64_t self);
  };

  uint32_t name_id(const std::string& name);
  Thread* thread();  ///< a new per-thread recorder owned by the tracer
  /// Per-name totals over every thread.
  std::map<std::string, Agg> aggregate() const;
  /// Writes the kept spans as JSON lines; returns the count written.
  std::size_t write_spans(const std::string& path) const;

  static constexpr std::size_t kKeepPerThread = 1 << 16;

 private:
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

// ---- process helpers -------------------------------------------------------------

/// A child process with a pipe from it. The child's body gets the write end
/// as a FILE* for line-oriented reports, and its return value is its exit
/// code. The parent must be single-threaded when it forks.
struct Child {
  pid_t pid = -1;
  FILE* from = nullptr;  ///< read end in the parent
};
Child fork_child(const std::function<int(FILE* to_parent)>& body);

/// Reads one line ("" at EOF) from a child.
std::string read_line(FILE* f);

/// Sends SIGKILL (when `kill` is set) and reaps the child; returns the raw
/// wait status.
int reap(Child& c, bool kill);

/// Copies a file, skipping holes so a sparse region stays sparse, and
/// flushes both files to disk.
void sparse_copy(const std::string& from, const std::string& to);

/// Peak resident set of `pid` (VmHWM from /proc), in MiB.
double peak_rss_mb(pid_t pid);
/// Peak resident set of the calling process, in MiB.
double self_peak_rss_mb();

/// Pins the calling thread (and the threads it creates later) to the given
/// positions in the set of CPUs the process was started with. A no-op when
/// fewer than four CPUs are available, so the benchmark still runs there.
void pin_self(std::initializer_list<int> positions);

/// Shared anonymous memory that survives a fork in both processes.
void* shared_alloc(std::size_t bytes);

}  // namespace perfbench

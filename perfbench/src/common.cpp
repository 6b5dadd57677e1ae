#include "common.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

// ---- results --------------------------------------------------------------------

void Result::reject(const std::string& why) {
  correct = false;
  ++failed;
  if (notes.size() < 64) notes.push_back("REJECTED: " + why);
}

namespace {
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

void print_result(const Args& args, const Result& r) {
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const auto& n : r.notes) std::printf("  %s\n", n.c_str());
  for (const auto& m : r.metrics) {
    std::printf("  %-42s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? "true" : "false");
  std::string js = "{\"correct\": ";
  js += r.correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(r.attempted);
  js += ", \"failed\": " + std::to_string(r.failed);
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i != 0) js += ", ";
    js += "\"" + m.name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
          m.unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

// ---- zipf ---------------------------------------------------------------------------

Zipf::Zipf(uint64_t n, double theta, uint64_t seed)
    : n_(n), theta_(theta), rng_(seed), perm_(n) {
  zetan_ = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  const double zeta2 = 1.0 + std::pow(0.5, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
  half_pow_ = std::pow(0.5, theta);
  for (uint64_t i = 0; i < n; ++i) perm_[i] = static_cast<uint32_t>(i);
  Rng shuffle(seed ^ 0x5eedull);
  for (uint64_t i = n - 1; i > 0; --i) {
    std::swap(perm_[i], perm_[shuffle.next() % (i + 1)]);
  }
}

uint64_t Zipf::next() {
  const double u = rng_.next_double();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + half_pow_) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n_) rank = n_ - 1;
  }
  return perm_[rank];
}

// ---- latency recorder ---------------------------------------------------------

LatencyRecorder::LatencyRecorder()
    : counts_(kLinear + (64 - kSubBits - 1) * (1u << kSubBits), 0) {}

int LatencyRecorder::bucket_of(uint64_t v) {
  if (v < kLinear) return static_cast<int>(v);
  const int top = 63 - __builtin_clzll(v);  // >= kSubBits + 1
  const int shift = top - kSubBits;
  const uint64_t sub = (v >> shift) & ((1u << kSubBits) - 1);
  return static_cast<int>(kLinear + (shift - 1) * (1u << kSubBits) + sub);
}

uint64_t LatencyRecorder::bucket_low(int b) {
  if (static_cast<uint64_t>(b) < kLinear) return static_cast<uint64_t>(b);
  const uint64_t rel = static_cast<uint64_t>(b) - kLinear;
  const int shift = static_cast<int>(rel >> kSubBits) + 1;
  const uint64_t sub = rel & ((1u << kSubBits) - 1);
  return ((1ull << kSubBits) | sub) << shift;
}

void LatencyRecorder::merge(const LatencyRecorder& o) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  n_ += o.n_;
}

double LatencyRecorder::percentile_ns(double q) const {
  if (n_ == 0) return 0;
  // Continuous rank: samples inside a bucket are spread evenly over it.
  const double rank = q * static_cast<double>(n_);
  uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const uint64_t c = counts_[b];
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= rank) {
      const double lo = static_cast<double>(bucket_low(static_cast<int>(b)));
      const double hi =
          b + 1 < counts_.size()
              ? static_cast<double>(bucket_low(static_cast<int>(b + 1)))
              : lo + 1;
      const double frac = (rank - static_cast<double>(seen)) / c;
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += c;
  }
  return static_cast<double>(bucket_low(static_cast<int>(counts_.size() - 1)));
}

WindowSeries::WindowSeries(uint64_t start_ns, double seconds, bool own_cpus)
    : start_(start_ns),
      own_cpus_(own_cpus),
      ops_(static_cast<std::size_t>(seconds * 1e9 / kSliceNs) + 2, 0),
      cpu_(ops_.size() + 1),
      w_(ops_.size()),
      r_(ops_.size()) {}

void WindowSeries::record(uint64_t end_ns, uint64_t lat_ns, bool write, bool counted) {
  const std::size_t s =
      std::min<std::size_t>((end_ns - start_) / kSliceNs, ops_.size() - 1);
  if (s != last_slice_) {
    // First sample of a new slice: the CPU times at (about) its start, read
    // on the recording thread, so that own_cpus_ means its CPUs.
    last_slice_ = s;
    if (cpu_[s].total == 0) cpu_[s] = cpu_times(own_cpus_);
  }
  if (counted) ++ops_[s];
  (write ? w_[s] : r_[s]).record(lat_ns);
  (write ? w_all_ : r_all_).record(lat_ns);
}

void WindowSeries::close(uint64_t end_ns) {
  const std::size_t s =
      std::min<std::size_t>((end_ns - start_) / kSliceNs, ops_.size() - 1);
  if (cpu_[s].total == 0) cpu_[s] = cpu_times(own_cpus_);
}

void WindowSeries::merge(const WindowSeries& o) {
  for (std::size_t s = 0; s < ops_.size() && s < o.ops_.size(); ++s) {
    ops_[s] += o.ops_[s];
    w_[s].merge(o.w_[s]);
    r_[s].merge(o.r_[s]);
  }
  // Each series read its own threads' CPUs: the sums cover all of them. A
  // boundary that either side missed stays unknown.
  for (std::size_t s = 0; s < cpu_.size() && s < o.cpu_.size(); ++s) {
    if (cpu_[s].total == 0 || o.cpu_[s].total == 0) {
      cpu_[s] = CpuTimes{};
    } else {
      cpu_[s].total += o.cpu_[s].total;
      cpu_[s].steal += o.cpu_[s].steal;
    }
  }
  w_all_.merge(o.w_all_);
  r_all_.merge(o.r_all_);
}

namespace {
void add_percentiles(Result& r, const std::string& prefix, const LatencyRecorder& all,
                     const std::vector<LatencyRecorder>& slices,
                     const std::vector<std::size_t>& quiet, uint32_t per) {
  // A sample that timed `per` calls reports the time per call.
  const double scale = 1e3 * per;
  char buf[240];
  const double p50 = all.percentile_ns(0.50) / scale;
  r.add(prefix + "_p50_us", p50, "us");
  std::snprintf(buf, sizeof buf, "%s_p50_us = %.4f over %llu samples of %u call(s)",
                prefix.c_str(), p50, static_cast<unsigned long long>(all.count()), per);
  r.note(buf);
  std::vector<double> p99s, every;
  uint64_t fewest = ~0ull;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    if (slices[s].count() < 1000) continue;
    every.push_back(slices[s].percentile_ns(0.99) / scale);
    if (std::find(quiet.begin(), quiet.end(), s) == quiet.end()) continue;
    p99s.push_back(every.back());
    fewest = std::min(fewest, slices[s].count());
  }
  if (p99s.empty()) {
    r.note(prefix + "_p99_us not reported: no quietest slice holds 1000 samples");
    return;
  }
  const double p99 = median(p99s);
  r.add(prefix + "_p99_us", p99, "us");
  std::snprintf(buf, sizeof buf,
                "%s_p99_us = %.4f, median over the %zu quietest slices of >= %llu "
                "samples (all slices: %.4f; whole window: %.4f over %llu samples)",
                prefix.c_str(), p99, p99s.size(), static_cast<unsigned long long>(fewest),
                median(every), all.percentile_ns(0.99) / scale,
                static_cast<unsigned long long>(all.count()));
  r.note(buf);
}
}  // namespace

void WindowSeries::report(Result& r, uint64_t end_ns) const {
  // The last slice is cut short by the deadline: only whole ones count.
  const std::size_t whole =
      std::min<std::size_t>((end_ns - start_) / kSliceNs, ops_.size() - 1);
  std::vector<std::pair<double, std::size_t>> steal;  // (share, slice)
  for (std::size_t s = 0; s < whole; ++s) {
    const CpuTimes& a = cpu_[s];
    const CpuTimes& b = cpu_[s + 1];
    const bool known = a.total != 0 && b.total > a.total;
    steal.push_back({known ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 1.0,
                     s});
  }
  std::stable_sort(steal.begin(), steal.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<std::size_t> quiet;
  std::vector<double> rates, all_rates;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    const double rate =
        static_cast<double>(ops_[steal[i].second]) * 1e9 / kSliceNs / 1e6;
    all_rates.push_back(rate);
    if (i < (steal.size() + 3) / 4) {
      quiet.push_back(steal[i].second);
      rates.push_back(rate);
    }
  }
  r.add("throughput_mops", median(rates), "Mops/s");
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "throughput_mops: median over the %zu quietest of %zu half-second "
                "slices (all slices: %.6g); steal per slice %.1f%% to %.1f%%",
                rates.size(), all_rates.size(), median(all_rates),
                steal.empty() ? 0.0 : 100 * steal.front().first,
                steal.empty() ? 0.0 : 100 * steal.back().first);
  r.note(buf);
  add_percentiles(r, "write", w_all_, w_, quiet, 1);
  add_percentiles(r, "read", r_all_, r_, quiet, read_per_);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : (v[m - 1] + v[m]) / 2;
}

std::string samples_note(const std::string& name, const std::vector<double>& v) {
  std::string s = name + ": median of";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s %.4g", i == 0 ? "" : ",", v[i]);
    s += buf;
  }
  return s;
}

// ---- tracer ------------------------------------------------------------------------

uint32_t Tracer::name_id(const std::string& name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

Tracer::Thread* Tracer::thread() {
  threads_.push_back(std::make_unique<Thread>(this));
  threads_.back()->spans_.reserve(kKeepPerThread);
  return threads_.back().get();
}

uint32_t Tracer::Thread::open(uint32_t name, uint64_t req, uint64_t start_ns) {
  const uint32_t idx = next_idx_++;
  const uint32_t parent = stack_.empty() ? kNoParent : stack_.back().idx;
  if (req == 0 && !stack_.empty() && stack_.back().idx < spans_.size()) {
    req = spans_[stack_.back().idx].req;
  }
  if (spans_.size() < kKeepPerThread) {
    spans_.push_back(Span{name, parent, req, start_ns, 0});
  }
  stack_.push_back(Open{idx, name, start_ns, 0});
  return idx;
}

void Tracer::Thread::account(uint32_t name, uint64_t dur, uint64_t self) {
  Agg& a = agg_[name];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += self;
}

void Tracer::Thread::close(uint32_t idx, uint64_t end_ns) {
  // Spans close in LIFO order; a stray index is a bench bug.
  if (stack_.empty() || stack_.back().idx != idx) {
    throw std::logic_error("tracer: span closed out of order");
  }
  const Open o = stack_.back();
  stack_.pop_back();
  const uint64_t dur = end_ns - o.start;
  account(o.name, dur, dur > o.child_ns ? dur - o.child_ns : 0);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (idx < spans_.size()) spans_[idx].end = end_ns;
}

void Tracer::Thread::leaf(uint32_t name, uint64_t req, uint64_t start_ns,
                          uint64_t end_ns) {
  close(open(name, req, start_ns), end_ns);
}

std::map<std::string, Tracer::Agg> Tracer::aggregate() const {
  std::map<std::string, Agg> out;
  for (const auto& t : threads_) {
    for (const auto& [id, a] : t->agg_) {
      Agg& o = out[names_[id]];
      o.count += a.count;
      o.total_ns += a.total_ns;
      o.self_ns += a.self_ns;
    }
  }
  return out;
}

std::size_t Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::size_t n = 0;
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    for (std::size_t i = 0; i < threads_[t]->spans_.size(); ++i) {
      const Span& s = threads_[t]->spans_[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                   "\"req\":%llu,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   t, i, names_[s.name].c_str(),
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.req),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

// ---- processes -----------------------------------------------------------------------

Child fork_child(const std::function<int(FILE*)>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    FILE* to = ::fdopen(fds[1], "w");
    int code = 1;
    try {
      code = body(to);
    } catch (const std::exception& e) {
      std::fprintf(to, "ERROR %s\n", e.what());
      code = 1;
    }
    std::fflush(to);
    ::_exit(code);
  }
  ::close(fds[1]);
  return Child{pid, ::fdopen(fds[0], "r")};
}

std::string read_line(FILE* f) {
  std::string s;
  int ch;
  while ((ch = std::fgetc(f)) != EOF) {
    if (ch == '\n') return s;
    s.push_back(static_cast<char>(ch));
  }
  return s;
}

int reap(Child& c, bool kill) {
  int status = 0;
  if (c.pid > 0) {
    if (kill) ::kill(c.pid, SIGKILL);
    while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    c.pid = -1;
  }
  if (c.from != nullptr) {
    std::fclose(c.from);
    c.from = nullptr;
  }
  return status;
}

void sparse_copy(const std::string& from, const std::string& to) {
  const int in = ::open(from.c_str(), O_RDONLY);
  if (in < 0) throw std::runtime_error("cannot open " + from);
  const int out = ::open(to.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0) {
    ::close(in);
    throw std::runtime_error("cannot create " + to);
  }
  const off_t size = ::lseek(in, 0, SEEK_END);
  std::vector<char> buf(1 << 20);
  off_t pos = 0;
  bool ok = ::ftruncate(out, size) == 0;
  while (ok && pos < size) {
    off_t data = ::lseek(in, pos, SEEK_DATA);
    if (data < 0) break;  // only a hole remains
    off_t hole = ::lseek(in, data, SEEK_HOLE);
    if (hole < 0) hole = size;
    for (off_t off = data; ok && off < hole;) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<off_t>(hole - off, buf.size()));
      const ssize_t n = ::pread(in, buf.data(), want, off);
      ok = n > 0 && ::pwrite(out, buf.data(), static_cast<std::size_t>(n), off) == n;
      off += n > 0 ? n : 0;
    }
    pos = hole;
  }
  // Write both files back now, so that the kernel's background write-back
  // of the crash image does not run during a timed recovery.
  ok = ok && ::fdatasync(in) == 0 && ::fdatasync(out) == 0;
  ::close(in);
  ::close(out);
  if (!ok) throw std::runtime_error("copy failed: " + from);
}

double peak_rss_mb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double self_peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void pin_self(std::initializer_list<int> positions) {
  // The CPU set seen at the first call is the one positions index into.
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  if (cpus.size() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int p : positions) CPU_SET(cpus[static_cast<std::size_t>(p)], &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

CpuTimes cpu_times(bool own_cpus) {
  cpu_set_t mine;
  CPU_ZERO(&mine);
  if (own_cpus && ::sched_getaffinity(0, sizeof mine, &mine) != 0) own_cpus = false;
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string line;
  while (std::getline(f, line) && line.rfind("cpu", 0) == 0) {
    // The first line ("cpu ") sums every CPU; "cpuN" lines follow.
    const bool all = line.size() > 3 && line[3] == ' ';
    if (own_cpus == all) continue;
    if (own_cpus) {
      const int n = std::atoi(line.c_str() + 3);
      if (n < 0 || n >= CPU_SETSIZE || !CPU_ISSET(n, &mine)) continue;
    }
    const char* p = line.c_str() + line.find(' ');
    for (int i = 0; i < 10; ++i) {
      char* end = nullptr;
      const uint64_t v = std::strtoull(p, &end, 10);
      if (end == p) break;
      p = end;
      t.total += v;
      if (i == 7) t.steal += v;
    }
    if (all) break;
  }
  return t;
}

std::string steal_note(const CpuTimes& a, const CpuTimes& b) {
  char buf[96];
  const double total = static_cast<double>(b.total - a.total);
  std::snprintf(buf, sizeof buf, "cpu steal during the window: %.1f%% of CPU time",
                total > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) / total : 0.0);
  return buf;
}

void* shared_alloc(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("shared mmap failed");
  return p;
}

}  // namespace perfbench

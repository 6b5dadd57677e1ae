// The harness the two in-process workloads share. It forks one process per
// set-up (the median of their times is setup_s); the last of them runs the
// timed window, syncs, keeps writing, and is killed with SIGKILL while its
// writes are in flight. The crash image is then copied and each copy is
// reopened, recovered and checked in a fresh process (the median of their
// times is recover_s).
//
// A workload type W provides:
//   static constexpr const char* kName; static constexpr size_t kRegionBytes;
//   struct Shared (zeroed shared memory: the model both processes see);
//   W(const Args&, Shared*);
//   void build(montage::EpochSys*);   // construct the empty structure
//   void preload();
//   void window(Result&, Tracer*, WindowInfo&);   // the timed window
//   void mark_synced();               // record the model's sync point
//   void inflight(FILE* to);          // write until killed; prints INFLIGHT
//   void rebuild(Stack&);             // the structure's own recover()
//   void check_recovered(int index, Result&);
//                                     // rejects a recovered state the model
//                                     // does not allow
//   double live_user_bytes();
#pragma once

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

/// Alternating traced and untraced slices of a traced window. Tracing
/// overhead is the throughput lost in traced slices against untraced ones
/// of the same run.
struct Slices {
  static constexpr uint64_t kSliceNs = 50'000'000;
  uint64_t start = 0;
  bool traced(uint64_t t) const { return ((t - start) / kSliceNs) % 2 == 1; }
};

/// Per-thread operation and time totals, split by slice kind.
struct SliceTotals {
  uint64_t ops[2] = {0, 0};
  uint64_t ns[2] = {0, 0};
  void add(const SliceTotals& o) {
    for (int i = 0; i < 2; ++i) {
      ops[i] += o.ops[i];
      ns[i] += o.ns[i];
    }
  }
};

/// Adds trace.overhead_pct from slice totals summed over `threads` threads.
inline void add_overhead(Result& r, const SliceTotals& t, int threads) {
  const double untraced = t.ns[0] > 0 ? t.ops[0] * 1e9 * threads / t.ns[0] : 0;
  const double traced = t.ns[1] > 0 ? t.ops[1] * 1e9 * threads / t.ns[1] : 0;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "tracing overhead: %.4f Mops/s untraced vs %.4f Mops/s traced",
                untraced / 1e6, traced / 1e6);
  r.note(buf);
  r.add("trace.overhead_pct",
        untraced > 0 ? (untraced - traced) / untraced * 100 : 0, "%");
}

constexpr int kSetups = 5;
constexpr int kRecoveries = 21;
constexpr int kInflightMs = 20;

template <typename W>
Result run_inproc(const Args& args) {
  Result res;
  auto* sh = static_cast<typename W::Shared*>(shared_alloc(sizeof(typename W::Shared)));
  const std::string path = args.work_dir + "/" + W::kName + ".region";
  std::vector<double> setup_s, env_s, preload_s;
  Child run;
  for (int i = 0; i < kSetups; ++i) {
    ::unlink(path.c_str());
    const bool last = i == kSetups - 1;
    Child c = fork_child([&](FILE* to) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      // The epoch advancer and set-up run on the last two CPUs; workers pin
      // themselves to the first two for the timed window.
      pin_self({2, 3});
      const uint64_t t0 = now_ns();
      Stack s = Stack::open(path, W::kRegionBytes, /*recover=*/false, args.transient);
      W w(args, sh);
      w.build(s.esys.get());
      const uint64_t t1 = now_ns();
      w.preload();
      const uint64_t t2 = now_ns();
      Result sr;
      sr.add("setup_s", (t2 - t0) / 1e9, "s");
      sr.add("setup.env_s", (t1 - t0) / 1e9, "s");
      sr.add("setup.preload_s", (t2 - t1) / 1e9, "s");
      send_result(to, sr, "SETUP");
      if (!last) ::_exit(0);

      Result wr;
      WindowInfo wi;
      Tracer tracer;
      const LayerSnapshot before = take_snapshot(s.ral->region());
      const CpuTimes cpu0 = cpu_times();
      w.window(wr, args.trace ? &tracer : nullptr, wi);
      wr.note(steal_note(cpu0, cpu_times()));
      const LayerSnapshot after = take_snapshot(s.ral->region());
      wi.bytes_reserved = static_cast<double>(s.ral->stats().bytes_reserved);
      if (args.trace) {
        add_layer_metrics(wr, snapshot_delta(before, after), wi);
        add_trace_summary(wr, tracer, wi.traced_ops);
        const std::string tpath = args.work_dir + "/" + W::kName + ".spans.jsonl";
        wr.note("spans written: " + std::to_string(tracer.write_spans(tpath)) +
                " to " + tpath);
      } else {
        wr.add("peak_rss_mb", self_peak_rss_mb(), "MiB");
        wr.add("space_amp", wi.bytes_reserved / w.live_user_bytes(), "ratio");
      }
      send_result(to, wr, "WINDOW");
      if (args.transient) ::_exit(0);  // nothing persists: no kill, no recovery
      w.mark_synced();
      s.esys->sync();
      std::fprintf(to, "SYNCED\n");
      std::fflush(to);
      w.inflight(to);
      return 0;
    });
    Result sr;
    if (!merge_lines(c.from, sr, "SETUP") || sr.metrics.size() != 3) {
      reap(c, true);
      res.reject("set-up process died");
      return res;
    }
    setup_s.push_back(sr.metrics[0].value);
    env_s.push_back(sr.metrics[1].value);
    preload_s.push_back(sr.metrics[2].value);
    if (last) {
      run = c;
    } else {
      reap(c, false);
    }
  }
  res.note(samples_note("setup_s", setup_s));
  if (args.transient) {
    const bool ok = merge_lines(run.from, res, "WINDOW");
    reap(run, !ok);
    ::unlink(path.c_str());
    if (!ok) res.reject("workload process died");
    res.add("setup_s", median(setup_s), "s");
    return res;
  }
  if (!merge_lines(run.from, res, "WINDOW") || read_line(run.from) != "SYNCED" ||
      read_line(run.from) != "INFLIGHT") {
    reap(run, true);
    res.reject("workload process died before the kill");
    return res;
  }
  // Writes are in flight: kill the process that holds the region.
  std::this_thread::sleep_for(std::chrono::milliseconds(kInflightMs));
  reap(run, true);

  std::map<std::string, std::vector<double>> samples;  // by recovery metric
  std::map<std::string, std::string> units;
  // One copy of the crash image at a time, so little dirty page cache builds
  // up behind the recoveries.
  const std::string copy = path + ".crash";
  for (int index = 0; index < kRecoveries; ++index) {
    sparse_copy(path, copy);
    Child c = fork_child([&](FILE* to) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const uint64_t t0 = now_ns();
      Stack s = Stack::open(copy, W::kRegionBytes, /*recover=*/true);
      W w(args, sh);
      w.build(s.esys.get());
      const uint64_t t1 = now_ns();
      w.rebuild(s);
      const uint64_t t2 = now_ns();
      Result rr;
      rr.add("recover_s", (t2 - t0) / 1e9, "s");
      rr.add("recover.region_open_s", s.times.region_s, "s");
      rr.add("recover.ralloc_s", s.times.ralloc_s, "s");
      rr.add("recover.epoch_s", s.times.epoch_s, "s");
      rr.add("recover.rebuild_s", (t2 - t1) / 1e9, "s");
      rr.add("recover.payloads", static_cast<double>(s.times.payloads), "count");
      rr.add("recover.discarded_late_epoch", static_cast<double>(s.times.late_epoch),
             "count");
      rr.add("recover.quarantined_corrupt", static_cast<double>(s.times.corrupt),
             "count");
      w.check_recovered(index, rr);
      send_result(to, rr, "RECOVERED");
      ::_exit(0);  // skip teardown: the copy is deleted next
      return 0;
    });
    Result rr;
    const bool ok = merge_lines(c.from, rr, "RECOVERED");
    reap(c, !ok);
    ::unlink(copy.c_str());
    if (!ok) {
      ::unlink(path.c_str());
      res.reject("recovery process died");
      return res;
    }
    for (const auto& n : rr.notes) res.note(n);
    res.correct = res.correct && rr.correct;
    res.failed += rr.failed;
    for (const auto& m : rr.metrics) {
      samples[m.name].push_back(m.value);
      units[m.name] = m.unit;
    }
  }
  ::unlink(path.c_str());
  res.note(samples_note("recover_s", samples["recover_s"]) +
           "; every recovered copy of the crash image checked");
  if (args.trace) {
    for (const auto& [name, v] : samples) {
      if (name != "recover_s") res.add(name, median(v), units[name]);
    }
    res.add("setup.env_s", median(env_s), "s");
    res.add("setup.preload_s", median(preload_s), "s");
  } else {
    res.add("setup_s", median(setup_s), "s");
    res.add("recover_s", median(samples["recover_s"]), "s");
  }
  return res;
}

}  // namespace perfbench

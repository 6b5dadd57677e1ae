#include "layers.hpp"

#include <cstring>

namespace perfbench {

namespace tm = montage::telemetry;

LayerSnapshot take_snapshot(montage::nvm::Region* region) {
  return LayerSnapshot{tm::counters_snapshot(), tm::histograms_snapshot(),
                       region->stats()};
}

Counters snapshot_delta(const LayerSnapshot& a, const LayerSnapshot& b) {
  Counters d;
  for (std::size_t i = 0; i < b.counters.size() && i < a.counters.size(); ++i) {
    d[b.counters[i].name] =
        static_cast<double>(b.counters[i].value - a.counters[i].value);
  }
  for (std::size_t i = 0; i < b.hists.size() && i < a.hists.size(); ++i) {
    tm::HistogramValue h = b.hists[i];
    h.count -= a.hists[i].count;
    h.sum -= a.hists[i].sum;
    for (int k = 0; k < tm::kHistBuckets; ++k) h.buckets[k] -= a.hists[i].buckets[k];
    const std::string n = h.name;
    d[n + "_count"] = static_cast<double>(h.count);
    d[n + "_sum"] = static_cast<double>(h.sum);
    d[n + "_p50"] = static_cast<double>(tm::hist_percentile(h, 0.50));
    d[n + "_p99"] = static_cast<double>(tm::hist_percentile(h, 0.99));
  }
  d["nvm.lines"] = static_cast<double>(b.region.lines_flushed - a.region.lines_flushed);
  d["nvm.fences"] = static_cast<double>(b.region.fences - a.region.fences);
  return d;
}

void add_layer_metrics(Result& r, const Counters& d, const WindowInfo& w) {
  auto get = [&d](const char* k) {
    const auto it = d.find(k);
    return it == d.end() ? 0.0 : it->second;
  };
  const double ops = w.ops > 0 ? static_cast<double>(w.ops) : 1.0;
  const double secs = w.seconds > 0 ? w.seconds : 1.0;
  const double syncs = get("epoch.sync_calls");
  const double batches = get("server.sync_batches");
  const double lines = get("nvm.lines");

  r.add("nvm.lines_per_op", lines / ops, "lines/op");
  r.add("nvm.write_amp",
        w.user_bytes > 0 ? lines * 64.0 / static_cast<double>(w.user_bytes) : 0,
        "ratio");
  r.add("nvm.fences_per_op", get("nvm.fences") / ops, "fences/op");

  r.add("ralloc.allocs_per_op", get("ralloc.allocations") / ops, "allocs/op");
  r.add("ralloc.frees_per_op", get("ralloc.deallocations") / ops, "frees/op");
  r.add("ralloc.bytes_reserved_mb", w.bytes_reserved / (1 << 20), "MiB");

  r.add("epoch.overflow_writebacks_per_op", get("epoch.writebacks_overflow") / ops,
        "blocks/op");
  r.add("epoch.advances_per_s", get("epoch.advances") / secs, "1/s");
  r.add("epoch.advance_busy_ms_per_s",
        get("epoch.advance_latency_ns_sum") / 1e6 / secs, "ms/s");
  r.add("epoch.advance_p99_us", get("epoch.advance_latency_ns_p99") / 1e3, "us");
  r.add("epoch.boundary_writebacks_per_op", get("epoch.writebacks_boundary") / ops,
        "blocks/op");
  r.add("epoch.dedup_hits_per_op", get("epoch.writebacks_dedup_hits") / ops,
        "writes/op");
  r.add("epoch.coalesced_per_op", get("epoch.writebacks_coalesced") / ops,
        "lines/op");
  r.add("epoch.reclaimed_per_op", get("epoch.blocks_reclaimed") / ops, "blocks/op");
  r.add("epoch.ops_aborted_per_op", get("epoch.ops_aborted") / ops, "ops/op");
  r.add("epoch.osn_restarts_per_op", get("epoch.old_see_new") / ops, "ops/op");
  r.add("epoch.sync_calls_per_s", syncs / secs, "1/s");
  r.add("epoch.sync_p50_us", get("epoch.sync_latency_ns_p50") / 1e3, "us");
  r.add("epoch.sync_p99_us", get("epoch.sync_latency_ns_p99") / 1e3, "us");
  r.add("epoch.sync_helped_payloads_per_sync",
        syncs > 0 ? get("epoch.sync_helped_payloads") / syncs : 0, "blocks/sync");
  r.add("epoch.lockfree_registration_hits_per_op",
        get("epoch.registration_lockfree_hits") / ops, "writes/op");
  r.add("epoch.cooperative_advances", get("epoch.cooperative_advances"), "count");

  r.add("server.sync_batches_per_s", batches / secs, "1/s");
  r.add("server.sets_per_sync_batch",
        batches > 0 ? static_cast<double>(w.sets) / batches : 0, "sets/batch");
  r.add("server.ack_lag_p50_us", get("server.ack_lag_ns_p50") / 1e3, "us");
  r.add("server.ack_lag_p99_us", get("server.ack_lag_ns_p99") / 1e3, "us");
  r.add("server.caller_helped_syncs_per_s", get("server.sync_path_caller") / secs,
        "1/s");
  r.add("server.backpressure_events", get("server.backpressure_pauses"), "count");
  r.add("server.requests_shed", get("server.requests_shed"), "count");
}

Stack Stack::open(const std::string& path, std::size_t bytes, bool recover,
                  bool transient) {
  namespace nvm = montage::nvm;
  namespace ra = montage::ralloc;
  Stack s;
  uint64_t t = now_ns();
  auto lap = [&t] {
    const uint64_t n = now_ns();
    const double d = static_cast<double>(n - t) / 1e9;
    t = n;
    return d;
  };
  nvm::RegionOptions ro;
  ro.size = bytes;
  ro.path = path;
  ro.mode = nvm::PersistMode::kLatency;
  ro.flush_latency_ns = 15;
  ro.fence_latency_ns = 200;
  nvm::Region::init_global(ro);
  nvm::Region* region = nvm::Region::global();
  if (recover && !region->reopened()) {
    throw std::runtime_error("region " + path + " did not reopen");
  }
  s.times.region_s = lap();
  s.ral = std::make_unique<ra::Ralloc>(
      region, recover ? ra::Ralloc::Mode::kRecover : ra::Ralloc::Mode::kFresh);
  s.times.ralloc_s = lap();
  montage::EpochSys::Options eo;  // buffered write-back, 10 ms epochs
  eo.transient = transient;
  s.esys = std::make_unique<montage::EpochSys>(s.ral.get(), eo, recover);
  if (recover) {
    s.survivors = s.esys->recover(1);
    const auto& rep = s.esys->last_recovery_report();
    s.times.payloads = rep.recovered;
    s.times.late_epoch = rep.discarded_late_epoch;
    s.times.corrupt = rep.quarantined_corrupt;
  }
  s.times.epoch_s = lap();
  return s;
}

void send_result(FILE* to, const Result& r, const char* end_tag) {
  for (const auto& n : r.notes) std::fprintf(to, "N %s\n", n.c_str());
  for (const auto& m : r.metrics) {
    std::fprintf(to, "M %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(to, "C %llu %llu %d\n", static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed), r.correct ? 1 : 0);
  std::fprintf(to, "%s\n", end_tag);
  std::fflush(to);
}

bool merge_lines(FILE* from, Result& r, const char* end_tag) {
  for (;;) {
    const std::string line = read_line(from);
    if (line == end_tag) return true;
    if (line.empty() && std::feof(from)) return false;
    if (line.rfind("N ", 0) == 0) {
      r.note(line.substr(2));
    } else if (line.rfind("M ", 0) == 0) {
      char name[128], unit[32];
      double v = 0;
      if (std::sscanf(line.c_str() + 2, "%127s %lf %31s", name, &v, unit) == 3) {
        r.add(name, v, unit);
      }
    } else if (line.rfind("C ", 0) == 0) {
      unsigned long long att = 0, fail = 0;
      int ok = 1;
      std::sscanf(line.c_str() + 2, "%llu %llu %d", &att, &fail, &ok);
      r.attempted += att;
      r.failed += fail;
      r.correct = r.correct && ok == 1;
    } else if (line.rfind("ERROR ", 0) == 0) {
      r.reject("child: " + line.substr(6));
    }
  }
}

void add_trace_summary(Result& r, const Tracer& t, uint64_t traced_ops) {
  double layer_ns = 0, bench_ns = 0;
  char buf[200];
  for (const auto& [name, a] : t.aggregate()) {
    std::snprintf(buf, sizeof buf,
                  "span %-16s count %10llu total %10.3f ms self %10.3f ms",
                  name.c_str(), static_cast<unsigned long long>(a.count),
                  a.total_ns / 1e6, a.self_ns / 1e6);
    r.note(buf);
    if (name.rfind("bench.", 0) == 0) {
      bench_ns += static_cast<double>(a.self_ns);
    } else if (name.rfind("recover.", 0) != 0 && name.rfind("setup.", 0) != 0) {
      layer_ns += static_cast<double>(a.self_ns);
    }
  }
  const double n = traced_ops > 0 ? static_cast<double>(traced_ops) : 1.0;
  r.add("self.layer_us_per_op", layer_ns / n / 1e3, "us/op");
  r.add("self.bench_us_per_op", bench_ns / n / 1e3, "us/op");
}

}  // namespace perfbench

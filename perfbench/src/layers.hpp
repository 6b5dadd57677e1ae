// Per-layer measurements taken from outside the program: diffs of the
// counters its modules already publish, and the per-layer metric set that
// every workload prints in a traced run (0 where a layer does no work).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "montage/epoch_sys.hpp"
#include "nvm/region.hpp"
#include "ralloc/ralloc.hpp"

namespace perfbench {

using Counters = std::map<std::string, double>;

/// The telemetry registry (counters and histograms) plus nvm::Region::stats()
/// at one instant, for the in-process workloads.
struct LayerSnapshot {
  std::vector<montage::telemetry::CounterValue> counters;
  std::vector<montage::telemetry::HistogramValue> hists;
  montage::nvm::RegionStatsSnapshot region;
};
LayerSnapshot take_snapshot(montage::nvm::Region* region);

/// Counter deltas by registry name, histogram deltas as <name>_sum/_p50/_p99,
/// and the region's flushed lines and fences as nvm.lines / nvm.fences.
Counters snapshot_delta(const LayerSnapshot& a, const LayerSnapshot& b);

/// What the timed window did, as the benchmark counted it.
struct WindowInfo {
  double seconds = 0;
  uint64_t ops = 0;            ///< operations of every type completed
  uint64_t traced_ops = 0;     ///< ... of them in traced slices
  uint64_t user_bytes = 0;     ///< key and value bytes written by the ops
  uint64_t sets = 0;           ///< server sets acknowledged in the window
  double bytes_reserved = 0;   ///< allocator's NVM bytes at the window's end
};

/// Adds every nvm/ralloc/epoch/server per-layer metric, in the fixed order
/// BENCHMARK.json lists them. Missing counters read as 0.
void add_layer_metrics(Result& r, const Counters& delta, const WindowInfo& w);

/// Timings of the public calls that set up or recover a stack.
struct StackTimes {
  double region_s = 0, ralloc_s = 0, epoch_s = 0, rebuild_s = 0;
  std::size_t payloads = 0, late_epoch = 0, corrupt = 0;
};

/// One Montage stack on a file-backed region: Region, Ralloc, EpochSys.
struct Stack {
  std::unique_ptr<montage::ralloc::Ralloc> ral;
  std::unique_ptr<montage::EpochSys> esys;
  std::vector<montage::PBlk*> survivors;  ///< filled by a recovering open
  StackTimes times;

  /// Opens (fresh) or reopens and recovers the region at `path`, timing each
  /// constructor and EpochSys::recover(). Emulated NVM: 15 ns per flushed
  /// line, 200 ns per fence; buffered write-back with 10 ms epochs.
  /// `transient` selects Montage(T): payloads in NVM, no persistence.
  static Stack open(const std::string& path, std::size_t bytes, bool recover,
                    bool transient = false);
};

/// Sends a partial result over a pipe as lines; merge_lines reads them back
/// up to `end_tag`. Returns false when the child died before `end_tag`.
void send_result(FILE* to, const Result& r, const char* end_tag);
bool merge_lines(FILE* from, Result& r, const char* end_tag);

/// Notes each span name's count, total and self time, and adds the self
/// time per operation inside layer calls (self.layer_us_per_op) and in the
/// benchmark's own spans named bench.* (self.bench_us_per_op), both over
/// the `traced_ops` operations completed in traced slices.
void add_trace_summary(Result& r, const Tracer& t, uint64_t traced_ops);

}  // namespace perfbench

// Figure 4: design exploration on the hashmap (paper §5.2).
// Groups: write-back buffer size {2,16,64,256} each swept over epoch
// lengths, plus Buf=64+LocalFree, DirWB, Montage(T), Buf=64+DirFree.
// Workload: 0:1:1 get:insert:remove at MONTAGE_BENCH_THREADS threads
// (the paper uses 40).
#include "bench/map_adapters.hpp"

namespace montage::bench {
namespace {

using Val = util::InlineStr<1024>;

ThroughputResult run_config(const Config& cfg, const EpochSys::Options& opts,
                            int threads) {
  const Val value = make_value<1024>();
  const auto buckets =
      std::max<uint64_t>(1024, static_cast<uint64_t>(1'000'000 * cfg.scale));
  BenchEnv env(cfg);
  env.make_esys(opts);
  MontageMapAdapter<Val> a(env, buckets);
  preload_map(a, buckets / 2, buckets, value);
  return run_map_mix(a, threads, cfg.seconds, 0, 1, 1, buckets, value);
}

void main_impl() {
  const Config cfg = Config::from_env();
  const int threads = cfg.max_threads;
  const uint64_t epoch_lengths_ns[] = {10'000,      100'000,    1'000'000,
                                       10'000'000,  100'000'000};

  auto sweep = [&](const std::string& group, EpochSys::Options base) {
    for (uint64_t len : epoch_lengths_ns) {
      base.epoch_length_ns = len;
      emit_result("fig4", group, std::to_string(len / 1000) + "us",
                  run_config(cfg, base, threads));
    }
  };

  for (std::size_t buf : {2ull, 16ull, 64ull, 256ull}) {
    EpochSys::Options o;
    o.buffer_capacity = buf;
    sweep("Buf=" + std::to_string(buf), o);
  }
  {
    EpochSys::Options o;
    o.buffer_capacity = 64;
    o.local_free = true;
    sweep("Buf=64+LocalFree", o);
  }
  {
    // DirWB: immediate write-back after every update (epoch machinery still
    // runs; the buffers are bypassed).
    EpochSys::Options o;
    o.write_back = WriteBack::kImmediate;
    sweep("DirWB", o);
  }
  {
    // Montage(T): payloads in NVM, no persistence at all.
    EpochSys::Options o;
    o.transient = true;
    o.start_advancer = false;
    emit_result("fig4", "Montage(T)", "-", run_config(cfg, o, threads));
  }
  {
    // Buf=64+DirFree: reference only — reclaims immediately (unsafe).
    EpochSys::Options o;
    o.buffer_capacity = 64;
    o.direct_free = true;
    sweep("Buf=64+DirFree", o);
  }
}

}  // namespace
}  // namespace montage::bench

int main(int argc, char** argv) {
  montage::bench::parse_args(argc, argv);
  std::printf("figure,series,x,value\n");
  montage::bench::main_impl();
  montage::bench::emit_stats_json();
  return 0;
}

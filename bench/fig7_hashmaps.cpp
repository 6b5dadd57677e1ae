// Figure 7: throughput of concurrent hashmaps vs thread count.
//   (a) write-dominant  0:1:1  get:insert:remove
//   (b) read-dominant  18:1:1  get:insert:remove
// 1 M buckets with 0.5 M preloaded elements (scaled by MONTAGE_BENCH_SCALE),
// 1 KB values, 32 B padded keys (paper §6.1).
#include "bench/map_adapters.hpp"
#include "ds/montage_lockfree_hashmap.hpp"
#include "ds/montage_skiplist.hpp"

namespace montage::bench {
namespace {

using Val = util::InlineStr<1024>;

template <typename V>
struct MontageLockFreeAdapter {
  ds::MontageLockFreeHashMap<Key, V> map;
  MontageLockFreeAdapter(BenchEnv& env, std::size_t buckets)
      : map(env.esys(), buckets) {}
  bool insert(const Key& k, const V& v) { return map.insert(k, v); }
  std::optional<V> get(const Key& k) { return map.get(k); }
  std::optional<V> remove(const Key& k) { return map.remove(k); }
  void sync() { map.esys()->sync(); }
};

template <typename V>
struct MontageSkipListAdapter {
  ds::MontageSkipListMap<Key, V> map;
  MontageSkipListAdapter(BenchEnv& env, std::size_t) : map(env.esys()) {}
  bool insert(const Key& k, const V& v) { return map.insert(k, v); }
  std::optional<V> get(const Key& k) { return map.get(k); }
  std::optional<V> remove(const Key& k) { return map.remove(k); }
  void sync() { map.esys()->sync(); }
};

struct Mix {
  const char* tag;
  int wg, wi, wr;
};

template <typename Adapter>
void run_series(const Config& cfg, const std::string& name, const Mix& mix,
                const EpochSys::Options* esys_opts) {
  if (!series_enabled(name)) return;
  const Val value = make_value<1024>();
  const auto buckets =
      std::max<uint64_t>(1024, static_cast<uint64_t>(1'000'000 * cfg.scale));
  const uint64_t keyrange = buckets;
  const uint64_t preload = keyrange / 2;
  for (int t : cfg.thread_counts()) {
    BenchEnv env(cfg);
    EpochSys::Options transient_opts;
    transient_opts.transient = true;
    transient_opts.start_advancer = false;
    env.make_esys(esys_opts != nullptr ? *esys_opts : transient_opts);
    Adapter a(env, buckets);
    preload_map(a, preload, keyrange, value);
    emit_result(std::string("fig7") + mix.tag, name, std::to_string(t),
                run_map_mix(a, t, cfg.seconds, mix.wg, mix.wi, mix.wr,
                            keyrange, value));
  }
}

void run_mix(const Config& cfg, const Mix& mix) {
  EpochSys::Options montage_opts;
  EpochSys::Options transient_opts;
  transient_opts.transient = true;
  transient_opts.start_advancer = false;

  run_series<TransientMapAdapter<Val, ds::DramMem>>(cfg, "DRAM(T)", mix,
                                                    nullptr);
  run_series<TransientMapAdapter<Val, ds::NvmMem>>(cfg, "NVM(T)", mix,
                                                   nullptr);
  run_series<MontageMapAdapter<Val>>(cfg, "Montage(T)", mix, &transient_opts);
  run_series<MontageMapAdapter<Val>>(cfg, "Montage", mix, &montage_opts);
  // Extension beyond the paper's reported figure: an ordered (skip-list)
  // Montage map on the same workload — §6.1's "tree-based maps".
  run_series<MontageSkipListAdapter<Val>>(cfg, "Montage-SkipList", mix,
                                          &montage_opts);
  run_series<MontageLockFreeAdapter<Val>>(cfg, "Montage-LockFree", mix,
                                          &montage_opts);
  run_series<SoftMapAdapter<Val>>(cfg, "SOFT", mix, nullptr);
  run_series<NvTraverseMapAdapter<Val>>(cfg, "NVTraverse", mix, nullptr);
  run_series<DaliMapAdapter<Val>>(cfg, "Dali", mix, nullptr);
  run_series<ModMapAdapter<Val>>(cfg, "MOD", mix, nullptr);
  run_series<ProntoMapAdapter<Val, baselines::ProntoMode::kFull>>(
      cfg, "Pronto-Full", mix, nullptr);
  run_series<ProntoMapAdapter<Val, baselines::ProntoMode::kSync>>(
      cfg, "Pronto-Sync", mix, nullptr);
  run_series<MnemosyneMapAdapter<Val>>(cfg, "Mnemosyne", mix, nullptr);
}

void main_impl() {
  const Config cfg = Config::from_env();
  run_mix(cfg, Mix{"a", 0, 1, 1});   // write-dominant
  run_mix(cfg, Mix{"b", 18, 1, 1});  // read-dominant
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

// queue-16b: ds::MontageQueue with 16-byte values, one worker thread doing
// an enqueue and a dequeue in every round. Every 16th round also times a
// batch of 64 size() calls: the read the benchmark's fixed form asks of
// every workload. size() takes the queue's lock and touches no payload; one
// call is about as long as the two clock reads around it, hence the batch.
// The size() calls are not operations: they count neither in throughput nor
// in the per-op layer metrics. A peek would read the head payload, last
// written 200 000 rounds earlier, and time a cache miss in the machine's
// shared L3 instead.
#include <atomic>
#include <optional>

#include "checker.hpp"
#include "ds/montage_queue.hpp"
#include "inproc.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Queue = montage::ds::MontageQueue<QItem>;

struct QueueWorkload {
  static constexpr const char* kName = "queue-16b";
  static constexpr std::size_t kRegionBytes = 256ull << 20;
  static constexpr uint64_t kPreload = 200'000;
  static constexpr uint64_t kSizeEvery = 16;   ///< rounds per read sample
  static constexpr uint32_t kSizeBatch = 64;  ///< size() calls per sample

  // The model's progress, shared with the parent so it survives the kill.
  // Operation counts are of enqueues and dequeues after the preload.
  struct Shared {
    std::atomic<uint64_t> issued;  ///< ops started (an upper bound)
    std::atomic<uint64_t> synced;  ///< ops completed before the last sync()
    uint64_t first_head, first_size;  ///< the first recovery's queue
  };

  QueueWorkload(const Args& a, Shared* sh) : sh_(sh), seconds_(a.seconds) {}

  void build(montage::EpochSys* esys) { q_ = std::make_unique<Queue>(esys); }

  void preload() {
    for (uint64_t s = 0; s < kPreload; ++s) q_->enqueue(make_qitem(s));
  }

  void window(Result& r, Tracer* tracer, WindowInfo& wi) {
    pin_self({0});
    SliceTotals st;
    Tracer::Thread* tt = tracer != nullptr ? tracer->thread() : nullptr;
    uint32_t n_round = 0, n_enq = 0, n_deq = 0, n_size = 0;
    if (tt != nullptr) {
      n_round = tracer->name_id("bench.round");
      n_enq = tracer->name_id("ds.enqueue");
      n_deq = tracer->name_id("ds.dequeue");
      n_size = tracer->name_id("ds.size");
    }
    const uint64_t start = now_ns();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds_ * 1e9);
    WindowSeries ws(start, seconds_);
    Slices slices{start};
    uint64_t t = start;
    uint64_t rounds = 0;
    for (;;) {
      const bool traced = tt != nullptr && slices.traced(t);
      const uint64_t t_round = t;
      uint32_t round_span = 0;
      if (traced) round_span = tt->open(n_round, rounds + 1, t_round);
      const uint64_t t0 = now_ns();
      q_->enqueue(make_qitem(kPreload + rounds));
      const uint64_t t1 = now_ns();
      const std::optional<QItem> d = q_->dequeue();
      const uint64_t t2 = now_ns();
      ws.write(t1, t1 - t0);
      ws.write(t2, t2 - t1);
      const bool sized = rounds % kSizeEvery == 0;
      uint64_t b0 = 0, b1 = 0;
      if (sized) {
        std::size_t n = 0;
        b0 = now_ns();
        for (uint32_t i = 0; i < kSizeBatch; ++i) n += q_->size();
        b1 = now_ns();
        ws.read_batch(b1, b1 - b0, kSizeBatch);
        if (n != kPreload * kSizeBatch) r.reject("queue: wrong size() after a round");
      }
      check(r, d, rounds);
      ++rounds;
      t = now_ns();
      if (traced) {
        tt->leaf(n_enq, 0, t0, t1);
        tt->leaf(n_deq, 0, t1, t2);
        if (sized) tt->leaf(n_size, 0, b0, b1);
        tt->close(round_span, t);
      }
      st.ops[traced ? 1 : 0] += 2;
      st.ns[traced ? 1 : 0] += t - t_round;
      if (t >= deadline) break;
    }
    ops_ = 2 * rounds;
    wi.seconds = static_cast<double>(t - start) / 1e9;
    wi.ops = 2 * rounds;
    wi.user_bytes = rounds * sizeof(QItem);
    wi.traced_ops = st.ops[1];
    r.attempted = wi.ops;
    if (tracer != nullptr) {
      add_overhead(r, st, 1);
    } else {
      ws.report(r, t);
    }
  }

  void mark_synced() {
    sh_->synced.store(ops_, std::memory_order_relaxed);
    sh_->issued.store(ops_, std::memory_order_relaxed);
  }

  void inflight(FILE* to) {
    Result ignored;
    const uint64_t cap = now_ns() + 60'000'000'000ull;
    for (uint64_t r = ops_ / 2;; ++r) {
      sh_->issued.store(2 * r + 1, std::memory_order_release);
      q_->enqueue(make_qitem(kPreload + r));
      sh_->issued.store(2 * r + 2, std::memory_order_release);
      check(ignored, q_->dequeue(), r);
      if (r == ops_ / 2 + 1000) {
        std::fprintf(to, "INFLIGHT\n");
        std::fflush(to);
      }
      if (r % 1024 == 0 && now_ns() > cap) ::_exit(3);
    }
  }

  void rebuild(Stack& s) {
    q_->recover(s.survivors, s.esys->last_recovery_report());
  }

  // The first recovery is checked item by item against the model; the
  // others, of copies of the same image, must rebuild the same queue.
  void check_recovered(int index, Result& r) {
    std::string err;
    if (index == 0) {
      sh_->first_size = q_->size();
      sh_->first_head = q_->peek().has_value() ? q_->peek()->seq : ~0ull;
      std::vector<QItem> contents;
      while (auto v = q_->dequeue()) contents.push_back(*v);
      err = check_queue_recovery(QueueModel{kPreload}, contents,
                                 sh_->synced.load(), sh_->issued.load());
    } else {
      const auto head = q_->peek();
      if (q_->size() != sh_->first_size || !head.has_value() ||
          head->seq != sh_->first_head) {
        err = "queue: a copy of the same image recovered differently";
      }
    }
    if (!err.empty()) r.reject("after kill and recovery: " + err);
  }

  double live_user_bytes() { return static_cast<double>(q_->size() * sizeof(QItem)); }

 private:
  static void check(Result& r, const std::optional<QItem>& got, uint64_t expect) {
    if (!got.has_value()) {
      r.reject("queue: empty at sequence " + std::to_string(expect));
      return;
    }
    const std::string err = check_queue_head(*got, expect);
    if (!err.empty()) r.reject(err);
  }

  Shared* sh_;
  std::unique_ptr<Queue> q_;
  double seconds_;
  uint64_t ops_ = 0;
};

}  // namespace

Result run_queue(const Args& args) { return run_inproc<QueueWorkload>(args); }

}  // namespace perfbench

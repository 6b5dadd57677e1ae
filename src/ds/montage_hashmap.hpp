// Montage hashmap (paper Fig. 2 / §6.1): a lock-per-bucket chaining map.
// Only key-value payloads live in NVM; the bucket array and list nodes are
// transient and rebuilt at recovery. Each bucket keeps its chain sorted by
// key, exactly like the paper's example code.
//
// K and V must be trivially copyable (use util::InlineStr for strings).
#pragma once

#include <atomic>
#include <cassert>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "montage/recoverable.hpp"

namespace montage::ds {

template <typename K, typename V, typename Hash = std::hash<K>>
class MontageHashMap : public Recoverable {
 public:
  static constexpr uint32_t kPayloadTag = 0x4d48;  // 'MH'

  class Payload : public PBlk {
   public:
    Payload() = default;
    /// Constructor arguments flow through PNEW (paper Fig. 2:
    /// `PNEW(Payload, key, val)`); plain stores into the fresh block.
    Payload(const K& k, const V& v) {
      m_key = k;
      m_val = v;
    }
    GENERATE_FIELD(K, key, Payload);
    GENERATE_FIELD(V, val, Payload);
  };

  MontageHashMap(EpochSys* esys, std::size_t nbuckets)
      : Recoverable(esys), buckets_(nbuckets) {}

  ~MontageHashMap() override {
    for (auto& b : buckets_) {
      ListNode* n = b.head.next;
      while (n != nullptr) {
        ListNode* next = n->next;
        delete n;
        n = next;
      }
    }
  }

  /// Insert, or update if the key exists; returns the previous value.
  std::optional<V> put(const K& key, const V& val) {
    Bucket& bkt = bucket_of(key);
    // Node and payload are created before the critical section (paper
    // §3.1: early PNEW is adopted by BEGIN_OP).
    auto* new_node = new ListNode(esys_, key, val);
    std::lock_guard lk(bkt.lock);
    BEGIN_OP_AUTOEND();
    ListNode* prev = &bkt.head;
    ListNode* curr = bkt.head.next;
    while (curr != nullptr) {
      const K& ck = curr->payload->get_key();
      if (ck == key) {
        std::optional<V> ret(curr->payload->get_val());
        curr->set_val(val);
        new_node->destroy(esys_);
        return ret;
      }
      if (ck > key) break;
      prev = curr;
      curr = curr->next;
    }
    new_node->next = curr;
    prev->next = new_node;
    size_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  /// Insert only if absent. Returns false when the key already exists.
  bool insert(const K& key, const V& val) {
    Bucket& bkt = bucket_of(key);
    auto* new_node = new ListNode(esys_, key, val);
    std::lock_guard lk(bkt.lock);
    BEGIN_OP_AUTOEND();
    ListNode* prev = &bkt.head;
    ListNode* curr = bkt.head.next;
    while (curr != nullptr) {
      const K& ck = curr->payload->get_key();
      if (ck == key) {
        new_node->destroy(esys_);
        return false;
      }
      if (ck > key) break;
      prev = curr;
      curr = curr->next;
    }
    new_node->next = curr;
    prev->next = new_node;
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  std::optional<V> get(const K& key) {
    Bucket& bkt = bucket_of(key);
    // Read-only: no BEGIN_OP needed (paper §3.1), but transient
    // synchronization still applies.
    std::lock_guard lk(bkt.lock);
    for (ListNode* n = bkt.head.next; n != nullptr; n = n->next) {
      const K& ck = n->payload->get_key();
      if (ck == key) return std::optional<V>(n->payload->get_val());
      if (ck > key) break;
    }
    return std::nullopt;
  }

  bool contains(const K& key) { return get(key).has_value(); }

  std::optional<V> remove(const K& key) {
    Bucket& bkt = bucket_of(key);
    std::lock_guard lk(bkt.lock);
    BEGIN_OP_AUTOEND();
    ListNode* prev = &bkt.head;
    ListNode* curr = bkt.head.next;
    while (curr != nullptr) {
      const K& ck = curr->payload->get_key();
      if (ck == key) {
        std::optional<V> ret(curr->payload->get_val());
        prev->next = curr->next;
        curr->destroy(esys_);
        size_.fetch_sub(1, std::memory_order_relaxed);
        return ret;
      }
      if (ck > key) break;
      prev = curr;
      curr = curr->next;
    }
    return std::nullopt;
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  std::size_t bucket_count() const { return buckets_.size(); }

  /// Rebuild the transient index from recovered payloads (paper §5.1). The
  /// range is split across `nthreads`; insertion locks per bucket.
  void recover(const std::vector<PBlk*>& blocks, int nthreads = 1) {
    auto worker = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        auto* p = static_cast<Payload*>(blocks[i]);
        if (p->blk_tag() != kPayloadTag) continue;
        Bucket& bkt = bucket_of(p->get_unsafe_key());
        auto* node = new ListNode(p);
        std::lock_guard lk(bkt.lock);
        ListNode* prev = &bkt.head;
        ListNode* curr = bkt.head.next;
        while (curr != nullptr &&
               p->get_unsafe_key() > curr->payload->get_unsafe_key()) {
          prev = curr;
          curr = curr->next;
        }
        node->next = curr;
        prev->next = node;
        size_.fetch_add(1, std::memory_order_relaxed);
      }
    };
    if (nthreads <= 1) {
      worker(0, blocks.size());
      return;
    }
    std::vector<std::thread> ts;
    const std::size_t chunk = (blocks.size() + nthreads - 1) / nthreads;
    for (int t = 0; t < nthreads; ++t) {
      const std::size_t lo = std::min(blocks.size(), t * chunk);
      const std::size_t hi = std::min(blocks.size(), lo + chunk);
      ts.emplace_back(worker, lo, hi);
    }
    for (auto& th : ts) th.join();
  }

  /// As above, also retaining the epoch system's RecoveryReport so callers
  /// can inspect what recovery discarded or quarantined while rebuilding.
  void recover(const std::vector<PBlk*>& blocks, const RecoveryReport& report,
               int nthreads = 1) {
    recovery_report_ = report;
    recover(blocks, nthreads);
  }

 private:
  /// Transient index node (paper Fig. 2 `struct ListNode`).
  struct ListNode {
    Payload* payload = nullptr;  // transient-to-persistent pointer
    ListNode* next = nullptr;    // transient-to-transient pointer

    ListNode() = default;
    explicit ListNode(Payload* p) : payload(p) {}
    ListNode(EpochSys* esys, const K& key, const V& val) {
      payload = esys->pnew<Payload>(BlkTag{kPayloadTag}, key, val);
    }

    /// set with pointer-swing: set_val may clone the payload (paper Fig. 2
    /// set_val_wrapper).
    void set_val(const V& v) { payload = payload->set_val(v); }

    void destroy(EpochSys* esys) {
      esys->pdelete(payload);
      delete this;
    }
  };

  struct alignas(util::kCacheLineSize) Bucket {
    std::mutex lock;
    ListNode head;  // sentinel
  };

  Bucket& bucket_of(const K& key) {
    return buckets_[Hash{}(key) % buckets_.size()];
  }

  std::vector<Bucket> buckets_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace montage::ds

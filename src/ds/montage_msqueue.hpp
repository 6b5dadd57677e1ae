// Nonblocking Montage queue: a Michael-Scott queue whose linearizing CAS
// instructions are epoch-verified (paper §3.2/§3.3 — the same recipe as the
// stack and sorted list: every update linearizes in the epoch its payload
// carries, so the per-payload serial numbers recovered after a crash are a
// consistent prefix of the FIFO order).
//
// Transient nodes hold the payload pointer and a cached serial number; they
// are reclaimed through hazard pointers. The dequeue-side cas_verify covers
// the head swing; the enqueue-side covers the tail link.
#pragma once

#include <algorithm>
#include <optional>

#include "montage/dcss.hpp"
#include "montage/recoverable.hpp"
#include "util/hazard.hpp"

namespace montage::ds {

template <typename V>
class MontageMSQueue : public Recoverable {
 public:
  static constexpr uint32_t kPayloadTag = 0x4d4d;  // 'MM'

  class Payload : public PBlk {
   public:
    Payload() = default;
    Payload(const V& v, uint64_t s) {
      m_val = v;
      m_sn = s;
    }
    GENERATE_FIELD(V, val, Payload);
    GENERATE_FIELD(uint64_t, sn, Payload);
  };

  explicit MontageMSQueue(EpochSys* esys) : Recoverable(esys) {
    auto* sentinel = new Node();  // payload-less dummy
    head_.store(sentinel);
    tail_.store(sentinel);
  }

  ~MontageMSQueue() override {
    util::HazardDomain::global().flush();
    Node* n = head_.load();
    while (n != nullptr) {
      Node* next = n->next.load();
      delete n;
      n = next;
    }
  }

  void enqueue(const V& val) {
    // Owned until the CAS links it in (exception safety, as in the stack).
    auto node = std::make_unique<Node>();
    auto& hd = util::HazardDomain::global();
    while (true) {
      try {
        esys_->begin_op();
        Node* last = static_cast<Node*>(hd.protect(0, tail_.load()));
        if (last != tail_.load()) {
          esys_->end_op();
          continue;
        }
        Node* next = last->next.load();
        if (next != nullptr) {
          // Help swing the tail; no persistence involved (transient index).
          tail_.cas(last, next);
          esys_->end_op();
          continue;
        }
        const uint64_t sn = last->sn + 1;
        Payload* p = esys_->pnew<Payload>(BlkTag{kPayloadTag}, val, sn);
        node->payload.store(p, std::memory_order_relaxed);
        node->sn = sn;
        node->next.store(nullptr);
        if (last->next.cas_verify(esys_, nullptr, node.get())) {
          tail_.cas(last, node.get());
          node.release();
          esys_->end_op();
          hd.clear_all();
          return;
        }
        esys_->pdelete(p);
        esys_->end_op();
      } catch (const EpochVerifyException&) {
        // Epoch ticked under the CAS, or the op was adopted while stalled:
        // abort_op rolls the payload back; retry in the new epoch.
        esys_->abort_op();
      } catch (...) {
        esys_->abort_op();
        hd.clear_all();
        throw;
      }
    }
  }

  std::optional<V> dequeue() {
    auto& hd = util::HazardDomain::global();
    while (true) {
      try {
        esys_->begin_op();
        Node* first = static_cast<Node*>(hd.protect(0, head_.load()));
        if (first != head_.load()) {
          esys_->end_op();
          continue;
        }
        Node* next = static_cast<Node*>(hd.protect(1, first->next.load()));
        if (first != head_.load()) {
          esys_->end_op();
          continue;
        }
        if (next == nullptr) {
          esys_->end_op();
          hd.clear_all();
          return std::nullopt;
        }
        Payload* pl = next->payload.load(std::memory_order_acquire);
        if (pl == nullptr) {  // a peer already consumed `next`
          esys_->end_op();
          continue;
        }
        // Deferred reclamation keeps `pl` readable even if a peer wins the
        // race and pdeletes it; a failed cas_verify discards this read.
        std::optional<V> ret(pl->get_val());
        if (head_.cas_verify(esys_, first, next)) {
          esys_->pdelete(pl);
          next->payload.store(nullptr,
                              std::memory_order_release);  // new sentinel
          esys_->end_op();
          hd.clear_all();
          hd.retire(first, [](void* n) { delete static_cast<Node*>(n); });
          return ret;
        }
        esys_->end_op();
      } catch (const OldSeeNewException&) {
        esys_->abort_op();
      } catch (const EpochVerifyException&) {
        esys_->abort_op();
      } catch (...) {
        esys_->abort_op();
        hd.clear_all();
        throw;
      }
    }
  }

  bool empty() {
    Node* first = head_.load();
    return first->next.load() == nullptr;
  }

  /// Rebuild from recovered payloads, sorted by serial number.
  void recover(const std::vector<PBlk*>& blocks) {
    std::vector<Payload*> ps;
    for (PBlk* b : blocks) {
      auto* p = static_cast<Payload*>(b);
      if (p->blk_tag() == kPayloadTag) ps.push_back(p);
    }
    std::sort(ps.begin(), ps.end(), [](Payload* a, Payload* b) {
      return a->get_unsafe_sn() < b->get_unsafe_sn();
    });
    Node* tail = head_.load();
    for (Payload* p : ps) {
      auto* node = new Node();
      node->payload.store(p, std::memory_order_relaxed);
      node->sn = p->get_unsafe_sn();
      tail->next.store(node);
      tail = node;
    }
    // The sentinel inherits the sn just before the first element so that
    // post-recovery enqueues continue the sequence.
    if (!ps.empty()) {
      head_.load()->sn = ps.front()->get_unsafe_sn() - 1;
      tail_.store(tail);
    }
  }

 private:
  struct Node {
    std::atomic<Payload*> payload{nullptr};
    uint64_t sn = 0;
    AtomicVerifiable<Node*> next{nullptr};
  };

  AtomicVerifiable<Node*> head_{nullptr};
  AtomicVerifiable<Node*> tail_{nullptr};
};

}  // namespace montage::ds

// Nonblocking Montage sorted-list set (paper §3.3: "in work not reported
// here, we have developed nonblocking linked lists...").
//
// The transient index is a Harris-style lock-free sorted linked list with
// logically-deleted (marked) nodes; every linearizing CAS is an
// epoch-verified cas_verify, so each operation linearizes in the epoch its
// payload carries. Epoch ticks surface as EpochVerifyException /
// OldSeeNewException and the operation restarts in the new epoch — the
// resulting structure is lock-free (paper Theorem 4.4 discussion).
//
// Transient nodes are reclaimed through hazard pointers; payloads through
// the normal epoch-deferred PDELETE path.
#pragma once

#include <memory>
#include <optional>

#include "montage/dcss.hpp"
#include "montage/recoverable.hpp"
#include "util/hazard.hpp"

namespace montage::ds {

template <typename K>
class MontageListSet : public Recoverable {
 public:
  static constexpr uint32_t kPayloadTag = 0x4d4c;  // 'ML'

  class Payload : public PBlk {
   public:
    Payload() = default;
    explicit Payload(const K& k) { m_key = k; }
    GENERATE_FIELD(K, key, Payload);
  };

  explicit MontageListSet(EpochSys* esys) : Recoverable(esys) {
    head_ = new Node();  // sentinel, no payload
  }

  ~MontageListSet() override {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = strip(n->next.load());
      delete n;
      n = next;
    }
  }

  bool insert(const K& key) {
    auto node = std::make_unique<Node>();
    while (true) {
      try {
        esys_->begin_op();
        auto [prev, curr] = search(key);
        if (curr != nullptr && curr->key == key) {
          esys_->end_op();
          clear_hazards();
          return false;
        }
        Payload* p = esys_->pnew<Payload>(BlkTag{kPayloadTag}, key);
        node->key = key;
        node->payload = p;
        node->next.store(pack(curr, false));
        if (prev->next.cas_verify(esys_, pack(curr, false),
                                  pack(node.get(), false))) {
          node.release();
          esys_->end_op();
          clear_hazards();
          return true;
        }
        esys_->pdelete(p);  // value raced: discard this epoch's payload
        esys_->end_op();
      } catch (const EpochVerifyException&) {
        // Epoch ticked mid-operation — or the op was adopted while this
        // thread stalled. abort_op rolls the payload back; restart in the
        // new epoch (paper §3.3).
        esys_->abort_op();
      } catch (const OldSeeNewException&) {
        esys_->abort_op();
      } catch (...) {
        esys_->abort_op();
        clear_hazards();
        throw;
      }
    }
  }

  bool remove(const K& key) {
    while (true) {
      try {
        esys_->begin_op();
        auto [prev, curr] = search(key);
        if (curr == nullptr || !(curr->key == key)) {
          esys_->end_op();
          clear_hazards();
          return false;
        }
        const uint64_t succ = curr->next.load();
        if (marked(succ)) {
          esys_->end_op();
          continue;  // a peer is mid-removal of curr; retry
        }
        // Linearize on the mark (epoch-verified); unlink is cleanup.
        if (!curr->next.cas_verify(esys_, succ, succ | 1)) {
          esys_->end_op();
          continue;
        }
        esys_->pdelete(curr->payload);
        if (prev->next.cas(pack(curr, false), succ & ~1ull)) {
          retire(curr);
        }
        esys_->end_op();
        clear_hazards();
        return true;
      } catch (const EpochVerifyException&) {
        esys_->abort_op();
      } catch (const OldSeeNewException&) {
        esys_->abort_op();
      } catch (...) {
        esys_->abort_op();
        clear_hazards();
        throw;
      }
    }
  }

  bool contains(const K& key) {
    // Read-only: no BEGIN_OP needed (paper §3.1). search() may unlink
    // marked nodes on the way, which is cleanup, not a payload write.
    Node* curr = search(key).second;
    const bool found = curr != nullptr && curr->key == key &&
                       !marked(curr->next.load());
    clear_hazards();
    return found;
  }

  std::size_t size() {
    std::size_t n = 0;
    for (Node* c = strip(head_->next.load()); c != nullptr;
         c = strip(c->next.load())) {
      if (!marked(c->next.load())) ++n;
    }
    return n;
  }

  /// Rebuild from recovered payloads (sorted bulk link, single-threaded).
  void recover(const std::vector<PBlk*>& blocks) {
    std::vector<Payload*> ps;
    for (PBlk* b : blocks) {
      auto* p = static_cast<Payload*>(b);
      if (p->blk_tag() == kPayloadTag) ps.push_back(p);
    }
    std::sort(ps.begin(), ps.end(), [](Payload* a, Payload* b) {
      return a->get_unsafe_key() < b->get_unsafe_key();
    });
    Node* tail = head_;
    for (Payload* p : ps) {
      auto* node = new Node();
      node->key = p->get_unsafe_key();
      node->payload = p;
      tail->next.store(pack(node, false));
      tail = node;
    }
  }

 private:
  struct Node {
    K key{};
    Payload* payload = nullptr;
    AtomicVerifiable<uint64_t> next{0};  // Node* | mark bit
  };

  static uint64_t pack(Node* n, bool mark) {
    return reinterpret_cast<uint64_t>(n) | (mark ? 1u : 0u);
  }
  static bool marked(uint64_t w) { return (w & 1) != 0; }
  static Node* strip(uint64_t w) {
    return reinterpret_cast<Node*>(w & ~1ull);
  }

  void clear_hazards() { util::HazardDomain::global().clear_all(); }

  void retire(Node* n) {
    util::HazardDomain::global().retire(
        n, [](void* p) { delete static_cast<Node*>(p); });
  }

  /// Find (prev, curr) with curr the first node with key >= `key`, helping
  /// unlink marked nodes on the way. Protects prev/curr with hazards.
  std::pair<Node*, Node*> search(const K& key) {
    auto& hd = util::HazardDomain::global();
  restart:
    Node* prev = head_;
    hd.protect(0, prev);
    uint64_t pw = prev->next.load();
    Node* curr = strip(pw);
    while (true) {
      if (curr == nullptr) return {prev, nullptr};
      hd.protect(1, curr);
      // Re-validate the whole word: a marked prev may already be unlinked,
      // and then it no longer keeps curr from being freed.
      if (prev->next.load() != pack(curr, false)) goto restart;
      const uint64_t cw = curr->next.load();
      Node* next = strip(cw);
      if (marked(cw)) {
        // Help unlink; plain CAS suffices (cleanup, not linearization).
        if (!prev->next.cas(pack(curr, false), pack(next, false))) {
          goto restart;
        }
        retire(curr);
        curr = next;
        continue;
      }
      if (!(curr->key < key)) return {prev, curr};
      prev = curr;
      hd.protect(0, prev);
      curr = next;
    }
  }

  Node* head_;
};

}  // namespace montage::ds

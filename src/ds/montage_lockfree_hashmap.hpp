// Fully nonblocking Montage hashmap: per-bucket Harris-style lock-free
// sorted lists whose linearizing CAS instructions are epoch-verified
// (paper §3.3 — the "nonblocking maps" the evaluation section mentions as
// unreported work). Composes the sorted-list-set recipe with value updates:
//
//  * insert — link a fresh node whose payload carries (key, value);
//  * update — create a fresh payload and epoch-verified-CAS the node's
//    payload word; the superseded payload is PDELETEd in the same
//    operation, so recovery sees exactly one version of the key;
//  * remove — epoch-verified CAS of the payload word to null (the
//    tombstone), making the word the single linearization point for both
//    updates and removals — a concurrent update and removal can never both
//    claim the same payload version; marking and unlinking are cleanup;
//  * get    — traversal only; reads alert via OldSeeNew when pinned behind.
//
// Every transient node is reclaimed through hazard pointers; payloads go
// through PDELETE. Recovery is identical to the lock-based hashmap's:
// re-insert every surviving payload.
#pragma once

#include <memory>
#include <optional>

#include "montage/dcss.hpp"
#include "montage/recoverable.hpp"
#include "util/hazard.hpp"

namespace montage::ds {

template <typename K, typename V, typename Hash = std::hash<K>>
class MontageLockFreeHashMap : public Recoverable {
 public:
  static constexpr uint32_t kPayloadTag = 0x4d46;  // 'MF'

  class Payload : public PBlk {
   public:
    Payload() = default;
    Payload(const K& k, const V& v) {
      m_key = k;
      m_val = v;
    }
    GENERATE_FIELD(K, key, Payload);
    GENERATE_FIELD(V, val, Payload);
  };

  MontageLockFreeHashMap(EpochSys* esys, std::size_t nbuckets)
      : Recoverable(esys),
        nbuckets_(nbuckets),
        heads_(std::make_unique<Head[]>(nbuckets)) {
    for (std::size_t i = 0; i < nbuckets_; ++i) {
      heads_[i].node = new Node();  // per-bucket sentinel
    }
  }

  ~MontageLockFreeHashMap() override {
    for (std::size_t i = 0; i < nbuckets_; ++i) {
      Node* n = heads_[i].node;
      while (n != nullptr) {
        Node* next = strip(n->next.load());
        delete n;
        n = next;
      }
    }
  }

  bool insert(const K& key, const V& val) {
    Node* head = bucket_of(key);
    auto node = std::make_unique<Node>();
    while (true) {
      try {
        esys_->begin_op();
        auto [prev, curr] = search(head, key);
        if (curr != nullptr && curr->key == key) {
          if (curr->payload.load() == nullptr) {
            // Tombstoned but not yet unlinked: help, then retry.
            help_bury(prev, curr);
            esys_->end_op();
            continue;
          }
          esys_->end_op();
          clear_hazards();
          return false;
        }
        Payload* p = esys_->pnew<Payload>(BlkTag{kPayloadTag}, key, val);
        node->key = key;
        node->payload.store(p);
        node->next.store(pack(curr, false));
        if (prev->next.cas_verify(esys_, pack(curr, false),
                                  pack(node.get(), false))) {
          node.release();
          esys_->end_op();
          clear_hazards();
          size_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        esys_->pdelete(p);
        esys_->end_op();
      } catch (const EpochVerifyException&) {
        // Epoch tick or adoption-while-stalled: abort_op rolls the payload
        // back; retry in the new epoch.
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

  /// Insert or update; returns the previous value if the key existed.
  std::optional<V> put(const K& key, const V& val) {
    Node* head = bucket_of(key);
    while (true) {
      try {
        esys_->begin_op();
        auto [prev, curr] = search(head, key);
        if (curr == nullptr || !(curr->key == key)) {
          esys_->end_op();
          clear_hazards();
          if (insert(key, val)) return std::nullopt;
          continue;  // racing insert won; retry as an update
        }
        Payload* old = curr->payload.load();
        if (old == nullptr) {  // tombstoned underfoot: help and retry
          help_bury(prev, curr);
          esys_->end_op();
          continue;
        }
        std::optional<V> ret(old->get_val());
        // A fresh payload replaces the old one through one epoch-verified
        // CAS of the node's payload word; the superseded payload is
        // deleted in the same operation (same epoch), so after any crash
        // either both effects stand or neither does.
        Payload* fresh = esys_->pnew<Payload>(BlkTag{kPayloadTag}, key, val);
        if (curr->payload.cas_verify(esys_, old, fresh)) {
          esys_->pdelete(old);
          esys_->end_op();
          clear_hazards();
          return ret;
        }
        esys_->pdelete(fresh);  // lost the race: discard (self-nullifies)
        esys_->end_op();
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

  std::optional<V> get(const K& key) {
    Node* head = bucket_of(key);
    while (true) {
      try {
        esys_->begin_op();
        auto [prev, curr] = search(head, key);
        std::optional<V> ret;
        if (curr != nullptr && curr->key == key &&
            !marked(curr->next.load())) {
          Payload* p = curr->payload.load();
          if (p != nullptr) ret = p->get_val();
        }
        esys_->end_op();
        clear_hazards();
        return ret;
      } catch (const OldSeeNewException&) {
        esys_->abort_op();  // payload from a newer epoch: retry in it
      } catch (...) {
        esys_->abort_op();
        clear_hazards();
        throw;
      }
    }
  }

  std::optional<V> remove(const K& key) {
    Node* head = bucket_of(key);
    while (true) {
      try {
        esys_->begin_op();
        auto [prev, curr] = search(head, key);
        if (curr == nullptr || !(curr->key == key)) {
          esys_->end_op();
          clear_hazards();
          return std::nullopt;
        }
        Payload* p = curr->payload.load();
        if (p == nullptr) {  // already tombstoned by a peer
          help_bury(prev, curr);
          esys_->end_op();
          clear_hazards();
          return std::nullopt;
        }
        std::optional<V> ret(p->get_val());
        // Linearize: claim the payload word (epoch-verified). Exactly one
        // operation can take `p` from the word, so the PDELETE is unique.
        if (!curr->payload.cas_verify(esys_, p, nullptr)) {
          esys_->end_op();
          continue;
        }
        esys_->pdelete(p);
        help_bury(prev, curr);  // mark + unlink are mere cleanup now
        esys_->end_op();
        clear_hazards();
        size_.fetch_sub(1, std::memory_order_relaxed);
        return ret;
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

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  void recover(const std::vector<PBlk*>& blocks) {
    for (PBlk* b : blocks) {
      auto* p = static_cast<Payload*>(b);
      if (p->blk_tag() != kPayloadTag) continue;
      Node* head = bucket_of(p->get_unsafe_key());
      auto* node = new Node();
      node->key = p->get_unsafe_key();
      node->payload.store(p);
      // Single-threaded rebuild: sorted insert without synchronization.
      Node* prev = head;
      Node* curr = strip(head->next.load());
      while (curr != nullptr && curr->key < node->key) {
        prev = curr;
        curr = strip(curr->next.load());
      }
      node->next.store(pack(curr, false));
      prev->next.store(pack(node, false));
      size_.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  struct Node {
    K key{};
    AtomicVerifiable<Payload*> payload{nullptr};  // epoch-verifiable word
    AtomicVerifiable<uint64_t> next{0};           // Node* | mark
  };
  struct alignas(util::kCacheLineSize) Head {
    Node* node = nullptr;
  };

  static uint64_t pack(Node* n, bool mark) {
    return reinterpret_cast<uint64_t>(n) | (mark ? 1u : 0u);
  }
  static bool marked(uint64_t w) { return (w & 1) != 0; }
  static Node* strip(uint64_t w) {
    return reinterpret_cast<Node*>(w & ~1ull);
  }

  Node* bucket_of(const K& key) {
    return heads_[Hash{}(key) % nbuckets_].node;
  }

  void clear_hazards() { util::HazardDomain::global().clear_all(); }

  /// Cleanup for a tombstoned node: set the mark, then unlink it.
  void help_bury(Node* prev, Node* curr) {
    uint64_t succ = curr->next.load();
    while (!marked(succ)) {
      if (curr->next.cas(succ, succ | 1)) break;
      succ = curr->next.load();
    }
    succ = curr->next.load();
    if (prev->next.cas(pack(curr, false), succ & ~1ull)) {
      retire(curr);
    }
  }
  void retire(Node* n) {
    util::HazardDomain::global().retire(
        n, [](void* p) { delete static_cast<Node*>(p); });
  }

  /// Find (prev, curr) with curr the first node >= key, helping unlink
  /// marked nodes; prev/curr are hazard-protected.
  std::pair<Node*, Node*> search(Node* head, const K& key) {
    auto& hd = util::HazardDomain::global();
  restart:
    Node* prev = head;
    hd.protect(0, prev);
    Node* curr = strip(prev->next.load());
    while (true) {
      if (curr == nullptr) return {prev, nullptr};
      hd.protect(1, curr);
      // Re-validate the whole word: a marked prev may already be unlinked,
      // and then it no longer keeps curr from being freed.
      if (prev->next.load() != pack(curr, false)) goto restart;
      const uint64_t cw = curr->next.load();
      Node* next = strip(cw);
      if (marked(cw)) {
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

  std::size_t nbuckets_;
  std::unique_ptr<Head[]> heads_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace montage::ds

// Montage concurrent skip-list map: an ordered mapping whose transient index
// is a lazy lock-based skip list (Herlihy & Shavit's LazySkipList recipe:
// optimistic traversal, per-node locks, logical deletion via a marked flag,
// fullyLinked visibility). Only key-value payloads live in NVM; the towers
// are rebuilt at recovery — the paper's "tree-based maps" configuration
// (§6.1, work not reported) with the same persistence contract as the
// hashmap.
#pragma once

#include <cassert>
#include <mutex>
#include <thread>
#include <optional>
#include <vector>

#include "montage/recoverable.hpp"
#include "util/hazard.hpp"
#include "util/rand.hpp"
#include "util/threadid.hpp"

namespace montage::ds {

template <typename K, typename V>
class MontageSkipListMap : public Recoverable {
 public:
  static constexpr uint32_t kPayloadTag = 0x4d54;  // 'MT'
  static constexpr int kMaxLevel = 16;

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

  explicit MontageSkipListMap(EpochSys* esys) : Recoverable(esys) {
    head_ = new Node(kMaxLevel);
    tail_ = new Node(kMaxLevel);
    for (int i = 0; i < kMaxLevel; ++i) {
      head_->next[i].store(tail_, std::memory_order_relaxed);
    }
    head_->is_head = true;
    tail_->is_tail = true;
  }

  ~MontageSkipListMap() override {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next[0].load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
    for (Node* r : retired_) delete r;
  }

  /// Insert or update; returns the previous value if the key existed.
  std::optional<V> put(const K& key, const V& val) {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    while (true) {
      const int found = find(key, preds, succs);
      if (found != -1) {
        Node* node = succs[found];
        std::lock_guard lk(node->lock);
        if (node->marked.load()) continue;  // deleted underfoot: retry
        BEGIN_OP_AUTOEND();
        std::optional<V> old(node->payload->get_val());
        node->payload = node->payload->set_val(val);
        return old;
      }
      if (insert_at(key, val, preds, succs)) return std::nullopt;
    }
  }

  bool insert(const K& key, const V& val) {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    while (true) {
      const int found = find(key, preds, succs);
      if (found != -1) {
        Node* node = succs[found];
        if (node->marked.load()) continue;  // concurrent removal: retry
        // Wait for the inserter to finish linking before reporting "taken".
        while (!node->fully_linked.load()) std::this_thread::yield();
        return false;
      }
      if (insert_at(key, val, preds, succs)) return true;
    }
  }

  std::optional<V> get(const K& key) {
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    const int found = find(key, preds, succs);
    if (found == -1) return std::nullopt;
    Node* node = succs[found];
    if (!node->fully_linked.load() || node->marked.load()) return std::nullopt;
    return std::optional<V>(node->payload->get_val());
  }

  std::optional<V> remove(const K& key) {
    Node* victim = nullptr;
    bool is_marked = false;
    int top = -1;
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    while (true) {
      const int found = find(key, preds, succs);
      if (!is_marked) {
        if (found == -1) return std::nullopt;
        victim = succs[found];
        if (!victim->fully_linked.load() || victim->marked.load() ||
            victim->top_level != found) {
          return std::nullopt;
        }
        top = victim->top_level;
        victim->lock.lock();
        if (victim->marked.load()) {
          victim->lock.unlock();
          return std::nullopt;
        }
        victim->marked.store(true);  // logical delete
        is_marked = true;
      }
      // Physical unlink under validated pred locks.
      std::vector<std::unique_lock<std::recursive_mutex>> locks;
      bool valid = true;
      Node* prev = nullptr;
      for (int lvl = 0; valid && lvl <= top; ++lvl) {
        Node* pred = preds[lvl];
        if (pred != prev) {
          locks.emplace_back(pred->lock);
          prev = pred;
        }
        valid = !pred->marked.load() &&
                pred->next[lvl].load(std::memory_order_acquire) == victim;
      }
      if (!valid) continue;  // topology changed: re-find and retry
      std::optional<V> ret;
      {
        BEGIN_OP_AUTOEND();
        ret = victim->payload->get_val();
        esys_->pdelete(victim->payload);
        for (int lvl = top; lvl >= 0; --lvl) {
          preds[lvl]->next[lvl].store(
              victim->next[lvl].load(std::memory_order_acquire),
              std::memory_order_release);
        }
      }
      victim->lock.unlock();
      locks.clear();
      retire(victim);
      size_.fetch_sub(1, std::memory_order_relaxed);
      return ret;
    }
  }

  /// All pairs with lo <= key < hi, ascending. Optimistic: reflects some
  /// interleaving of concurrent updates (like any lazy-list range scan).
  std::vector<std::pair<K, V>> range(const K& lo, const K& hi) {
    std::vector<std::pair<K, V>> out;
    Node* n = head_->next[0].load(std::memory_order_acquire);
    while (n != nullptr && !n->is_tail && n->key < lo) n = n->next[0].load(std::memory_order_acquire);
    while (n != nullptr && !n->is_tail && n->key < hi) {
      if (n->fully_linked.load() && !n->marked.load()) {
        out.emplace_back(n->key, n->payload->get_val());
      }
      n = n->next[0].load(std::memory_order_acquire);
    }
    return out;
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Rebuild the towers from recovered payloads (single pass over the
  /// sorted keys, deterministic level assignment by position).
  void recover(const std::vector<PBlk*>& blocks) {
    std::vector<Payload*> ps;
    for (PBlk* b : blocks) {
      auto* p = static_cast<Payload*>(b);
      if (p->blk_tag() == kPayloadTag) ps.push_back(p);
    }
    std::sort(ps.begin(), ps.end(), [](Payload* a, Payload* b) {
      return a->get_unsafe_key() < b->get_unsafe_key();
    });
    Node* tails[kMaxLevel];
    for (int i = 0; i < kMaxLevel; ++i) tails[i] = head_;
    util::Xorshift128Plus rng(12345);
    for (Payload* p : ps) {
      const int top = random_level(rng);
      auto* node = new Node(top + 1);
      node->key = p->get_unsafe_key();
      node->payload = p;
      node->top_level = top;
      node->fully_linked.store(true);
      for (int lvl = 0; lvl <= top; ++lvl) {
        node->next[lvl].store(
            tails[lvl]->next[lvl].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        tails[lvl]->next[lvl].store(node, std::memory_order_relaxed);
        tails[lvl] = node;
      }
      size_.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  struct Node {
    explicit Node(int height) : next(height) {
      for (auto& n : next) n.store(nullptr, std::memory_order_relaxed);
    }
    K key{};
    Payload* payload = nullptr;
    std::vector<std::atomic<Node*>> next;
    int top_level = kMaxLevel - 1;
    bool is_head = false;
    bool is_tail = false;
    std::atomic<bool> marked{false};
    std::atomic<bool> fully_linked{false};
    std::recursive_mutex lock;
  };

  /// key < node's key, with sentinels ordered around everything.
  static bool before(const K& key, Node* n) {
    if (n->is_tail) return true;
    if (n->is_head) return false;
    return key < n->key;
  }

  /// Fill preds/succs; return the highest level where succ holds the key.
  int find(const K& key, Node** preds, Node** succs) {
    int found = -1;
    Node* pred = head_;
    for (int lvl = kMaxLevel - 1; lvl >= 0; --lvl) {
      Node* curr = pred->next[lvl].load(std::memory_order_acquire);
      while (!before(key, curr) && curr->key < key) {
        pred = curr;
        curr = pred->next[lvl].load(std::memory_order_acquire);
      }
      if (found == -1 && !curr->is_tail && !curr->is_head &&
          !(key < curr->key) && !(curr->key < key)) {
        found = lvl;
      }
      preds[lvl] = pred;
      succs[lvl] = curr;
    }
    return found;
  }

  static int random_level(util::Xorshift128Plus& rng) {
    int lvl = 0;
    while (lvl < kMaxLevel - 1 && rng.next_bounded(2) == 0) ++lvl;
    return lvl;
  }

  /// Validated insertion under pred locks; false means retry from find().
  bool insert_at(const K& key, const V& val, Node** preds, Node** succs) {
    thread_local util::Xorshift128Plus rng(
        0x5EED + static_cast<uint64_t>(util::thread_id()));
    const int top = random_level(rng);
    std::vector<std::unique_lock<std::recursive_mutex>> locks;
    Node* prev = nullptr;
    bool valid = true;
    for (int lvl = 0; valid && lvl <= top; ++lvl) {
      Node* pred = preds[lvl];
      Node* succ = succs[lvl];
      if (pred != prev) {
        locks.emplace_back(pred->lock);
        prev = pred;
      }
      valid = !pred->marked.load() &&
              !(succ != nullptr && succ->marked.load()) &&
              pred->next[lvl].load(std::memory_order_acquire) == succ;
    }
    if (!valid) return false;
    auto* node = new Node(top + 1);
    node->key = key;
    node->top_level = top;
    {
      BEGIN_OP_AUTOEND();
      Payload* p = esys_->pnew<Payload>(BlkTag{kPayloadTag}, key, val);
      node->payload = p;
      for (int lvl = 0; lvl <= top; ++lvl) {
        node->next[lvl].store(succs[lvl], std::memory_order_relaxed);
        preds[lvl]->next[lvl].store(node, std::memory_order_release);
      }
    }
    node->fully_linked.store(true);
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Unlinked towers are reclaimed only at structure teardown: optimistic
  /// traversals hold no hazards across levels, so freeing earlier would
  /// race them. (An optimized version would use era-based reclamation;
  /// memory here is bounded by the number of removals over the structure's
  /// lifetime.)
  void retire(Node* n) {
    std::lock_guard lk(retired_m_);
    retired_.push_back(n);
  }

  Node* head_;
  Node* tail_;
  std::mutex retired_m_;
  std::vector<Node*> retired_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace montage::ds

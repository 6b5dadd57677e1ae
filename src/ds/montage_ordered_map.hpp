// Montage ordered map: a sorted mapping with range queries, demonstrating
// that the "persist only the abstract state" recipe extends beyond hash
// structures (paper §3: sets, mappings, and anything expressible as items
// and relationships). The lookup structure — here a reader-writer-locked
// std::map, standing in for the tree/skip-list index an optimized version
// would use — is entirely transient; only key-value payloads persist, so
// the NVM footprint and recovery logic are identical to the hashmap's.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "montage/recoverable.hpp"

namespace montage::ds {

template <typename K, typename V>
class MontageOrderedMap : public Recoverable {
 public:
  static constexpr uint32_t kPayloadTag = 0x4d4f;  // 'MO'

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

  explicit MontageOrderedMap(EpochSys* esys) : Recoverable(esys) {}

  std::optional<V> put(const K& key, const V& val) {
    std::unique_lock lk(lock_);
    BEGIN_OP_AUTOEND();
    auto it = index_.find(key);
    if (it != index_.end()) {
      std::optional<V> old(it->second->get_val());
      it->second = it->second->set_val(val);
      return old;
    }
    Payload* p = esys_->pnew<Payload>(BlkTag{kPayloadTag}, key, val);
    index_.emplace(key, p);
    return std::nullopt;
  }

  bool insert(const K& key, const V& val) {
    std::unique_lock lk(lock_);
    if (index_.contains(key)) return false;
    BEGIN_OP_AUTOEND();
    Payload* p = esys_->pnew<Payload>(BlkTag{kPayloadTag}, key, val);
    index_.emplace(key, p);
    return true;
  }

  std::optional<V> get(const K& key) {
    std::shared_lock lk(lock_);
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    return std::optional<V>(it->second->get_val());
  }

  std::optional<V> remove(const K& key) {
    std::unique_lock lk(lock_);
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    BEGIN_OP_AUTOEND();
    std::optional<V> old(it->second->get_val());
    esys_->pdelete(it->second);
    index_.erase(it);
    return old;
  }

  /// All pairs with lo <= key < hi, in key order.
  std::vector<std::pair<K, V>> range(const K& lo, const K& hi) {
    std::shared_lock lk(lock_);
    std::vector<std::pair<K, V>> out;
    for (auto it = index_.lower_bound(lo);
         it != index_.end() && it->first < hi; ++it) {
      out.emplace_back(it->first, it->second->get_val());
    }
    return out;
  }

  std::optional<std::pair<K, V>> min() {
    std::shared_lock lk(lock_);
    if (index_.empty()) return std::nullopt;
    auto it = index_.begin();
    return std::make_pair(it->first, it->second->get_val());
  }

  std::optional<std::pair<K, V>> max() {
    std::shared_lock lk(lock_);
    if (index_.empty()) return std::nullopt;
    auto it = std::prev(index_.end());
    return std::make_pair(it->first, it->second->get_val());
  }

  std::size_t size() {
    std::shared_lock lk(lock_);
    return index_.size();
  }

  void recover(const std::vector<PBlk*>& blocks) {
    std::unique_lock lk(lock_);
    for (PBlk* b : blocks) {
      auto* p = static_cast<Payload*>(b);
      if (p->blk_tag() != kPayloadTag) continue;
      index_.emplace(p->get_unsafe_key(), p);
    }
  }

 private:
  std::shared_mutex lock_;
  std::map<K, Payload*> index_;  ///< transient sorted index
};

}  // namespace montage::ds

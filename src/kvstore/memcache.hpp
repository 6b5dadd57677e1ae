// Embedded memcached-like key-value cache, in the spirit of the
// library-linked memcached variant of Kjellqvist et al. (ICPP'20) that the
// paper persists with Montage (§6.2): the client calls into the cache
// directly (no sockets), items carry flags and expiry, and each shard keeps
// a hash index plus an LRU list with capacity-based eviction.
//
// Two implementations share the same interface:
//  * TransientMemCache<Mem> — "DRAM (T)" / "NVM (T)": no persistence.
//  * MontageMemCache        — items are Montage payloads; index and LRU are
//    transient and rebuilt at recovery (LRU recency, like in any restarted
//    cache, resets).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ds/transient.hpp"
#include "montage/recoverable.hpp"
#include "util/inline_str.hpp"
#include "util/padded.hpp"

namespace montage::kvstore {

using CacheKey = util::InlineStr<64>;
using CacheValue = util::InlineStr<1024>;

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

/// Transient reference cache; Mem selects DRAM vs NVM node placement.
template <typename Mem = ds::DramMem>
class TransientMemCache {
 public:
  TransientMemCache(std::size_t nshards, std::size_t capacity_per_shard)
      : shards_(nshards), capacity_(capacity_per_shard) {}

  ~TransientMemCache() {
    for (auto& s : shards_) {
      for (auto& [k, it] : s.index) destroy(*it);
    }
  }

  bool set(const CacheKey& key, const CacheValue& val, uint32_t flags = 0,
           uint64_t exptime = 0) {
    Shard& s = shard_of(key);
    std::lock_guard lk(s.lock);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      Item& item = *it->second;
      item.val = val;
      item.flags = flags;
      item.exptime = exptime;
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return true;
    }
    evict_if_full(s);
    s.lru.push_front(Item{key, val, flags, exptime});
    s.index.emplace(key, s.lru.begin());
    return true;
  }

  std::optional<CacheValue> get(const CacheKey& key, uint32_t* flags = nullptr,
                                uint64_t now = 0) {
    Shard& s = shard_of(key);
    std::lock_guard lk(s.lock);
    auto it = s.index.find(key);
    if (it == s.index.end() || expired(*it->second, now)) {
      if (it != s.index.end()) {
        // Lazy expiry frees the slot; it counts as an eviction so capacity
        // accounting matches what actually left the cache.
        erase(s, it);
        s.evictions.fetch_add(1, std::memory_order_relaxed);
      }
      s.misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    s.hits.fetch_add(1, std::memory_order_relaxed);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    if (flags != nullptr) *flags = it->second->flags;
    return std::optional<CacheValue>(it->second->val);
  }

  bool del(const CacheKey& key) {
    Shard& s = shard_of(key);
    std::lock_guard lk(s.lock);
    auto it = s.index.find(key);
    if (it == s.index.end()) return false;
    erase(s, it);
    return true;
  }

  /// add: only if absent (memcached semantics). An item that has expired by
  /// `now` counts as absent: it is lazily evicted and the add succeeds.
  bool add(const CacheKey& key, const CacheValue& val, uint32_t flags = 0,
           uint64_t exptime = 0, uint64_t now = 0) {
    Shard& s = shard_of(key);
    std::lock_guard lk(s.lock);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      if (!expired(*it->second, now)) return false;
      erase(s, it);
      s.evictions.fetch_add(1, std::memory_order_relaxed);
    }
    evict_if_full(s);
    s.lru.push_front(Item{key, val, flags, exptime});
    s.index.emplace(key, s.lru.begin());
    return true;
  }

  CacheStats stats() const {
    CacheStats out;
    for (const auto& s : shards_) {
      out.hits += s.hits.load(std::memory_order_relaxed);
      out.misses += s.misses.load(std::memory_order_relaxed);
      out.evictions += s.evictions.load(std::memory_order_relaxed);
    }
    return out;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s.index.size();
    return n;
  }

 private:
  struct Item {
    CacheKey key;
    CacheValue val;
    uint32_t flags;
    uint64_t exptime;
  };
  struct alignas(util::kCacheLineSize) Shard {
    std::mutex lock;
    std::list<Item> lru;  // front = most recent
    std::unordered_map<CacheKey, typename std::list<Item>::iterator> index;
    std::atomic<uint64_t> hits{0}, misses{0}, evictions{0};
  };

  static bool expired(const Item& item, uint64_t now) {
    return item.exptime != 0 && now >= item.exptime;
  }

  void evict_if_full(Shard& s) {
    while (s.index.size() >= capacity_) {
      auto last = std::prev(s.lru.end());
      s.index.erase(last->key);
      destroy(*last);
      s.lru.erase(last);
      s.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void erase(Shard& s, typename decltype(Shard::index)::iterator it) {
    destroy(*it->second);
    s.lru.erase(it->second);
    s.index.erase(it);
  }

  void destroy(Item&) {}  // std::list owns the storage here

  Shard& shard_of(const CacheKey& key) {
    return shards_[std::hash<CacheKey>{}(key) % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::size_t capacity_;
};

/// Montage-persistent memcached: items are payloads, everything else is
/// transient. Fully recoverable (modulo the two-epoch window, §3.2).
class MontageMemCache : public Recoverable {
 public:
  static constexpr uint32_t kPayloadTag = 0x4d43;  // 'MC'

  class ItemPayload : public PBlk {
   public:
    ItemPayload() = default;
    ItemPayload(const CacheKey& k, const CacheValue& v, uint32_t f,
                uint64_t e) {
      m_key = k;
      m_val = v;
      m_flags = f;
      m_exptime = e;
    }
    GENERATE_FIELD(CacheKey, key, ItemPayload);
    GENERATE_FIELD(CacheValue, val, ItemPayload);
    GENERATE_FIELD(uint32_t, flags, ItemPayload);
    GENERATE_FIELD(uint64_t, exptime, ItemPayload);
  };

  MontageMemCache(EpochSys* esys, std::size_t nshards,
                  std::size_t capacity_per_shard)
      : Recoverable(esys), shards_(nshards), capacity_(capacity_per_shard) {}

  ~MontageMemCache() override = default;

  bool set(const CacheKey& key, const CacheValue& val, uint32_t flags = 0,
           uint64_t exptime = 0) {
    Shard& s = shard_of(key);
    std::lock_guard lk(s.lock);
    BEGIN_OP_AUTOEND();
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      Item& item = *it->second;
      item.payload = item.payload->set_val(val);
      if (flags != item.payload->get_flags()) {
        item.payload = item.payload->set_flags(flags);
      }
      if (exptime != item.payload->get_exptime()) {
        // An overwrite installs the new item's lifetime — including
        // exptime=0, which revives a key that was about to lapse.
        item.payload = item.payload->set_exptime(exptime);
      }
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return true;
    }
    evict_if_full(s);
    ItemPayload* p = esys_->pnew<ItemPayload>(BlkTag{kPayloadTag}, key, val,
                                              flags, exptime);
    s.lru.push_front(Item{key, p});
    s.index.emplace(key, s.lru.begin());
    return true;
  }

  std::optional<CacheValue> get(const CacheKey& key, uint32_t* flags = nullptr,
                                uint64_t now = 0) {
    Shard& s = shard_of(key);
    std::lock_guard lk(s.lock);
    auto it = s.index.find(key);
    if (it == s.index.end()) {
      s.misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    Item& item = *it->second;
    const uint64_t exp = item.payload->get_exptime();
    if (exp != 0 && now >= exp) {
      // Lazy expiry: remove the item durably. It leaves the cache for good,
      // so it counts as an eviction as well as a miss.
      BEGIN_OP_AUTOEND();
      esys_->pdelete(item.payload);
      s.lru.erase(it->second);
      s.index.erase(it);
      s.misses.fetch_add(1, std::memory_order_relaxed);
      s.evictions.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    s.hits.fetch_add(1, std::memory_order_relaxed);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    if (flags != nullptr) *flags = item.payload->get_flags();
    return std::optional<CacheValue>(item.payload->get_val());
  }

  bool del(const CacheKey& key) {
    Shard& s = shard_of(key);
    std::lock_guard lk(s.lock);
    auto it = s.index.find(key);
    if (it == s.index.end()) return false;
    BEGIN_OP_AUTOEND();
    esys_->pdelete(it->second->payload);
    s.lru.erase(it->second);
    s.index.erase(it);
    return true;
  }

  /// add: only if absent. As in memcached, an item that has expired by `now`
  /// counts as absent — it is lazily evicted and the add succeeds.
  bool add(const CacheKey& key, const CacheValue& val, uint32_t flags = 0,
           uint64_t exptime = 0, uint64_t now = 0) {
    Shard& s = shard_of(key);
    std::lock_guard lk(s.lock);
    BEGIN_OP_AUTOEND();
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      const uint64_t exp = it->second->payload->get_exptime();
      if (exp == 0 || now < exp) return false;
      esys_->pdelete(it->second->payload);
      s.lru.erase(it->second);
      s.index.erase(it);
      s.evictions.fetch_add(1, std::memory_order_relaxed);
    }
    evict_if_full(s);
    ItemPayload* p = esys_->pnew<ItemPayload>(BlkTag{kPayloadTag}, key, val,
                                              flags, exptime);
    s.lru.push_front(Item{key, p});
    s.index.emplace(key, s.lru.begin());
    return true;
  }

  /// memcached incr/decr: numeric string value adjusted by `delta`. The
  /// delta is unsigned with an explicit direction, as in memcached itself —
  /// a signed delta could not represent steps >= 2^63 without overflow.
  /// incr wraps at 2^64, decr saturates at zero (both memcached rules).
  /// Returns the new value, or nullopt on miss or a non-numeric value.
  std::optional<uint64_t> incr(const CacheKey& key, uint64_t delta) {
    return adjust(key, delta, /*negative=*/false);
  }
  std::optional<uint64_t> decr(const CacheKey& key, uint64_t delta) {
    return adjust(key, delta, /*negative=*/true);
  }

  CacheStats stats() const {
    CacheStats out;
    for (const auto& s : shards_) {
      out.hits += s.hits.load(std::memory_order_relaxed);
      out.misses += s.misses.load(std::memory_order_relaxed);
      out.evictions += s.evictions.load(std::memory_order_relaxed);
    }
    return out;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s.index.size();
    return n;
  }

  /// Rebuild the index/LRU from recovered payloads (recency is reset, as in
  /// any restarted cache).
  void recover(const std::vector<PBlk*>& blocks) {
    for (PBlk* b : blocks) {
      auto* p = static_cast<ItemPayload*>(b);
      if (p->blk_tag() != kPayloadTag) continue;
      Shard& s = shard_of(p->get_unsafe_key());
      std::lock_guard lk(s.lock);
      s.lru.push_front(Item{p->get_unsafe_key(), p});
      s.index.emplace(p->get_unsafe_key(), s.lru.begin());
    }
  }

 private:
  struct Item {
    CacheKey key;
    ItemPayload* payload;
  };
  struct alignas(util::kCacheLineSize) Shard {
    std::mutex lock;
    std::list<Item> lru;
    std::unordered_map<CacheKey, typename std::list<Item>::iterator> index;
    std::atomic<uint64_t> hits{0}, misses{0}, evictions{0};
  };

  std::optional<uint64_t> adjust(const CacheKey& key, uint64_t delta,
                                 bool negative) {
    Shard& s = shard_of(key);
    std::lock_guard lk(s.lock);
    auto it = s.index.find(key);
    if (it == s.index.end()) return std::nullopt;
    Item& item = *it->second;
    const std::string cur = item.payload->get_val().str();
    if (cur.empty() ||
        cur.find_first_not_of("0123456789") != std::string::npos) {
      return std::nullopt;
    }
    uint64_t v = std::strtoull(cur.c_str(), nullptr, 10);
    if (negative) {
      v = delta > v ? 0 : v - delta;  // decr saturates at zero
    } else {
      v += delta;  // incr wraps at 2^64
    }
    BEGIN_OP_AUTOEND();
    item.payload = item.payload->set_val(CacheValue(std::to_string(v)));
    return v;
  }

  /// Caller holds the shard lock and an active operation.
  void evict_if_full(Shard& s) {
    while (s.index.size() >= capacity_) {
      auto last = std::prev(s.lru.end());
      esys_->pdelete(last->payload);
      s.index.erase(last->key);
      s.lru.erase(last);
      s.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Shard& shard_of(const CacheKey& key) {
    return shards_[std::hash<CacheKey>{}(key) % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::size_t capacity_;
};

}  // namespace montage::kvstore

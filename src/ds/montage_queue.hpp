// Montage queue (paper §6.1): single-lock FIFO queue. Payloads carry the
// value and a serial number; the order of serial numbers *is* the abstract
// queue order, so recovery just sorts (paper §3: "a queue needs to keep its
// items and their order: it might label payloads with consecutive
// integers").
#pragma once

#include <algorithm>
#include <deque>
#include <mutex>
#include <optional>

#include "montage/recoverable.hpp"

namespace montage::ds {

template <typename V>
class MontageQueue : public Recoverable {
 public:
  static constexpr uint32_t kPayloadTag = 0x4d51;  // 'MQ'

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

  explicit MontageQueue(EpochSys* esys) : Recoverable(esys) {}

  void enqueue(const V& val) {
    std::lock_guard lk(lock_);
    BEGIN_OP_AUTOEND();
    Payload* p = esys_->pnew<Payload>(BlkTag{kPayloadTag}, val, next_sn_++);
    items_.push_back(p);
  }

  std::optional<V> dequeue() {
    std::lock_guard lk(lock_);
    BEGIN_OP_AUTOEND();
    if (items_.empty()) return std::nullopt;
    Payload* p = items_.front();
    items_.pop_front();
    std::optional<V> ret(p->get_val());
    esys_->pdelete(p);
    return ret;
  }

  std::optional<V> peek() {
    std::lock_guard lk(lock_);
    if (items_.empty()) return std::nullopt;
    return std::optional<V>(items_.front()->get_val());
  }

  std::size_t size() {
    std::lock_guard lk(lock_);
    return items_.size();
  }

  bool empty() { return size() == 0; }

  /// Rebuild from recovered payloads: sort by serial number.
  void recover(const std::vector<PBlk*>& blocks) {
    std::lock_guard lk(lock_);
    for (PBlk* b : blocks) {
      auto* p = static_cast<Payload*>(b);
      if (p->blk_tag() != kPayloadTag) continue;
      items_.push_back(p);
    }
    std::sort(items_.begin(), items_.end(), [](Payload* a, Payload* b) {
      return a->get_unsafe_sn() < b->get_unsafe_sn();
    });
    next_sn_ = items_.empty() ? 1 : items_.back()->get_unsafe_sn() + 1;
  }

  /// As above, also retaining the epoch system's RecoveryReport.
  void recover(const std::vector<PBlk*>& blocks, const RecoveryReport& report) {
    recovery_report_ = report;
    recover(blocks);
  }

 private:
  std::mutex lock_;
  std::deque<Payload*> items_;  ///< transient index, front = head
  uint64_t next_sn_ = 1;
};

}  // namespace montage::ds

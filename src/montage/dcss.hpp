// Epoch-verified CAS and load for nonblocking Montage structures (paper
// §3.2/§3.3). cas_verify updates a 64-bit location only if the epoch clock
// still equals the operation's epoch, atomically — a variant of Harris et
// al.'s double-compare-single-swap built from in-word descriptors. The
// matching load helps any in-progress DCSS but performs no stores otherwise,
// so read-mostly workloads induce no extra cache evictions (paper
// load_verify2).
//
// A successful cas_verify linearizes at a moment when the clock held the
// operation's epoch, which gives the structure property 3 of §3.2: the
// operation linearizes in the epoch whose label its payloads carry.
//
// Descriptors are per-thread-slot and reused ("Reuse, don't recycle",
// Arbel-Raviv & Brown, DISC 2017). A use is identified by an even sequence
// number `use` of the slot's descriptor, and both words a helper may CAS
// carry it:
//
//   * the decision word holds (use << 2) | outcome, so a slow helper can
//     never decide a later use;
//   * the installed word names the use, not only the descriptor:
//
//       bit 0        mark (1 = descriptor, 0 = payload value)
//       bits 1..8    thread slot (kTidBits = 8; ThreadIdPool::kMaxThreads
//                    <= 256)
//       bits 9..63   use >> 1 (55 bits)
//
//     so a slow helper can never complete a later use either.
//
// The word must carry the use because the decision alone cannot stop a
// stale helper. Were the word only the marked descriptor address, a helper
// of use U1 that passed every check and then stalled before its word CAS
// could, once the owner had finished U1 and installed U2 on the same
// location, swing U2's identical word to U1's old or new value; the owner's
// own CAS for U2 would then fail while U2's decision still said it
// succeeded, losing the update. With the use in the word that stale CAS
// fails. Distinct uses of one slot get distinct words until the use counter
// wraps its 55 bits: 2^55 uses of one thread slot, which no run reaches.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "montage/epoch_sys.hpp"
#include "util/padded.hpp"
#include "util/threadid.hpp"

namespace montage {

namespace dcss_detail {

enum : uint64_t { kUndecided = 0, kSucceeded = 1, kFailed = 2 };

// The payload fields form a seqlock with `seq`: the owner rewrites them
// while `seq` is odd, and helpers read them racily, then re-check `seq`.
// They are relaxed atomics so that the racing reads are well defined.
struct alignas(util::kCacheLineSize) Descriptor {
  std::atomic<uint64_t> seq{0};      ///< odd while the owner (re)fills fields
  std::atomic<uint64_t> decision{0};  ///< (use_seq << 2) | outcome
  std::atomic<uint64_t> expected_epoch{0};
  std::atomic<uint64_t> old_val{0};
  std::atomic<uint64_t> new_val{0};
  std::atomic<const std::atomic<uint64_t>*> clock{nullptr};
};

/// The descriptor of thread slot `tid`, reused by every use of that slot.
inline Descriptor& descriptor(int tid) {
  static Descriptor descs[util::ThreadIdPool::kMaxThreads];
  return descs[tid];
}

constexpr uint64_t kMark = 1;
constexpr int kTidBits = 8;
constexpr uint64_t kTidMask = (uint64_t{1} << kTidBits) - 1;
static_assert(util::ThreadIdPool::kMaxThreads <= (1 << kTidBits),
              "the installed DCSS word has kTidBits for the thread slot");

/// True if `w` is an installed descriptor word rather than a value.
inline bool is_marked(uint64_t w) { return (w & kMark) != 0; }
/// The word that use `use` (even) of slot `tid`'s descriptor installs.
inline uint64_t tagged_word(int tid, uint64_t use) {
  return ((use >> 1) << (1 + kTidBits)) |
         (static_cast<uint64_t>(tid) << 1) | kMark;
}
/// The thread slot named by the installed word `w`.
inline int word_tid(uint64_t w) {
  return static_cast<int>((w >> 1) & kTidMask);
}

}  // namespace dcss_detail

/// A 64-bit atomic whose updates can be conditioned on the epoch clock.
/// T must fit in 63 bits of payload: pointers to 2-byte-or-more aligned
/// objects are stored as-is; integers are shifted left one bit.
template <typename T>
class AtomicVerifiable {
  static_assert(sizeof(T) <= 8);

 public:
  AtomicVerifiable() : word_(encode(T{})) {}  // holds T{}
  explicit AtomicVerifiable(T v) : word_(encode(v)) {}  // holds v

  /// Load that helps any in-progress DCSS first; no stores otherwise.
  T load() const {
    while (true) {
      const uint64_t w = word_.load(std::memory_order_acquire);
      if (!dcss_detail::is_marked(w)) return decode(w);
      complete(w);
    }
  }

  /// Unconditional store (initialization / single-threaded paths only).
  void store(T v) { word_.store(encode(v), std::memory_order_release); }

  /// Plain CAS that helps descriptors (transient-mode structures).
  bool cas(T expected, T desired) {
    const uint64_t e = encode(expected);
    while (true) {
      uint64_t w = word_.load(std::memory_order_acquire);
      if (dcss_detail::is_marked(w)) {
        complete(w);
        continue;
      }
      if (w != e) return false;
      if (word_.compare_exchange_weak(w, encode(desired),
                                      std::memory_order_acq_rel)) {
        return true;
      }
    }
  }

  /// CAS `expected` -> `desired` only if `esys`'s clock still equals the
  /// calling operation's epoch. Returns false on value mismatch; throws
  /// EpochVerifyException when the epoch moved (the caller rolls back and
  /// restarts in the new epoch, paper §3.3).
  bool cas_verify(EpochSys* esys, T expected, T desired) {
    using namespace dcss_detail;
    telemetry::count(telemetry::Ctr::kCasVerifyCalls);
    const int tid = util::thread_id();
    Descriptor& d = descriptor(tid);
    const uint64_t expected_w = encode(expected);

    // Prepare under an odd sequence number so helpers never act on a
    // half-written snapshot, then go live with a fresh even number (the
    // writer half of the seqlock that complete() reads).
    d.seq.fetch_add(1, std::memory_order_relaxed);  // -> odd
    std::atomic_thread_fence(std::memory_order_release);
    d.old_val.store(expected_w, std::memory_order_relaxed);
    d.new_val.store(encode(desired), std::memory_order_relaxed);
    d.clock.store(&esys->epoch_clock(), std::memory_order_relaxed);
    d.expected_epoch.store(esys->active_op_epoch(), std::memory_order_relaxed);
    const uint64_t use = d.seq.load(std::memory_order_relaxed) + 1;  // even
    d.decision.store((use << 2) | kUndecided, std::memory_order_relaxed);
    d.seq.store(use, std::memory_order_release);  // live
    const uint64_t mine = tagged_word(tid, use);

    while (true) {
      uint64_t w = word_.load(std::memory_order_acquire);
      if (is_marked(w)) {
        telemetry::count(telemetry::Ctr::kCasVerifyRetries);
        complete(w);
        continue;
      }
      if (w != expected_w) return false;
      if (word_.compare_exchange_weak(w, mine, std::memory_order_acq_rel)) {
        break;
      }
      telemetry::count(telemetry::Ctr::kCasVerifyRetries);
    }
    complete(mine);
    const uint64_t dec = d.decision.load(std::memory_order_acquire);
    // Only this thread advances the descriptor to its next use, so the
    // decision still belongs to `use` here.
    if ((dec & 3) == kFailed) {
      telemetry::count(telemetry::Ctr::kCasVerifyEpochFails);
      throw EpochVerifyException{};
    }
    return true;
  }

 private:
  static uint64_t encode(T v) {
    if constexpr (std::is_pointer_v<T>) {
      return reinterpret_cast<uint64_t>(v);
    } else {
      return static_cast<uint64_t>(v) << 1;  // keep the mark bit clear
    }
  }
  static T decode(uint64_t w) {
    if constexpr (std::is_pointer_v<T>) {
      return reinterpret_cast<T>(w);
    } else {
      return static_cast<T>(w >> 1);
    }
  }

  /// Finish the DCSS use that installed the tagged word `w`, read from
  /// word_: the owner calls this for its own use, and every reader that
  /// finds a descriptor calls it to help. The word itself names the
  /// descriptor slot and the use. Decide the outcome from the epoch clock
  /// exactly once, then swing the word from exactly `w` to the old or new
  /// value, so a helper of an earlier use cannot swing a later one. Returns
  /// early, for the caller to reload the word, once that use is over.
  void complete(uint64_t w) const {
    using namespace dcss_detail;
    const int tid = word_tid(w);
    Descriptor* d = &descriptor(tid);
    // Seqlock read: snapshot the fields, then confirm they belong to the
    // use that `w` names. The word was read with acquire after the owner
    // published that use, so the snapshot is no older than it; the fence
    // orders the snapshot before the re-check, so a newer one shows there.
    const uint64_t old_v = d->old_val.load(std::memory_order_relaxed);
    const uint64_t new_v = d->new_val.load(std::memory_order_relaxed);
    const std::atomic<uint64_t>* clock =
        d->clock.load(std::memory_order_relaxed);
    const uint64_t expected_epoch =
        d->expected_epoch.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t use = d->seq.load(std::memory_order_relaxed);
    // An odd seq means the owner is preparing a later use, so ours is over.
    if (use % 2 != 0 || tagged_word(tid, use) != w) return;

    uint64_t dec = d->decision.load(std::memory_order_acquire);
    if ((dec >> 2) != use) return;  // decision already moved to a later use
    if ((dec & 3) == kUndecided) {
      const bool ok =
          clock->load(std::memory_order_seq_cst) == expected_epoch;
      const uint64_t want = (use << 2) | (ok ? kSucceeded : kFailed);
      d->decision.compare_exchange_strong(dec, want,
                                          std::memory_order_acq_rel);
      dec = d->decision.load(std::memory_order_acquire);
      if ((dec >> 2) != use) return;
    }
    uint64_t expect = w;
    word_.compare_exchange_strong(
        expect, (dec & 3) == kSucceeded ? new_v : old_v,
        std::memory_order_acq_rel);
  }

  mutable std::atomic<uint64_t> word_;
};

}  // namespace montage

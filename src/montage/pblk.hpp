// Persistent payload blocks.
//
// A PBlk is the only kind of data Montage ever places in NVM. Its header
// carries the labels the epoch system and recovery need:
//   * blktype — ALLOC (fresh), UPDATE (a clone of an older-epoch payload),
//     or DELETE (an anti-payload nullifying the same uid);
//   * epoch   — the epoch in which this version was created/modified;
//   * uid     — the logical object identity shared by all versions of a
//     payload and by its anti-payload.
//
// Recovery keeps, for each uid, the version with the greatest epoch among
// blocks labeled at most crash_epoch - 2; if that version is a DELETE, the
// object is gone.
//
// Payload types derive from PBlk, declare fields with GENERATE_FIELD (see
// recoverable.hpp), and MUST be trivially copyable: Montage clones payloads
// with memcpy and reinterprets raw NVM as payload objects at recovery, so no
// vtables, no owning members. Use util::InlineStr for string data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace montage {

enum class BlkType : uint32_t {
  kAlloc = 1,
  kUpdate = 2,
  kDelete = 3,
};

inline constexpr uint64_t kPBlkMagic = 0x50424C4B4C495645ull;  // "PBLKLIVE"
inline constexpr uint64_t kPBlkDead = 0x50424C4B44454144ull;   // "PBLKDEAD"
inline constexpr uint64_t kNoEpoch = ~0ull;

class EpochSys;

/// Structure-defined payload kind, for containers persisting more than one
/// payload type (e.g. graph vertices vs edges). Passed as the first argument
/// of EpochSys::pnew, which writes it into the header before the block is
/// registered for write-back.
struct BlkTag {
  uint32_t value;
};

class PBlk {
 public:
  PBlk() = default;

  uint64_t blk_epoch() const { return epoch_; }
  uint64_t blk_uid() const { return uid_; }
  BlkType blk_type() const { return static_cast<BlkType>(blktype_); }
  uint32_t blk_tag() const { return user_tag_; }
  uint64_t blk_size() const { return size_; }
  bool blk_live() const { return magic_ == kPBlkMagic; }

  /// Rewrite the tag of a header COPY, e.g. one read out of a crash image
  /// for offline inspection. Never call it on a live payload: its header may
  /// already be sealed by a concurrent drain, and the store would leave the
  /// checksum stale. Live payloads take their tag from pnew (BlkTag).
  void set_blk_tag(uint32_t tag) { user_tag_ = tag; }

  /// Mixes every header word into a 64-bit check word (never 0, so the
  /// zero-initialized "never sealed" state can never verify). EpochSys seals
  /// the header at write-back time; the recovery perusal recomputes and
  /// quarantines blocks whose stored word disagrees — a torn header (the
  /// 48-byte header may straddle a cache-line boundary) or a line the cache
  /// evicted mid-write.
  uint64_t blk_header_checksum() const {
    uint64_t h = 0x4d4f4e5441474531ull;  // "MONTAGE1"
    const uint64_t words[] = {magic_, epoch_, uid_,
                              (static_cast<uint64_t>(blktype_) << 32) |
                                  blk_tag(),
                              size_};
    for (uint64_t w : words) {
      h ^= w;
      h *= 0x9e3779b97f4a7c15ull;  // splitmix64-style diffusion
      h ^= h >> 32;
    }
    return h | 1;
  }
  bool blk_checksum_ok() const { return checksum_ == blk_header_checksum(); }

 private:
  friend class EpochSys;

  /// Stamp the checksum; called on the write-back path just before the
  /// header lines are flushed.
  void blk_seal() { checksum_ = blk_header_checksum(); }

  uint64_t magic_ = 0;
  uint64_t epoch_ = kNoEpoch;
  uint64_t uid_ = 0;

  uint32_t blktype_ = 0;
  uint32_t user_tag_ = 0;
  uint64_t size_ = 0;
  uint64_t checksum_ = 0;
};

static_assert(std::is_trivially_copyable_v<PBlk>);
static_assert(sizeof(PBlk) == 48);

}  // namespace montage

// Persistent size-class allocator modeled on Ralloc (Cai et al., ISMM'20),
// the allocator Montage is built on. The properties Montage depends on:
//
//  * allocation and deallocation touch only TRANSIENT metadata — no
//    write-back or fence instructions on the hot path;
//  * the only persistent metadata is a once-written, once-flushed descriptor
//    line at the head of each superblock (size class / huge extent);
//  * after a crash, the allocator can be rebuilt by perusing every block of
//    every superblock; the caller (Montage recovery) decides per block
//    whether it is live, and everything else returns to the free lists.
//
// Layout: the region's arena is carved into 256 KiB superblocks. A small
// superblock dedicates itself to one size class and carves the rest of its
// space into equal blocks; a huge allocation takes N contiguous superblocks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "nvm/region.hpp"
#include "util/padded.hpp"

namespace montage::ralloc {

/// A structurally invalid piece of persistent allocator metadata found while
/// rebuilding after a crash: which structure was corrupt, and where.
/// Mode::kRecoverStrict throws these; Mode::kRecover (the default recovery
/// path) records them in the RecoverySummary and salvages around the damage.
struct RecoveryError : public std::runtime_error {
  enum class Kind {
    kSuperblockCount,  ///< persisted high-water mark exceeds the arena
    kHugeExtent,       ///< huge descriptor with zero/overflowing length
    kSizeClass,        ///< small descriptor naming an unknown size class
    kDescriptor,       ///< descriptor magic is neither small nor huge
  };
  RecoveryError(Kind k, std::size_t sb_index);
  Kind kind;
  std::size_t sb_index;  ///< superblock index of the corrupt structure
};

/// What corruption-tolerant recovery had to do to bring the allocator up.
struct RecoverySummary {
  std::size_t salvaged_superblocks = 0;  ///< slots quarantined or re-derived
  bool count_rebuilt = false;  ///< high-water mark re-derived by scanning
  std::vector<RecoveryError> errors;  ///< every corruption encountered
};

class Ralloc {
 public:
  static constexpr std::size_t kSuperblockSize = 256 * 1024;
  static constexpr std::size_t kSbHeader = 64;
  static constexpr uint64_t kSbMagicSmall = 0x52414C4C4F435342ull;  // "RALLOCSB"
  static constexpr uint64_t kSbMagicHuge = 0x52414C4C4F434847ull;   // "RALLOCHG"
  static constexpr int kMaxThreads = 256;
  /// Upper bound on size classes (actual count lives in the .cpp).
  static constexpr int kMaxClasses = 32;

  /// Persistent superblock descriptor; first line of each superblock.
  struct SbMeta {
    uint64_t magic;
    uint32_t block_size;  ///< small: bytes per block
    uint32_t num_sbs;     ///< huge: extent length in superblocks
  };

  enum class Mode {
    kFresh,    ///< format the arena (discard any previous contents)
    kRecover,  ///< rebuild from superblock descriptors, salvaging around
               ///< corrupt metadata (quarantined slots are never reused)
    kRecoverStrict,  ///< as kRecover, but throw RecoveryError on the first
                     ///< corrupt structure instead of salvaging
  };

  /// One arena: a central free list per size class, shared by every
  /// thread behind small per-thread caches.
  Ralloc(nvm::Region* region, Mode mode);
  ~Ralloc();

  /// Process-default instance (the first constructed), used by transient
  /// structures configured to place their nodes in NVM ("NVM (T)").
  static Ralloc* default_instance();
  static void set_default_instance(Ralloc* r);

  /// Allocate `sz` bytes of persistent memory. Never flushes.
  void* allocate(std::size_t sz);

  /// Return a block to the free lists. Never flushes. The block's contents
  /// are left untouched (Montage invalidates headers itself before freeing).
  void deallocate(void* p);

  /// Capacity of the block containing p (>= the requested size).
  std::size_t block_size(const void* p) const;

  bool contains(const void* p) const { return region_->contains(p); }

  /// Recovery perusal: visit every block of every extent whose ordinal is
  /// congruent to `shard` mod `nshards`, so `nshards` threads can split the
  /// walk. `keep` returns true for blocks that are live; all others go back
  /// to the free lists. All shards must be visited exactly once before
  /// normal allocation resumes (Mode::kRecover construction leaves every
  /// free list empty until then).
  void recover_blocks(int shard, int nshards,
                      const std::function<bool(void*, std::size_t)>& keep);

  /// Convenience: run recover_blocks over `nthreads` std::threads.
  void recover_all(const std::function<bool(void*, std::size_t)>& keep,
                   int nthreads = 1);

  struct Stats {
    std::size_t superblocks = 0;
    std::size_t huge_extents = 0;
    std::size_t bytes_reserved = 0;
  };
  Stats stats() const;

  /// What the kRecover construction had to salvage (empty after kFresh).
  const RecoverySummary& recovery_summary() const { return summary_; }

  nvm::Region* region() const { return region_; }

 private:
  struct SizeClass {
    std::mutex m;
    std::vector<void*> free_blocks;
  };
  struct ThreadCache {
    std::mutex m;  // nearly always uncontended; guards against tid reuse
    std::vector<void*> blocks[kMaxClasses];
  };

  static int class_index(std::size_t sz);
  static std::size_t class_size(int idx);

  char* sb_base(std::size_t idx) const {
    return region_->arena_begin() + idx * kSuperblockSize;
  }
  SbMeta* sb_meta(std::size_t idx) const {
    return reinterpret_cast<SbMeta*>(sb_base(idx));
  }
  std::size_t sb_index_of(const void* p) const {
    return static_cast<std::size_t>(static_cast<const char*>(p) -
                                    region_->arena_begin()) /
           kSuperblockSize;
  }
  std::size_t max_superblocks() const {
    return (region_->size() - nvm::Region::kHeaderSize) / kSuperblockSize;
  }

  /// One validated run of superblocks: a small-class superblock, a huge
  /// extent, or a quarantined slot salvage skipped. Built by the recovery
  /// walk (and appended by reserve_superblocks) so the perusal never
  /// re-reads a descriptor that failed validation.
  struct Extent {
    std::size_t start;
    uint32_t len;         ///< superblocks covered
    uint32_t block_size;  ///< small extents only
    bool huge;
    bool quarantined;
  };

  /// Carve a fresh superblock for class `cls` and push its blocks into the
  /// central list. Caller holds classes_[cls].m.
  void refill_class(int cls);
  std::size_t reserve_superblocks(uint32_t n, uint64_t magic,
                                  uint32_t block_size);
  void* allocate_huge(std::size_t sz);
  void deallocate_huge(void* p, const SbMeta* meta);

  /// Walk descriptors [0, count), validating each into extents_. Strict mode
  /// throws RecoveryError at the first corruption; salvage mode quarantines
  /// the slot and records the error in summary_.
  void validate_descriptors(uint64_t count, bool strict);
  /// Re-derive the superblock high-water mark by scanning from slot 0 while
  /// descriptors chain validly (used when the persisted count is corrupt).
  uint64_t rebuild_superblock_count() const;

  ThreadCache& my_cache();

  nvm::Region* region_;
  // Persistent count of fully initialized superblocks (a region root).
  std::atomic<uint64_t>* sb_count_;
  std::mutex sb_mutex_;  // serializes (rare) superblock creation
  SizeClass classes_[kMaxClasses];  // central free list per size class
  std::mutex huge_mutex_;
  std::map<uint32_t, std::vector<void*>> huge_free_;  // extent len -> heads
  std::unique_ptr<ThreadCache[]> caches_;
  std::atomic<std::size_t> huge_extents_{0};
  std::vector<Extent> extents_;  // guarded by sb_mutex_ after construction
  RecoverySummary summary_;
  // Telemetry gauges mirroring stats(); unregistered in the destructor.
  int gauge_sbs_ = -1;
  int gauge_bytes_ = -1;
};

}  // namespace montage::ralloc

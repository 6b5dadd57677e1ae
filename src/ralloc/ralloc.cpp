#include "ralloc/ralloc.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/telemetry.hpp"

namespace montage::ralloc {

namespace {

// Size classes chosen ~1.5x apart; all multiples of 16 so blocks stay
// 16-byte aligned (superblock bases are page-aligned, headers are 64 B).
constexpr std::size_t kClassSizes[] = {
    32,    48,    64,    96,    128,   192,   256,   384,
    512,   768,   1024,  1536,  2048,  3072,  4096,  6144,
    8192,  12288, 16384, 24576, 32768, 49152, 65536};
constexpr int kNumClasses = static_cast<int>(std::size(kClassSizes));
static_assert(kNumClasses <= Ralloc::kMaxClasses,
              "classes_ must cover every size class");
constexpr std::size_t kMaxSmall = kClassSizes[kNumClasses - 1];
constexpr std::size_t kCacheBatch = 32;

std::atomic<int> next_ralloc_tid{0};
thread_local int ralloc_tid = -1;

int my_ralloc_tid() {
  if (ralloc_tid < 0) {
    ralloc_tid = next_ralloc_tid.fetch_add(1, std::memory_order_relaxed) %
                 Ralloc::kMaxThreads;
  }
  return ralloc_tid;
}

// Root slot reserved for the allocator's superblock high-water mark.
constexpr int kSbCountRoot = 0;

std::atomic<Ralloc*> g_default_ralloc{nullptr};

const char* kind_name(RecoveryError::Kind k) {
  switch (k) {
    case RecoveryError::Kind::kSuperblockCount:
      return "superblock count";
    case RecoveryError::Kind::kHugeExtent:
      return "huge extent";
    case RecoveryError::Kind::kSizeClass:
      return "size class";
    case RecoveryError::Kind::kDescriptor:
      return "superblock descriptor";
  }
  return "metadata";
}

}  // namespace

RecoveryError::RecoveryError(Kind k, std::size_t idx)
    : std::runtime_error(std::string("ralloc: corrupt ") + kind_name(k) +
                         " at superblock " + std::to_string(idx)),
      kind(k),
      sb_index(idx) {}

Ralloc* Ralloc::default_instance() {
  return g_default_ralloc.load(std::memory_order_acquire);
}

void Ralloc::set_default_instance(Ralloc* r) {
  g_default_ralloc.store(r, std::memory_order_release);
}

Ralloc::~Ralloc() {
  telemetry::unregister_gauge(gauge_sbs_);
  telemetry::unregister_gauge(gauge_bytes_);
  Ralloc* self = this;
  g_default_ralloc.compare_exchange_strong(self, nullptr,
                                           std::memory_order_acq_rel);
}

int Ralloc::class_index(std::size_t sz) {
  for (int i = 0; i < kNumClasses; ++i) {
    if (sz <= kClassSizes[i]) return i;
  }
  return -1;  // huge
}

std::size_t Ralloc::class_size(int idx) { return kClassSizes[idx]; }

Ralloc::Ralloc(nvm::Region* region, Mode mode)
    : region_(region),
      sb_count_(&region->root(kSbCountRoot)),
      caches_(std::make_unique<ThreadCache[]>(kMaxThreads)) {
  Ralloc* expected = nullptr;
  g_default_ralloc.compare_exchange_strong(expected, this,
                                           std::memory_order_acq_rel);
  gauge_sbs_ = telemetry::register_gauge("ralloc.superblocks", "sbs", [this] {
    return sb_count_->load(std::memory_order_relaxed);
  });
  gauge_bytes_ =
      telemetry::register_gauge("ralloc.bytes_reserved", "bytes", [this] {
        return sb_count_->load(std::memory_order_relaxed) * kSuperblockSize;
      });
  if (mode == Mode::kFresh) {
    sb_count_->store(0, std::memory_order_relaxed);
    region_->persist_fence(sb_count_, sizeof(*sb_count_));
    return;
  }
  // kRecover / kRecoverStrict: trust only fully initialized superblocks
  // (those below the persisted high-water mark with a valid descriptor).
  // Free lists stay empty until recover_blocks() classifies every slot.
  const bool strict = mode == Mode::kRecoverStrict;
  uint64_t count = sb_count_->load(std::memory_order_relaxed);
  if (count > max_superblocks()) {
    if (strict) throw RecoveryError(RecoveryError::Kind::kSuperblockCount,
                                    static_cast<std::size_t>(count));
    // Salvage: the root word is garbage; re-derive the high-water mark by
    // scanning the arena while descriptors chain validly. Descriptors are
    // flushed before the count is published, so every real superblock is
    // reachable this way; the rebuilt count is re-published durably so the
    // next crash does not have to salvage again.
    summary_.errors.emplace_back(RecoveryError::Kind::kSuperblockCount,
                                 static_cast<std::size_t>(count));
    count = rebuild_superblock_count();
    summary_.count_rebuilt = true;
    summary_.salvaged_superblocks += count;
    sb_count_->store(count, std::memory_order_relaxed);
    region_->persist_fence(sb_count_, sizeof(*sb_count_));
  }
  validate_descriptors(count, strict);
}

uint64_t Ralloc::rebuild_superblock_count() const {
  std::size_t idx = 0;
  const std::size_t max = max_superblocks();
  while (idx < max) {
    const SbMeta* meta = sb_meta(idx);
    if (meta->magic == kSbMagicSmall && class_index(meta->block_size) >= 0 &&
        class_size(class_index(meta->block_size)) == meta->block_size) {
      idx += 1;
    } else if (meta->magic == kSbMagicHuge && meta->num_sbs > 0 &&
               idx + meta->num_sbs <= max) {
      idx += meta->num_sbs;
    } else {
      break;
    }
  }
  return idx;
}

void Ralloc::validate_descriptors(uint64_t count, bool strict) {
  auto corrupt = [&](RecoveryError::Kind kind, std::size_t idx) {
    if (strict) throw RecoveryError(kind, idx);
    // Salvage: quarantine this slot — it is skipped by the perusal and never
    // returned to a free list — and resume the walk at the next slot.
    summary_.errors.emplace_back(kind, idx);
    summary_.salvaged_superblocks += 1;
    extents_.push_back({idx, 1, 0, false, true});
  };
  std::size_t idx = 0;
  while (idx < count) {
    SbMeta* meta = sb_meta(idx);
    if (meta->magic == kSbMagicHuge) {
      if (meta->num_sbs == 0 || idx + meta->num_sbs > count) {
        corrupt(RecoveryError::Kind::kHugeExtent, idx);
        idx += 1;
        continue;
      }
      extents_.push_back({idx, meta->num_sbs, 0, true, false});
      huge_extents_.fetch_add(1, std::memory_order_relaxed);
      idx += meta->num_sbs;
    } else if (meta->magic == kSbMagicSmall) {
      if (class_index(meta->block_size) < 0 ||
          class_size(class_index(meta->block_size)) != meta->block_size) {
        corrupt(RecoveryError::Kind::kSizeClass, idx);
        idx += 1;
        continue;
      }
      extents_.push_back({idx, 1, meta->block_size, false, false});
      idx += 1;
    } else {
      corrupt(RecoveryError::Kind::kDescriptor, idx);
      idx += 1;
    }
  }
}

Ralloc::ThreadCache& Ralloc::my_cache() { return caches_[my_ralloc_tid()]; }

std::size_t Ralloc::reserve_superblocks(uint32_t n, uint64_t magic,
                                        uint32_t block_size) {
  std::lock_guard lk(sb_mutex_);
  const uint64_t start = sb_count_->load(std::memory_order_relaxed);
  if (start + n > max_superblocks()) {
    throw std::bad_alloc();
  }
  SbMeta* meta = sb_meta(start);
  meta->block_size = block_size;
  meta->num_sbs = n;
  meta->magic = magic;
  region_->persist(meta, sizeof(*meta));
  region_->fence();
  // Publish only after the descriptor is durable, so a crash can never
  // expose an initialized count covering a garbage descriptor.
  sb_count_->store(start + n, std::memory_order_release);
  region_->persist_fence(sb_count_, sizeof(*sb_count_));
  extents_.push_back({static_cast<std::size_t>(start), n, block_size,
                      magic == kSbMagicHuge, false});
  telemetry::count(telemetry::Ctr::kRallocSuperblocks, n);
  return start;
}

void Ralloc::refill_class(int cls) {
  const std::size_t bsz = class_size(cls);
  const std::size_t idx = reserve_superblocks(1, kSbMagicSmall,
                                              static_cast<uint32_t>(bsz));
  char* blocks = sb_base(idx) + kSbHeader;
  const std::size_t nblocks = (kSuperblockSize - kSbHeader) / bsz;
  auto& list = classes_[cls].free_blocks;
  list.reserve(list.size() + nblocks);
  for (std::size_t i = 0; i < nblocks; ++i) {
    list.push_back(blocks + i * bsz);
  }
}

void* Ralloc::allocate(std::size_t sz) {
  telemetry::count(telemetry::Ctr::kRallocAllocs);
  if (sz == 0) sz = 1;
  const int cls = class_index(sz);
  if (cls < 0) return allocate_huge(sz);

  ThreadCache& cache = my_cache();
  {
    std::lock_guard lk(cache.m);
    auto& local = cache.blocks[cls];
    if (!local.empty()) {
      void* p = local.back();
      local.pop_back();
      return p;
    }
  }
  // Refill from central (creating a superblock if needed), keep one, stash
  // the rest of the batch locally.
  std::vector<void*> batch;
  {
    std::lock_guard lk(classes_[cls].m);
    if (classes_[cls].free_blocks.empty()) refill_class(cls);
    auto& central = classes_[cls].free_blocks;
    const std::size_t take = std::min(kCacheBatch, central.size());
    batch.assign(central.end() - take, central.end());
    central.resize(central.size() - take);
  }
  void* p = batch.back();
  batch.pop_back();
  if (!batch.empty()) {
    std::lock_guard lk(cache.m);
    auto& local = cache.blocks[cls];
    local.insert(local.end(), batch.begin(), batch.end());
  }
  return p;
}

void Ralloc::deallocate(void* p) {
  if (p == nullptr) return;
  telemetry::count(telemetry::Ctr::kRallocFrees);
  assert(contains(p));
  const SbMeta* meta = sb_meta(sb_index_of(p));
  if (meta->magic == kSbMagicHuge) {
    deallocate_huge(p, meta);
    return;
  }
  assert(meta->magic == kSbMagicSmall);
  const int cls = class_index(meta->block_size);
  ThreadCache& cache = my_cache();
  std::vector<void*> overflow;
  {
    std::lock_guard lk(cache.m);
    auto& local = cache.blocks[cls];
    local.push_back(p);
    if (local.size() > 2 * kCacheBatch) {
      overflow.assign(local.end() - kCacheBatch, local.end());
      local.resize(local.size() - kCacheBatch);
    }
  }
  if (!overflow.empty()) {
    std::lock_guard lk(classes_[cls].m);
    auto& central = classes_[cls].free_blocks;
    central.insert(central.end(), overflow.begin(), overflow.end());
  }
}

std::size_t Ralloc::block_size(const void* p) const {
  assert(contains(p));
  const SbMeta* meta = sb_meta(sb_index_of(p));
  if (meta->magic == kSbMagicHuge) {
    return meta->num_sbs * kSuperblockSize - kSbHeader;
  }
  assert(meta->magic == kSbMagicSmall);
  return meta->block_size;
}

void* Ralloc::allocate_huge(std::size_t sz) {
  telemetry::count(telemetry::Ctr::kRallocHugeAllocs);
  const uint32_t nsbs = static_cast<uint32_t>(
      (sz + kSbHeader + kSuperblockSize - 1) / kSuperblockSize);
  {
    std::lock_guard lk(huge_mutex_);
    auto it = huge_free_.find(nsbs);
    if (it != huge_free_.end() && !it->second.empty()) {
      void* p = it->second.back();
      it->second.pop_back();
      return p;
    }
  }
  const std::size_t idx = reserve_superblocks(nsbs, kSbMagicHuge, 0);
  huge_extents_.fetch_add(1, std::memory_order_relaxed);
  return sb_base(idx) + kSbHeader;
}

void Ralloc::deallocate_huge(void* p, const SbMeta* meta) {
  std::lock_guard lk(huge_mutex_);
  huge_free_[meta->num_sbs].push_back(p);
}

void Ralloc::recover_blocks(
    int shard, int nshards,
    const std::function<bool(void*, std::size_t)>& keep) {
  // Walk the extent map the recovery construction validated (or that fresh
  // allocation built up) rather than re-reading descriptors, so a corrupt —
  // quarantined — descriptor can never misdirect the perusal. Sharding is
  // by extent ordinal so a huge extent is visited exactly once.
  std::vector<Extent> snapshot;
  {
    std::lock_guard lk(sb_mutex_);
    snapshot = extents_;
  }
  for (std::size_t ord = 0; ord < snapshot.size(); ++ord) {
    if (static_cast<int>(ord % nshards) != shard) continue;
    const Extent& ext = snapshot[ord];
    if (ext.quarantined) continue;
    if (ext.huge) {
      void* blk = sb_base(ext.start) + kSbHeader;
      const std::size_t bsz = ext.len * kSuperblockSize - kSbHeader;
      if (!keep(blk, bsz)) {
        std::lock_guard lk(huge_mutex_);
        huge_free_[ext.len].push_back(blk);
      }
    } else {
      const std::size_t bsz = ext.block_size;
      const int cls = class_index(bsz);
      char* blocks = sb_base(ext.start) + kSbHeader;
      const std::size_t nblocks = (kSuperblockSize - kSbHeader) / bsz;
      std::vector<void*> dead;
      for (std::size_t i = 0; i < nblocks; ++i) {
        void* blk = blocks + i * bsz;
        if (!keep(blk, bsz)) dead.push_back(blk);
      }
      if (!dead.empty()) {
        std::lock_guard lk(classes_[cls].m);
        auto& central = classes_[cls].free_blocks;
        central.insert(central.end(), dead.begin(), dead.end());
      }
    }
  }
}

void Ralloc::recover_all(const std::function<bool(void*, std::size_t)>& keep,
                         int nthreads) {
  if (nthreads <= 1) {
    recover_blocks(0, 1, keep);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(nthreads);
  for (int t = 0; t < nthreads; ++t) {
    workers.emplace_back(
        [this, t, nthreads, &keep] { recover_blocks(t, nthreads, keep); });
  }
  for (auto& w : workers) w.join();
}

Ralloc::Stats Ralloc::stats() const {
  Stats s;
  s.superblocks = sb_count_->load(std::memory_order_relaxed);
  s.huge_extents = huge_extents_.load(std::memory_order_relaxed);
  s.bytes_reserved = s.superblocks * kSuperblockSize;
  return s;
}

}  // namespace montage::ralloc

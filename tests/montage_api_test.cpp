// Tests for the paper-facing API surface (Fig. 1): the GENERATE_FIELD
// methods, PNEW/PDELETE/BEGIN_OP_AUTOEND macros, Recoverable, the
// thread-local/default EpochSys resolution, and pointer-swinging contracts.
#include <gtest/gtest.h>

#include <thread>

#include "montage/recoverable.hpp"
#include "tests/test_env.hpp"
#include "util/inline_str.hpp"

namespace montage {
namespace {

using testing::PersistentEnv;

EpochSys::Options no_advancer() {
  EpochSys::Options o;
  o.start_advancer = false;
  return o;
}

struct Pair : public PBlk {
  Pair() = default;
  Pair(uint64_t a, uint64_t b) {
    m_first = a;
    m_second = b;
  }
  GENERATE_FIELD(uint64_t, first, Pair);
  GENERATE_FIELD(uint64_t, second, Pair);
};

/// A minimal Recoverable structure written exactly in the paper's style.
class Register : public Recoverable {
 public:
  static constexpr uint32_t kTag = 77;
  explicit Register(EpochSys* esys) : Recoverable(esys) {}

  void write(uint64_t a, uint64_t b) {
    BEGIN_OP_AUTOEND();
    if (cell_ == nullptr) {
      cell_ = PNEW(Pair, BlkTag{kTag}, a, b);
    } else {
      cell_ = cell_->set_first(a);
      cell_ = cell_->set_second(b);
    }
  }

  std::pair<uint64_t, uint64_t> read() {
    return {cell_->get_first(), cell_->get_second()};
  }

  void clear() {
    BEGIN_OP_AUTOEND();
    if (cell_ != nullptr) {
      PDELETE(cell_);
      cell_ = nullptr;
    }
  }

  void recover(const std::vector<PBlk*>& blocks) {
    for (PBlk* b : blocks) {
      if (b->blk_tag() == kTag) cell_ = static_cast<Pair*>(b);
    }
  }

  Pair* cell_ = nullptr;
};

TEST(Api, GenerateFieldAccessors) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  Pair* p = es->pnew<Pair>(1, 2);
  EXPECT_EQ(p->get_first(), 1u);
  EXPECT_EQ(p->get_second(), 2u);
  EXPECT_EQ(p->get_unsafe_first(), 1u);
  Pair* q = p->set_first(10);
  EXPECT_EQ(q, p);  // same epoch: in place
  EXPECT_EQ(p->get_first(), 10u);
  es->end_op();
}

TEST(Api, SetReturnsCloneAcrossEpochAndPreservesOtherFields) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  Pair* p = es->pnew<Pair>(1, 2);
  es->end_op();
  es->advance_epoch();
  es->begin_op();
  Pair* q = p->set_first(100);
  EXPECT_NE(q, p);
  EXPECT_EQ(q->get_first(), 100u);
  EXPECT_EQ(q->get_second(), 2u);  // carried by the clone
  EXPECT_EQ(q->blk_uid(), p->blk_uid());
  es->end_op();
}

TEST(Api, MacrosResolveDefaultEsysOutsideOperations) {
  PersistentEnv env(64 << 20, no_advancer());
  // PNEW before any BEGIN_OP goes through the process-default EpochSys.
  Pair* p = PNEW(Pair, 3, 4);
  EXPECT_EQ(p->blk_epoch(), kNoEpoch);  // not yet labeled
  EpochSys* es = env.esys();
  const uint64_t e = es->begin_op();
  EXPECT_EQ(p->blk_epoch(), e);  // adopted
  es->end_op();
}

TEST(Api, RecoverableStyleStructureFullLifecycle) {
  PersistentEnv env(64 << 20, no_advancer());
  Register reg(env.esys());
  reg.write(7, 8);
  EXPECT_EQ(reg.read(), (std::pair<uint64_t, uint64_t>{7, 8}));
  env.esys()->advance_epoch();
  reg.write(9, 10);  // exercises the clone + pointer-swing path twice
  EXPECT_EQ(reg.read(), (std::pair<uint64_t, uint64_t>{9, 10}));
  reg.sync();
  auto survivors = env.crash_and_recover();
  Register rec(env.esys());
  rec.recover(survivors);
  EXPECT_EQ(rec.read(), (std::pair<uint64_t, uint64_t>{9, 10}));
  rec.clear();
  rec.sync();
  auto survivors2 = env.crash_and_recover();
  EXPECT_TRUE(survivors2.empty());
}

TEST(Api, CheckEpochThroughRecoverable) {
  PersistentEnv env(64 << 20, no_advancer());
  Register reg(env.esys());
  env.esys()->begin_op();
  EXPECT_NO_THROW(reg.check_epoch());
  env.esys()->advance_epoch();
  EXPECT_THROW(reg.check_epoch(), EpochVerifyException);
  env.esys()->end_op();
}

TEST(Api, TwoFieldUpdatesInOneEpochShareOneClone) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  Pair* p = es->pnew<Pair>(1, 2);
  es->end_op();
  es->advance_epoch();
  es->begin_op();
  Pair* q1 = p->set_first(10);
  Pair* q2 = q1->set_second(20);
  EXPECT_NE(q1, p);   // first set clones
  EXPECT_EQ(q2, q1);  // second set hits the clone in place
  es->end_op();
}

TEST(Api, UpdateChainAcrossManyEpochsKeepsSingleLogicalObject) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  Pair* p = es->pnew<Pair>(0, 0);
  const uint64_t uid = p->blk_uid();
  es->end_op();
  for (uint64_t i = 1; i <= 10; ++i) {
    es->advance_epoch();
    es->begin_op();
    p = p->set_first(i);
    EXPECT_EQ(p->blk_uid(), uid);
    es->end_op();
  }
  es->sync();
  auto survivors = env.crash_and_recover();
  ASSERT_EQ(survivors.size(), 1u) << "old versions must not survive";
  EXPECT_EQ(static_cast<Pair*>(survivors[0])->get_unsafe_first(), 10u);
  EXPECT_EQ(survivors[0]->blk_uid(), uid);
}

TEST(Api, GetOutsideOpOnAnotherThreadIsUnchecked) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  Pair* p = es->pnew<Pair>(5, 6);
  es->end_op();
  uint64_t seen = 0;
  std::thread t([&] { seen = p->get_first(); });  // no op on that thread
  t.join();
  EXPECT_EQ(seen, 5u);
}

TEST(Api, BlkTagRoundTrips) {
  PersistentEnv env(64 << 20, no_advancer());
  EpochSys* es = env.esys();
  es->begin_op();
  Pair* p = es->pnew<Pair>(BlkTag{0xABCD}, 1, 1);
  EXPECT_EQ(p->blk_tag(), 0xABCDu);
  es->end_op();
  es->advance_epoch();
  es->begin_op();
  Pair* q = p->set_first(2);  // tag carried by the clone
  EXPECT_EQ(q->blk_tag(), 0xABCDu);
  es->end_op();
}

}  // namespace
}  // namespace montage

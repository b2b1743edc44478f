// Unit tests: gshare, BTB, RAS and the combined front-end predictor.
#include <gtest/gtest.h>

#include "bpred/frontend_predictor.hpp"
#include "common/stats.hpp"

namespace dwarn {
namespace {

TEST(Gshare, LearnsStrongBias) {
  Gshare g(2048);
  const Addr pc = 0x4000;
  for (int i = 0; i < 20; ++i) g.update(0, pc, true);
  EXPECT_TRUE(g.predict(0, pc));
  for (int i = 0; i < 20; ++i) g.update(0, pc, false);
  EXPECT_FALSE(g.predict(0, pc));
}

TEST(Gshare, LearnsShortPeriodicPattern) {
  Gshare g(2048);
  const Addr pc = 0x4000;
  // Period-4 loop: T T T N. Train a few laps, then check the steady state.
  auto outcome = [](int i) { return i % 4 != 3; };
  for (int i = 0; i < 400; ++i) g.update(0, pc, outcome(i));
  int correct = 0;
  for (int i = 400; i < 600; ++i) {
    correct += (g.predict(0, pc) == outcome(i)) ? 1 : 0;
    g.update(0, pc, outcome(i));
  }
  EXPECT_GT(correct, 190);  // history disambiguates the exit position
}

TEST(Gshare, PerThreadHistoryIsIndependent) {
  Gshare g(2048);
  g.update(0, 0x1000, true);
  g.update(1, 0x1000, false);
  EXPECT_NE(g.history(0), g.history(1));
}

TEST(Btb, MissThenHitAfterUpdate) {
  Btb btb(256, 4);
  EXPECT_FALSE(btb.lookup(0x2000).has_value());
  btb.update(0x2000, 0x3000);
  ASSERT_TRUE(btb.lookup(0x2000).has_value());
  EXPECT_EQ(*btb.lookup(0x2000), 0x3000u);
}

TEST(Btb, UpdateRefreshesTarget) {
  Btb btb(256, 4);
  btb.update(0x2000, 0x3000);
  btb.update(0x2000, 0x4000);
  EXPECT_EQ(*btb.lookup(0x2000), 0x4000u);
}

TEST(Btb, LruEvictionWithinSet) {
  Btb btb(8, 2);  // 4 sets x 2 ways; pcs 16 slots apart share a set
  const Addr stride = 4 * 4;  // set index uses pc>>2 over 4 sets
  btb.update(0x0, 0xA);
  btb.update(0x0 + stride, 0xB);
  (void)btb.lookup(0x0);  // lookups do not refresh LRU; update does
  btb.update(0x0, 0xA);
  btb.update(0x0 + 2 * stride, 0xC);  // evicts 0x0+stride
  EXPECT_TRUE(btb.lookup(0x0).has_value());
  EXPECT_FALSE(btb.lookup(0x0 + stride).has_value());
  EXPECT_TRUE(btb.lookup(0x0 + 2 * stride).has_value());
}

TEST(Ras, PushPopNesting) {
  Ras ras(16);
  ras.push(0x100);
  ras.push(0x200);
  EXPECT_EQ(ras.pop(), 0x200u);
  EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, CheckpointRestore) {
  Ras ras(16);
  ras.push(0x100);
  const auto cp = ras.checkpoint();
  ras.push(0x200);
  ras.pop();
  ras.pop();  // stack disturbed past the checkpoint
  ras.restore(cp);
  EXPECT_EQ(ras.top(), 0x100u);
  EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, WrapsWithoutCrashing) {
  Ras ras(4);
  for (Addr i = 0; i < 10; ++i) ras.push(0x100 + i);
  EXPECT_EQ(ras.pop(), 0x109u);  // newest survives wrap
}

class FrontEndTest : public ::testing::Test {
 protected:
  StatSet stats;
  FrontEndPredictor fep{BpredConfig{}, 2, stats};
};

TEST_F(FrontEndTest, ColdUncondFallsThroughThenLearns) {
  const Addr pc = 0x1000, target = 0x2000, ft = 0x1004;
  const auto cold = fep.predict(0, pc, BranchKind::Uncond, ft);
  EXPECT_FALSE(cold.taken);  // BTB cold: cannot redirect
  EXPECT_EQ(cold.next_pc, ft);
  fep.train(0, pc, BranchKind::Uncond, true, target);
  const auto warm = fep.predict(0, pc, BranchKind::Uncond, ft);
  EXPECT_TRUE(warm.taken);
  EXPECT_EQ(warm.next_pc, target);
}

TEST_F(FrontEndTest, CallPushesReturnPops) {
  const Addr call_pc = 0x1000, callee = 0x8000, ft = 0x1004;
  fep.train(0, call_pc, BranchKind::Call, true, callee);
  const auto call = fep.predict(0, call_pc, BranchKind::Call, ft);
  EXPECT_EQ(call.next_pc, callee);
  const auto ret = fep.predict(0, 0x8040, BranchKind::Return, 0x8044);
  EXPECT_TRUE(ret.taken);
  EXPECT_EQ(ret.next_pc, ft);  // popped the pushed return address
}

TEST_F(FrontEndTest, RasCheckpointUndoesSpeculativePush) {
  const Addr call_pc = 0x1000, callee = 0x8000, ft = 0x1004;
  fep.train(0, call_pc, BranchKind::Call, true, callee);
  fep.predict(0, call_pc, BranchKind::Call, ft);  // push ft
  const auto spec = fep.predict(0, 0x2000, BranchKind::Call, 0x2004);  // wrong-path push
  fep.restore_ras(0, spec.ras_cp);
  const auto ret = fep.predict(0, 0x8040, BranchKind::Return, 0x8044);
  EXPECT_EQ(ret.next_pc, ft);  // original push intact after restore
}

TEST_F(FrontEndTest, CondUsesGshare) {
  const Addr pc = 0x3000, target = 0x5000, ft = 0x3004;
  for (int i = 0; i < 10; ++i) fep.train(0, pc, BranchKind::Cond, true, target);
  const auto p = fep.predict(0, pc, BranchKind::Cond, ft);
  EXPECT_TRUE(p.taken);
  EXPECT_EQ(p.next_pc, target);
}

TEST_F(FrontEndTest, ResolvedCounters) {
  fep.note_resolved(true);
  fep.note_resolved(false);
  fep.note_resolved(true);
  EXPECT_EQ(stats.value("bpred.mispredicts"), 2u);
}

}  // namespace
}  // namespace dwarn

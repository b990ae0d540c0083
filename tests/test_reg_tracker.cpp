// RegTracker: version lifecycle, occupancy attribution (Empty/Ready/Idle —
// the Figure 2/3 semantics) and the read-after-release safety check.
#include <gtest/gtest.h>

#include "core/reg_state.hpp"

namespace erel::core {
namespace {

TEST(RegTracker, OccupancySpansMatchFigure2) {
  RegTracker t(8);
  // Version in p3: allocated @10, written @15, definer commits @20, last
  // consumer commits @30, released @50 (the NV commit).
  t.on_alloc(3, /*logical=*/1, 10);
  t.on_write(3, 15);
  t.on_definer_commit(3, 20);
  t.on_consumer_commit(3, t.token(3), 30);
  t.on_release(3, 50, /*squashed=*/false);
  t.finalize(100);
  EXPECT_DOUBLE_EQ(t.empty_integral(), 5.0);   // 10..15
  EXPECT_DOUBLE_EQ(t.ready_integral(), 15.0);  // 15..30
  EXPECT_DOUBLE_EQ(t.idle_integral(), 20.0);   // 30..50
}

TEST(RegTracker, NeverWrittenVersionIsAllEmpty) {
  RegTracker t(8);
  t.on_alloc(2, 0, 10);
  t.on_release(2, 40, /*squashed=*/true);
  t.finalize(100);
  EXPECT_DOUBLE_EQ(t.empty_integral(), 30.0);
  EXPECT_DOUBLE_EQ(t.idle_integral(), 0.0);
}

TEST(RegTracker, SquashedWrittenVersionCountsReadyNotIdle) {
  RegTracker t(8);
  t.on_alloc(2, 0, 10);
  t.on_write(2, 20);
  t.on_release(2, 40, /*squashed=*/true);
  t.finalize(100);
  EXPECT_DOUBLE_EQ(t.empty_integral(), 10.0);
  EXPECT_DOUBLE_EQ(t.ready_integral(), 20.0);
  EXPECT_DOUBLE_EQ(t.idle_integral(), 0.0);
}

TEST(RegTracker, DefinerOnlyVersionIdlesFromDefinerCommit) {
  RegTracker t(8);
  t.on_alloc(4, 0, 0);
  t.on_write(4, 5);
  t.on_definer_commit(4, 8);
  t.on_release(4, 28, false);  // no consumers: idle from 8 to 28
  t.finalize(50);
  EXPECT_DOUBLE_EQ(t.idle_integral(), 20.0);
}

TEST(RegTracker, FinalizeAttributesLiveVersions) {
  RegTracker t(8);
  t.on_alloc(5, 0, 10);
  t.on_write(5, 12);
  t.on_definer_commit(5, 14);
  t.finalize(44);
  // Idle from 14 to 44.
  EXPECT_DOUBLE_EQ(t.idle_integral(), 30.0);
}

TEST(RegTracker, TokensChangePerVersion) {
  RegTracker t(8);
  t.on_alloc(6, 0, 0);
  const std::uint32_t tok1 = t.token(6);
  t.on_release(6, 5, false);
  t.on_alloc(6, 1, 10);
  EXPECT_NE(t.token(6), tok1);
  EXPECT_EQ(t.logical_of(6), 1);
}

TEST(RegTracker, ReuseEndsOldVersionWithoutFreeing) {
  RegTracker t(8);
  t.on_alloc(7, 2, 0);
  t.on_write(7, 3);
  t.on_definer_commit(7, 5);
  const std::uint32_t tok_old = t.token(7);
  const unsigned count = t.allocated_count();
  t.on_reuse(7, 2, 20);
  EXPECT_EQ(t.allocated_count(), count);
  EXPECT_TRUE(t.is_allocated(7));
  EXPECT_NE(t.token(7), tok_old);
  t.finalize(30);
  // Old version idle 5..20; new version empty 20..30.
  EXPECT_DOUBLE_EQ(t.idle_integral(), 15.0);
}

TEST(RegTracker, ArchitecturalInitHoldsAllLogicalRegs) {
  RegTracker t(48);
  t.init_architectural(32);
  EXPECT_EQ(t.allocated_count(), 32u);
  EXPECT_TRUE(t.is_allocated(0));
  EXPECT_FALSE(t.is_allocated(32));
}

TEST(RegTrackerDeath, ReadOfReleasedVersionAborts) {
  RegTracker t(8);
  t.on_alloc(3, 0, 0);
  const std::uint32_t tok = t.token(3);
  t.on_write(3, 1);
  t.on_release(3, 5, false);
  t.on_alloc(3, 1, 6);  // recycled
  EXPECT_DEATH(t.on_consumer_commit(3, tok, 10), "released register");
}

TEST(RegTrackerDeath, DoubleAllocAborts) {
  RegTracker t(8);
  t.on_alloc(3, 0, 0);
  EXPECT_DEATH(t.on_alloc(3, 0, 1), "live register");
}

TEST(RegTrackerDeath, ReleaseOfFreeAborts) {
  RegTracker t(8);
  EXPECT_DEATH(t.on_release(3, 0, false), "free register");
}

TEST(RegFileState, AllocWriteReleaseCycle) {
  RegFileState rf(RC::Int, 40);
  const PhysReg p = rf.alloc(5, 10);
  EXPECT_FALSE(rf.ready[p]);
  rf.write_value(p, 1234, 12);
  EXPECT_TRUE(rf.ready[p]);
  EXPECT_EQ(rf.value[p], 1234u);
  rf.map.set(5, p);
  rf.release(p, 20, false);
  EXPECT_TRUE(rf.free_list.is_free(p));
}

TEST(RegFileState, ReleaseOfArchitecturalVersionSetsIomtStale) {
  RegFileState rf(RC::Int, 40);
  const PhysReg p = rf.alloc(7, 0);
  rf.write_value(p, 1, 1);
  rf.tracker.on_definer_commit(p, 2);
  rf.iomt.set(7, p);  // version becomes architectural
  rf.release(p, 10, false);  // early release before the NV commits
  EXPECT_TRUE(rf.iomt.get(7).stale);
}

TEST(RegFileState, ReleaseOfNonArchitecturalVersionLeavesIomtAlone) {
  RegFileState rf(RC::Int, 40);
  const PhysReg p = rf.alloc(7, 0);
  rf.write_value(p, 1, 1);
  rf.release(p, 10, true);
  EXPECT_FALSE(rf.iomt.get(7).stale);
}

}  // namespace
}  // namespace erel::core

// sim::StatRegistry: entry kinds, hierarchical paths, merge semantics and
// the SimStats view materialization.
#include <gtest/gtest.h>

#include "sim/stat_registry.hpp"
#include "sim/stats.hpp"

namespace erel {
namespace {

TEST(StatRegistry, CountersCreateOnFirstUseAndPersist) {
  sim::StatRegistry reg;
  sim::StatRegistry::Counter& c = reg.counter("a/b/c");
  ++c;
  c += 41;
  EXPECT_EQ(reg.counter_value("a/b/c"), 42u);
  // Same path returns the same entry.
  EXPECT_EQ(&reg.counter("a/b/c"), &c);
  // Missing paths read as zero / nullptr, and are not created by lookups.
  EXPECT_EQ(reg.counter_value("nope"), 0u);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(StatRegistry, ChannelKeepsStride) {
  sim::StatRegistry reg;
  sim::StatRegistry::TimeSeries& ts = reg.channel("chan/x", 1000);
  ts.push(1.5);
  ts.push(2.5);
  const sim::StatRegistry::TimeSeries* found = reg.find_channel("chan/x");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->stride, 1000u);
  ASSERT_EQ(found->points.size(), 2u);
  EXPECT_DOUBLE_EQ(found->points[1], 2.5);
}

TEST(StatRegistry, MergeSumsCombinesAndAppends) {
  sim::StatRegistry a;
  a.counter("n") += 3;
  a.accum("integral") += 1.5;
  a.channel("ts", 10).push(1.0);
  a.counter("only_in_a") += 7;

  sim::StatRegistry b;
  b.counter("n") += 4;
  b.accum("integral") += 2.25;
  b.channel("ts", 10).push(2.0);
  b.counter("only_in_b") += 9;

  a.merge_from(b);
  EXPECT_EQ(a.counter_value("n"), 7u);
  EXPECT_DOUBLE_EQ(a.accum_value("integral"), 3.75);
  const auto* ts = a.find_channel("ts");
  ASSERT_NE(ts, nullptr);
  ASSERT_EQ(ts->points.size(), 2u);  // appended in merge order
  EXPECT_DOUBLE_EQ(ts->points[0], 1.0);
  EXPECT_DOUBLE_EQ(ts->points[1], 2.0);
  EXPECT_EQ(a.counter_value("only_in_a"), 7u);
  EXPECT_EQ(a.counter_value("only_in_b"), 9u);  // copied in
}

TEST(StatRegistry, EqualityIsDeepAndOrderIndependent) {
  sim::StatRegistry a, b;
  a.counter("x") += 1;
  a.accum("y") += 0.5;
  b.accum("y") += 0.5;  // different registration order, same content
  b.counter("x") += 1;
  EXPECT_EQ(a, b);
  ++b.counter("x");
  EXPECT_NE(a, b);
}

TEST(StatRegistry, MaterializeSimStatsReadsBuiltinPaths) {
  sim::StatRegistry reg;
  reg.counter(sim::kStatCycles) += 1000;
  reg.counter(sim::kStatCommitted) += 1700;
  reg.counter(sim::kStatHalted) += 1;
  reg.counter(sim::kStatCondBranches) += 40;
  reg.counter(sim::kStatCondMispredicts) += 4;
  reg.counter(sim::kStatStallFreeList) += 13;
  reg.counter("policy/fp/reuses") += 6;
  reg.counter("regfile/int/squash_released") += 3;
  reg.accum("regfile/int/empty_integral") += 5000.0;
  reg.accum("regfile/int/ready_integral") += 2500.0;
  reg.counter("cache/l1d/accesses") += 200;
  reg.counter("cache/l1d/misses") += 20;

  const sim::SimStats s = sim::materialize_sim_stats(reg);
  EXPECT_EQ(s.cycles, 1000u);
  EXPECT_EQ(s.committed, 1700u);
  EXPECT_TRUE(s.halted);
  EXPECT_DOUBLE_EQ(s.ipc(), 1.7);
  EXPECT_EQ(s.branches.cond_branches, 40u);
  EXPECT_EQ(s.branches.cond_mispredicts, 4u);
  EXPECT_EQ(s.stalls.free_list_empty, 13u);
  EXPECT_EQ(s.policy_stats[1].reuses, 6u);
  EXPECT_EQ(s.squash_released[0], 3u);
  EXPECT_DOUBLE_EQ(s.occupancy[0].avg_empty, 5.0);
  EXPECT_DOUBLE_EQ(s.occupancy[0].avg_ready, 2.5);
  EXPECT_DOUBLE_EQ(s.occupancy[0].avg_idle, 0.0);
  EXPECT_EQ(s.l1d.accesses, 200u);
  EXPECT_DOUBLE_EQ(s.l1d.miss_rate(), 0.1);
}

}  // namespace
}  // namespace erel

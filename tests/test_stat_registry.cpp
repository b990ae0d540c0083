// sim::StatRegistry: entry kinds, hierarchical paths, merge semantics, the
// SimStats view materialization and the table of run statistics
// (sim::for_each_stat) that the core, the view and the cache entry share.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "harness/results.hpp"
#include "sim/simulator.hpp"
#include "sim/stat_registry.hpp"
#include "sim/stats.hpp"
#include "workloads/workloads.hpp"

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

// ---------------------------------------------------------------------------
// The table of run statistics
// ---------------------------------------------------------------------------

using StatValue = std::variant<std::uint64_t, bool, double>;

/// Every SimStats field as (cache-entry line, value), in table order.
std::vector<std::pair<std::string, StatValue>> table_values(
    const sim::SimStats& s) {
  std::vector<std::pair<std::string, StatValue>> out;
  sim::for_each_stat(s, [&out](std::string_view name, std::string_view,
                               const auto& field) {
    using Field = std::decay_t<decltype(field)>;
    out.emplace_back(std::string(name),
                     StatValue(std::in_place_type<Field>, field));
  });
  return out;
}

TEST(StatTable, EveryFieldSurvivesTheRegistryAndTheCacheEntry) {
  // A distinct value per field, so two lines that share a path or a name
  // cannot go unseen. As in the core's counter block, an occupancy field
  // holds its integral until the view divides it by cycles.
  sim::SimStats counters;
  std::uint64_t next = 1;
  sim::for_each_stat(counters, [&next](std::string_view, std::string_view,
                                       auto& field) {
    using Field = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<Field, bool>)
      field = true;
    else if constexpr (std::is_same_v<Field, double>)
      field = static_cast<double>(next++) * 1000.0 + 0.1;
    else
      field = 1000 + next++;
  });

  sim::StatRegistry reg;
  sim::publish_sim_stats(counters, reg);
  EXPECT_EQ(reg.size(), 46u);
  const sim::SimStats view = sim::materialize_sim_stats(reg);

  sim::SimStats expected = counters;
  sim::for_each_stat(expected, [&counters](std::string_view,
                                           std::string_view, auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>, double>)
      field /= static_cast<double>(counters.cycles);
  });
  const auto want = table_values(expected);
  ASSERT_EQ(want.size(), 46u);
  EXPECT_EQ(table_values(view), want);

  // The cache entry writes and parses every field bit-exactly, as a cell's
  // stats and as a sampled cell's measured view.
  harness::ExpEntry entry;
  entry.key = {"li", core::PolicyKind::Extended, 48, ""};
  entry.stats = view;
  entry.sampled.emplace().measured = view;
  const std::string fp = "0123456789abcdef";
  const std::optional<harness::ExpEntry> back =
      harness::parse_entry(harness::serialize_entry(entry, fp), fp, entry.key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(table_values(back->stats), want);
  ASSERT_TRUE(back->sampled.has_value());
  EXPECT_EQ(table_values(back->sampled->measured), want);
}

TEST(StatTable, PlainCoreRunPublishesExactlyTheBuiltinPaths) {
  // No probe and no stride channels: the run publishes the 46 built-in
  // entries and nothing else, 6 occupancy integrals and 40 counters.
  sim::SimConfig config;
  config.check_oracle = false;
  config.max_instructions = 5'000;
  auto core =
      sim::Simulator(config).make_core(workloads::assemble_workload("li"));
  (void)core->run();

  std::vector<std::string> counters, accums;
  for (const auto& [path, entry] : core->registry().entries()) {
    if (std::holds_alternative<sim::StatRegistry::Counter>(entry))
      counters.push_back(path);
    else if (std::holds_alternative<sim::StatRegistry::Accum>(entry))
      accums.push_back(path);
    else
      ADD_FAILURE() << "unexpected channel " << path;
  }
  EXPECT_EQ(accums, (std::vector<std::string>{
                        "regfile/fp/empty_integral",
                        "regfile/fp/idle_integral",
                        "regfile/fp/ready_integral",
                        "regfile/int/empty_integral",
                        "regfile/int/idle_integral",
                        "regfile/int/ready_integral",
                    }));
  EXPECT_EQ(counters, (std::vector<std::string>{
                          "branch/cond_branches",
                          "branch/cond_mispredicts",
                          "branch/indirect_jumps",
                          "branch/indirect_mispredicts",
                          "cache/l1d/accesses",
                          "cache/l1d/misses",
                          "cache/l1d/writebacks",
                          "cache/l1i/accesses",
                          "cache/l1i/misses",
                          "cache/l1i/writebacks",
                          "cache/l2/accesses",
                          "cache/l2/misses",
                          "cache/l2/writebacks",
                          "core/committed",
                          "core/cycles",
                          "core/flushes_injected",
                          "core/halted",
                          "fetch/icache_stall_cycles",
                          "policy/fp/branch_confirm_releases",
                          "policy/fp/conditional_schedulings",
                          "policy/fp/conventional_releases",
                          "policy/fp/early_commit_releases",
                          "policy/fp/fallback_conventional",
                          "policy/fp/immediate_releases",
                          "policy/fp/reuses",
                          "policy/fp/stale_suppressed",
                          "policy/int/branch_confirm_releases",
                          "policy/int/conditional_schedulings",
                          "policy/int/conventional_releases",
                          "policy/int/early_commit_releases",
                          "policy/int/fallback_conventional",
                          "policy/int/immediate_releases",
                          "policy/int/reuses",
                          "policy/int/stale_suppressed",
                          "regfile/fp/squash_released",
                          "regfile/int/squash_released",
                          "stall/checkpoints_full",
                          "stall/free_list_empty",
                          "stall/lsq_full",
                          "stall/ros_full",
                      }));
}

}  // namespace
}  // namespace erel

// Harness utilities: thread pool, harmonic mean, parallel run batches.
#include <gtest/gtest.h>

#include <atomic>

#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "harness/harness.hpp"

namespace erel {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPoolDeathTest, RefusesMoreThanTheCap) {
  // The check runs before the first worker starts, so this starts none.
  EXPECT_DEATH(ThreadPool pool(kMaxThreads + 1), "exceeds the cap");
}

TEST(HarmonicMean, MatchesDefinition) {
  const double values[] = {1.0, 2.0, 4.0};
  EXPECT_NEAR(harness::harmonic_mean(values), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
}

TEST(HarmonicMean, SingleValueIdentity) {
  const double v[] = {2.5};
  EXPECT_DOUBLE_EQ(harness::harmonic_mean(v), 2.5);
}

TEST(HarmonicMean, DominatedBySmallest) {
  const double v[] = {0.1, 10.0, 10.0, 10.0};
  EXPECT_LT(harness::harmonic_mean(v), 0.4);
}

TEST(HarmonicMean, EmptyInputYieldsZero) {
  EXPECT_DOUBLE_EQ(harness::harmonic_mean({}), 0.0);
}

TEST(HarmonicMean, ZeroValueCollapsesToZero) {
  const double v[] = {1.0, 0.0, 4.0};
  EXPECT_DOUBLE_EQ(harness::harmonic_mean(v), 0.0);
}

TEST(HarmonicMean, NegativeValueCollapsesToZero) {
  const double v[] = {1.0, -2.0};
  EXPECT_DOUBLE_EQ(harness::harmonic_mean(v), 0.0);
}

TEST(Harness, RunAllPreservesOrderAndRunsInParallel) {
  std::vector<harness::RunSpec> specs;
  specs.push_back(
      {"li", harness::experiment_config(core::PolicyKind::Conventional, 48),
       {}, {}});
  specs.push_back(
      {"li", harness::experiment_config(core::PolicyKind::Extended, 48),
       {}, {}});
  const auto results = harness::run_all(specs, 2);
  ASSERT_EQ(results.size(), 2u);
  // Results keep the input order: only the extended cell releases early.
  const auto early_releases = [](const harness::RunResult& r) {
    const core::PolicyStats& p = r.stats.policy_stats[0];
    return p.early_commit_releases + p.immediate_releases;
  };
  EXPECT_EQ(early_releases(results[0]), 0u);
  EXPECT_GT(early_releases(results[1]), 0u);
  EXPECT_TRUE(results[0].stats.halted);
  EXPECT_TRUE(results[1].stats.halted);
  EXPECT_GE(results[1].stats.ipc(), results[0].stats.ipc() * 0.98);
}

TEST(Harness, ExperimentConfigMatchesTable2Defaults) {
  const auto config =
      harness::experiment_config(core::PolicyKind::Extended, 56);
  EXPECT_EQ(config.phys_int, 56u);
  EXPECT_EQ(config.phys_fp, 56u);
  EXPECT_EQ(config.ros_size, 128u);
  EXPECT_EQ(config.lsq_size, 64u);
  EXPECT_EQ(config.max_pending_branches, 20u);
  EXPECT_EQ(config.ghr_bits, 18u);
  EXPECT_FALSE(config.check_oracle);
}

TEST(Harness, SweepSizesMatchFigure11Axis) {
  const auto& sizes = harness::register_sweep_sizes();
  EXPECT_EQ(sizes.front(), 40u);
  EXPECT_EQ(sizes.back(), 160u);
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1.5"});
  t.add_row({"longer", "10.25"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("10.25"), std::string::npos);
  // Numeric cells right-align: "1.5" is padded on the left.
  EXPECT_NE(out.find("   1.5"), std::string::npos);
}

TEST(TextTable, FormattingHelpers) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::pct(0.1234, 1), "12.3%");
}

TEST(Harness, LooseTightClassification) {
  sim::SimConfig config;  // N = 128, L = 32
  EXPECT_TRUE(config.is_loose(160));
  EXPECT_FALSE(config.is_loose(159));
  EXPECT_FALSE(config.is_loose(40));
}

}  // namespace
}  // namespace erel

// sim::Probe event plumbing: delivery counts line up with the statistics,
// event order is deterministic across runs, attaching probes never changes
// results, and fixed-stride channels cover the whole run.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/probe.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

/// Serializes every commit into a text log (for determinism comparison)
/// and counts them.
struct EventLog final : sim::Probe {
  std::string log;
  std::uint64_t commits = 0;

  void on_commit(const sim::CommitEvent& ev) override {
    ++commits;
    EXPECT_NE(ev.inst, nullptr);  // live-core commit events carry pointers
    EXPECT_NE(ev.rec, nullptr);
    log += "C" + std::to_string(ev.pc) + "@" + std::to_string(ev.commit_cycle) +
           ";";
  }
};

/// Counts committed stores into a counter of its own in the core registry.
struct StoreCounter final : sim::Probe {
  sim::StatRegistry::Counter* stores = nullptr;
  void on_run_begin(const sim::SimConfig&, sim::StatRegistry& reg) override {
    stores = &reg.counter("mine/stores");
  }
  void on_commit(const sim::CommitEvent& ev) override {
    if (ev.inst->is_store()) ++*stores;
  }
};

sim::SimConfig probe_config() {
  sim::SimConfig config;
  config.policy = core::PolicyKind::Extended;
  config.phys_int = config.phys_fp = 48;
  config.check_oracle = false;
  config.max_instructions = 15000;
  return config;
}

TEST(Probe, EventCountsMatchStatistics) {
  const arch::Program program = workloads::assemble_workload("li");
  EventLog log;
  const sim::SimStats stats =
      sim::Simulator(probe_config()).run(program, {&log});

  EXPECT_EQ(log.commits, stats.committed);
}

TEST(Probe, EventOrderIsDeterministic) {
  const arch::Program program = workloads::assemble_workload("li");
  EventLog a, b;
  (void)sim::Simulator(probe_config()).run(program, {&a});
  (void)sim::Simulator(probe_config()).run(program, {&b});
  EXPECT_EQ(a.log, b.log);  // bit-identical event sequence
}

TEST(Probe, FanOutDeliversToEveryProbeInAttachOrder) {
  const arch::Program program = workloads::assemble_workload("li");
  EventLog first, second;
  (void)sim::Simulator(probe_config()).run(program, {&first, &second});
  EXPECT_EQ(first.log, second.log);
  EXPECT_EQ(first.commits, second.commits);
}

TEST(Probe, ProbesCanRegisterOwnCountersInTheCoreRegistry) {
  StoreCounter probe;
  const arch::Program program = workloads::assemble_workload("li");
  auto core = sim::Simulator(probe_config()).make_core(program);
  core->attach_probe(&probe);
  (void)core->run();
  EXPECT_GT(core->registry().counter_value("mine/stores"), 0u);
}

// Probes are pure observers: a run with probes attached matches an
// unprobed run of the same kernel in its SimStats and in every registry
// entry the probes did not register themselves.
TEST(Probe, AttachingProbesLeavesResultsUnchanged) {
  const arch::Program program = workloads::assemble_workload("li");
  EventLog log;
  StoreCounter stores;
  auto probed = sim::Simulator(probe_config()).make_core(program);
  probed->attach_probe(&log);
  probed->attach_probe(&stores);
  const sim::SimStats with = probed->run();
  auto plain = sim::Simulator(probe_config()).make_core(program);
  const sim::SimStats without = plain->run();

  const auto view = [](const sim::SimStats& s) {
    return std::tuple{s.cycles,
                      s.committed,
                      s.halted,
                      s.branches.cond_mispredicts,
                      s.branches.indirect_mispredicts,
                      s.stalls.free_list_empty,
                      s.icache_stall_cycles,
                      s.policy_stats[0].early_commit_releases,
                      s.squash_released[0],
                      s.occupancy[0].avg_empty,
                      s.occupancy[0].avg_ready,
                      s.occupancy[0].avg_idle,
                      s.l1i.accesses,
                      s.l1d.accesses,
                      s.l2.misses};
  };
  EXPECT_EQ(view(with), view(without));

  std::map<std::string, sim::StatRegistry::Entry, std::less<>> core_entries =
      probed->registry().entries();
  ASSERT_EQ(std::erase_if(core_entries,
                          [](const auto& kv) {
                            return kv.first.starts_with("mine/");
                          }),
            1u);
  EXPECT_TRUE(core_entries == plain->registry().entries());
}

TEST(Probe, StatStrideRecordsChannelsCoveringTheRun) {
  sim::SimConfig config = probe_config();
  config.stat_stride = 512;
  const arch::Program program = workloads::assemble_workload("li");
  auto core = sim::Simulator(config).make_core(program);
  const sim::SimStats stats = core->run();

  const sim::StatRegistry& reg = core->registry();
  const std::uint64_t buckets = (stats.cycles + 511) / 512;

  // Occupancy channels: per-stride averages whose cycle-weighted mean must
  // reproduce the whole-run Figure 3 averages exactly.
  for (unsigned c = 0; c < 2; ++c) {
    const std::string base = std::string("channel/occupancy/") +
                             (c == 0 ? "int" : "fp") + "/";
    const auto* empty = reg.find_channel(base + "empty");
    const auto* ready = reg.find_channel(base + "ready");
    const auto* idle = reg.find_channel(base + "idle");
    ASSERT_NE(empty, nullptr);
    ASSERT_NE(ready, nullptr);
    ASSERT_NE(idle, nullptr);
    EXPECT_EQ(empty->points.size(), buckets);
    double weighted = 0;
    for (std::uint64_t k = 0; k < buckets; ++k) {
      const double covered =
          static_cast<double>(std::min<std::uint64_t>(512, stats.cycles -
                                                               k * 512));
      weighted += empty->points[k] * covered;
    }
    EXPECT_NEAR(weighted / static_cast<double>(stats.cycles),
                stats.occupancy[c].avg_empty, 1e-9);
  }

  // Channels never change the simulated results.
  const sim::SimStats plain =
      sim::Simulator(probe_config()).run(program);
  EXPECT_EQ(plain.cycles, stats.cycles);
  EXPECT_EQ(plain.committed, stats.committed);
}

}  // namespace
}  // namespace erel

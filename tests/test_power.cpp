// Rixner delay/energy model: monotonicity, the paper's calibration anchors
// (Figure 9, §4.4), and the extended-mechanism storage-cost calculator
// (whose Alpha 21264 example the paper quotes as "about 1.22 KBytes").
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "power/probe.hpp"
#include "power/rixner.hpp"
#include "power/storage_cost.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erel::power {
namespace {

TEST(Rixner, DelayMonotonicInRegisters) {
  const RixnerModel m;
  double prev = 0;
  for (unsigned p = 40; p <= 160; p += 8) {
    const double t = m.access_time_ns(RixnerModel::int_file(p));
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Rixner, DelayMonotonicInPortsAndWidth) {
  const RixnerModel m;
  EXPECT_GT(m.access_time_ns({64, 50, 64}), m.access_time_ns({64, 44, 64}));
  EXPECT_GT(m.access_time_ns({64, 44, 64}), m.access_time_ns({64, 44, 32}));
}

TEST(Rixner, EnergyMonotonic) {
  const RixnerModel m;
  EXPECT_GT(m.energy_pj({80, 44, 64}), m.energy_pj({40, 44, 64}));
  EXPECT_GT(m.energy_pj({64, 50, 64}), m.energy_pj({64, 44, 64}));
  EXPECT_GT(m.energy_pj({64, 44, 64}), m.energy_pj({64, 44, 9}));
}

TEST(Rixner, LusTableAnchors) {
  const RixnerModel m;
  // Paper §4.4 / Figure 9: 0.98 ns and 193.2 pJ for the 32x9b, 56-port
  // LUs Table.
  EXPECT_NEAR(m.access_time_ns(RixnerModel::lus_table()), 0.98, 0.01);
  EXPECT_NEAR(m.energy_pj(RixnerModel::lus_table()), 193.2, 2.0);
}

TEST(Rixner, LusTableFasterThanSmallestIntFile) {
  const RixnerModel m;
  // Paper: "a 26% less than that of the smaller integer file".
  const double lus = m.access_time_ns(RixnerModel::lus_table());
  const double int40 = m.access_time_ns(RixnerModel::int_file(40));
  EXPECT_NEAR(1.0 - lus / int40, 0.26, 0.03);
}

TEST(Rixner, FpFileSlowerThanIntAtEqualSize) {
  const RixnerModel m;  // Tfp = 50 > Tint = 44
  for (unsigned p = 40; p <= 160; p += 24) {
    EXPECT_GT(m.access_time_ns(RixnerModel::fp_file(p)),
              m.access_time_ns(RixnerModel::int_file(p)));
  }
}

TEST(Rixner, EnergyBalanceRoughlyNeutral) {
  // §4.4: E(RF64int)+E(RF79fp) vs E(RF56int)+E(RF72fp)+2 LUs Tables.
  const RixnerModel m;
  const double conv = m.energy_pj(RixnerModel::int_file(64)) +
                      m.energy_pj(RixnerModel::fp_file(79));
  const double early = m.energy_pj(RixnerModel::int_file(56)) +
                       m.energy_pj(RixnerModel::fp_file(72)) +
                       2.0 * m.energy_pj(RixnerModel::lus_table());
  // The paper reports 3850 vs 3851 pJ (neutral); our calibration lands
  // within a few percent, slightly favouring early release.
  EXPECT_NEAR(early / conv, 1.0, 0.05);
}

TEST(StorageCost, PaperAlphaExampleIs1_22KB) {
  // Paper §4.4: ROS=80, 8-bit ids, 152 physical regs, 20 pending branches
  // -> "about 1.22 KBytes".
  const ExtendedCost cost = extended_mechanism_cost(ExtendedCostParams{});
  EXPECT_EQ(cost.prid_bits, 3u * 8u * 80u);
  EXPECT_EQ(cost.rwc_bits, 3u * 80u * 21u);
  EXPECT_EQ(cost.rwns_bits, 152u * 20u);
  EXPECT_NEAR(cost.relque_kbytes(), 1.22, 0.01);
}

TEST(StorageCost, LusTablesAreTiny) {
  const ExtendedCost cost = extended_mechanism_cost(ExtendedCostParams{});
  // 2 tables x 32 entries x (7-bit ROSid + 2 Kind + 1 C) = 80 bytes; the
  // paper rounds generously to "around 128B".
  EXPECT_EQ(cost.lus_bits, 2u * 32u * 10u);
  EXPECT_LE(cost.lus_bytes(), 128.0);
}

TEST(StorageCost, ScalesWithParameters) {
  ExtendedCostParams big;
  big.ros_size = 128;
  big.max_pending_branches = 20;
  big.total_phys_regs = 192;
  const ExtendedCost small = extended_mechanism_cost(ExtendedCostParams{});
  const ExtendedCost large = extended_mechanism_cost(big);
  EXPECT_GT(large.relque_total_bits(), small.relque_total_bits());
}

// ---------------------------------------------------------------------------
// RixnerProbe: the first built-in consumer of the probe API.
// ---------------------------------------------------------------------------

sim::SimConfig probe_config(core::PolicyKind policy) {
  sim::SimConfig config;
  config.policy = policy;
  config.phys_int = config.phys_fp = 64;
  config.check_oracle = false;
  config.max_instructions = 15'000;
  return config;
}

TEST(RixnerProbe, ExportsEnergyAndEd2) {
  const arch::Program program = workloads::assemble_workload("li");
  const sim::SimConfig config = probe_config(core::PolicyKind::Extended);
  RixnerProbe probe;
  auto core2 = sim::Simulator(config).make_core(program);
  core2->attach_probe(&probe);
  const sim::SimStats stats = core2->run();
  std::vector<sim::Metric> metrics;
  probe.export_metrics(config, core2->registry(), metrics);
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].name, "power/energy_nj");
  EXPECT_GT(metrics[0].value, 0.0);
  EXPECT_EQ(metrics[1].name, "power/ed2");
  const double cycles = static_cast<double>(stats.cycles);
  EXPECT_NEAR(metrics[1].value, metrics[0].value * cycles * cycles,
              1e-9 * metrics[1].value);
  // Per-operand access counts: every commit reads <= 2 and writes <= 1.
  const sim::StatRegistry& reg = core2->registry();
  const std::uint64_t reads = reg.counter_value("power/rf_reads/int") +
                              reg.counter_value("power/rf_reads/fp");
  const std::uint64_t writes = reg.counter_value("power/rf_writes/int") +
                               reg.counter_value("power/rf_writes/fp");
  EXPECT_GT(reads, 0u);
  EXPECT_GT(writes, 0u);
  EXPECT_LE(reads, 2 * stats.committed);
  EXPECT_LE(writes, stats.committed);
  // Extended policy charges the LUs Table.
  EXPECT_GT(reg.counter_value("power/lus_accesses"), 0u);
}

/// Counts the LUs Table recordings of committed instructions: one per
/// register operand.
class CommittedRecordings final : public sim::Probe {
 public:
  void on_commit(const sim::CommitEvent& event) override {
    const core::RenameRec& rec = *event.rec;
    recordings += (rec.c1 != isa::RegClass::None) +
                  (rec.c2 != isa::RegClass::None) + rec.has_dst();
  }
  std::uint64_t recordings = 0;
};

TEST(RixnerProbe, WrongPathTrafficIsCountedSeparately) {
  // The timer kernel's interrupt deliveries and IRET flushes squash
  // sequential-path work every few hundred instructions, so wrong-path
  // rename/RF traffic must show up — and stay out of the headline
  // committed-work counters (reads <= 2 and writes <= 1 per commit still
  // hold exactly, and the LUs Table is charged committed recordings only).
  const arch::Program program = workloads::assemble_workload("timer");
  const sim::SimConfig config = probe_config(core::PolicyKind::Extended);
  RixnerProbe probe;
  CommittedRecordings committed;
  auto core = sim::Simulator(config).make_core(program);
  core->attach_probe(&probe);
  core->attach_probe(&committed);
  const sim::SimStats stats = core->run();
  ASSERT_GT(stats.committed, 10'000u);

  const sim::StatRegistry& reg = core->registry();
  EXPECT_GT(reg.counter_value("power/wrongpath_renames"), 0u);
  const std::uint64_t wp_reads =
      reg.counter_value("power/wrongpath_rf_reads/int") +
      reg.counter_value("power/wrongpath_rf_reads/fp");
  const std::uint64_t wp_writes =
      reg.counter_value("power/wrongpath_rf_writes/int") +
      reg.counter_value("power/wrongpath_rf_writes/fp");
  EXPECT_GT(wp_reads, 0u);
  EXPECT_GT(wp_writes, 0u);
  EXPECT_GT(reg.counter_value("power/wrongpath_lus_accesses"), 0u);
  const std::uint64_t reads = reg.counter_value("power/rf_reads/int") +
                              reg.counter_value("power/rf_reads/fp");
  const std::uint64_t writes = reg.counter_value("power/rf_writes/int") +
                               reg.counter_value("power/rf_writes/fp");
  EXPECT_LE(reads, 2 * stats.committed);
  EXPECT_LE(writes, stats.committed);
  EXPECT_EQ(reg.counter_value("power/lus_accesses"), committed.recordings);
}

TEST(RixnerProbe, ConventionalPolicyHasNoLusTraffic) {
  const arch::Program program = workloads::assemble_workload("li");
  const sim::SimConfig config = probe_config(core::PolicyKind::Conventional);
  RixnerProbe probe;
  auto core = sim::Simulator(config).make_core(program);
  core->attach_probe(&probe);
  (void)core->run();
  EXPECT_EQ(core->registry().counter_value("power/lus_accesses"), 0u);
  std::vector<sim::Metric> conv_metrics;
  probe.export_metrics(config, core->registry(), conv_metrics);
  ASSERT_EQ(conv_metrics.size(), 2u);
  EXPECT_GT(conv_metrics[0].value, 0.0);
}

}  // namespace
}  // namespace erel::power

// Checkpointed interval sampling: the sampled IPC estimate tracks the full
// detailed simulation, instruction counts stay exact, error bars populate,
// and the harness runs sampled specs transparently.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch_state.hpp"
#include "arch/decoded_program.hpp"
#include "asmkit/assembler.hpp"
#include "harness/harness.hpp"
#include "isa/isa.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

sim::SimConfig test_config() {
  sim::SimConfig config;
  config.policy = core::PolicyKind::Extended;
  config.phys_int = config.phys_fp = 64;
  config.check_oracle = false;
  return config;
}

sim::SamplingConfig test_sampling() {
  sim::SamplingConfig s;
  s.period = 20'000;
  s.warmup = 2'000;
  s.detail = 5'000;
  return s;
}

TEST(Sampling, SampledIpcMatchesFullDetailedRun) {
  const arch::Program program = workloads::assemble_workload("li");
  const sim::SimConfig config = test_config();
  const sim::SimStats full = sim::Simulator(config).run(program);
  ASSERT_TRUE(full.halted);

  const sim::SampledStats sampled =
      sim::SampledSimulator(config, test_sampling()).run(program);
  ASSERT_GT(sampled.samples.size(), 1u);
  // The functional master executes every instruction (the detailed commit
  // count excludes the non-retiring HALT, the functional count includes it).
  EXPECT_EQ(sampled.total_instructions, full.committed + 1);
  EXPECT_TRUE(sampled.estimate.halted);
  EXPECT_NEAR(sampled.estimate.ipc(), full.ipc(), 0.10 * full.ipc());
  EXPECT_LT(sampled.detail_fraction(), 0.5);
}

TEST(Sampling, ErrorBarsArePopulated) {
  const arch::Program program = workloads::assemble_workload("li");
  const sim::SampledStats sampled =
      sim::SampledSimulator(test_config(), test_sampling()).run(program);
  ASSERT_GT(sampled.samples.size(), 1u);
  EXPECT_GT(sampled.ipc_mean, 0.0);
  EXPECT_GT(sampled.cpi_mean, 0.0);
  EXPECT_GE(sampled.ipc_stddev, 0.0);
  EXPECT_GT(sampled.ipc_stderr, 0.0);
  EXPECT_DOUBLE_EQ(sampled.ipc_ci95, 1.96 * sampled.ipc_stderr);
  EXPECT_EQ(sampled.measured_instructions,
            [&] {
              std::uint64_t sum = 0;
              for (const auto& s : sampled.samples) sum += s.instructions;
              return sum;
            }());
  const std::string report = sim::format_sampled_stats(sampled);
  EXPECT_NE(report.find("IPC estimate"), std::string::npos);
}

TEST(Sampling, MaxSamplesCapStillCountsEveryInstruction) {
  const arch::Program program = workloads::assemble_workload("li");
  sim::SamplingConfig s = test_sampling();
  s.max_samples = 2;
  const sim::SampledStats capped =
      sim::SampledSimulator(test_config(), s).run(program);
  EXPECT_LE(capped.samples.size(), 2u);

  const sim::SampledStats uncapped =
      sim::SampledSimulator(test_config(), test_sampling()).run(program);
  EXPECT_EQ(capped.total_instructions, uncapped.total_instructions);
}

TEST(Sampling, MeasuredWindowCountersAccumulate) {
  const arch::Program program = workloads::assemble_workload("li");
  const sim::SampledStats sampled =
      sim::SampledSimulator(test_config(), test_sampling()).run(program);
  EXPECT_EQ(sampled.measured.committed, sampled.detailed_instructions);
  EXPECT_GT(sampled.measured.cycles, 0u);
  EXPECT_GT(sampled.measured.branches.cond_branches, 0u);
  EXPECT_GT(sampled.measured.l1d.accesses, 0u);
  // Policy counters and occupancy now merge too (registry-based merging):
  // `measured` is exactly the SimStats view of the merged registry.
  EXPECT_GT(sampled.measured.policy_stats[0].early_commit_releases, 0u);
  EXPECT_GT(sampled.measured.occupancy[0].avg_allocated(), 0.0);
  const sim::SimStats view = sim::materialize_sim_stats(sampled.registry);
  EXPECT_EQ(view.cycles, sampled.measured.cycles);
  EXPECT_EQ(view.committed, sampled.measured.committed);
  EXPECT_EQ(view.stalls.free_list_empty,
            sampled.measured.stalls.free_list_empty);
  EXPECT_EQ(view.policy_stats[0].early_commit_releases,
            sampled.measured.policy_stats[0].early_commit_releases);
}

TEST(Sampling, ProbesAttachPerWindowAndMergeThroughTheRegistry) {
  // A probe that counts commits into its own registry entry: each window
  // runs a fresh instance, the merged registry sums them, and the total
  // must equal the merged measured commit count.
  struct CommitCounter final : sim::Probe {
    sim::StatRegistry::Counter* commits = nullptr;
    void on_run_begin(const sim::SimConfig&,
                      sim::StatRegistry& reg) override {
      commits = &reg.counter("test/commits");
    }
    void on_commit(const sim::CommitEvent&) override { ++*commits; }
  };
  const std::vector<sim::ProbeSpec> probes = {
      {"commit-counter", [] { return std::make_unique<CommitCounter>(); }}};

  const arch::Program program = workloads::assemble_workload("li");
  sim::SamplingConfig s = test_sampling();
  s.threads = 1;
  const sim::SampledStats serial =
      sim::SampledSimulator(test_config(), s).run(program, probes);
  ASSERT_GT(serial.samples.size(), 1u);
  EXPECT_EQ(serial.registry.counter_value("test/commits"),
            serial.measured.committed);

  // Sharded probes stay per-window (race-free) and merge bit-identically.
  s.threads = 4;
  const sim::SampledStats sharded =
      sim::SampledSimulator(test_config(), s).run(program, probes);
  EXPECT_EQ(serial.registry, sharded.registry);
}

TEST(Sampling, HarnessRunsSampledSpecs) {
  harness::RunSpec full_spec{
      "li", harness::experiment_config(core::PolicyKind::Extended, 64),
      "full", std::nullopt, {}};
  harness::RunSpec sampled_spec = full_spec;
  sampled_spec.tag = "sampled";
  sampled_spec.sampling = test_sampling();
  const auto results = harness::run_all({full_spec, sampled_spec}, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].sampled.has_value());
  ASSERT_TRUE(results[1].sampled.has_value());
  EXPECT_EQ(results[1].stats.committed,
            results[1].sampled->estimate.committed);
  EXPECT_NEAR(results[1].stats.ipc(), results[0].stats.ipc(),
              0.10 * results[0].stats.ipc());
}

TEST(Sampling, OracleCheckedSamplingWorks) {
  // check_oracle on: every committed instruction in every detailed window is
  // co-validated against the restored functional state.
  const arch::Program program = workloads::assemble_workload("li");
  sim::SimConfig config = test_config();
  config.check_oracle = true;
  const sim::SampledStats sampled =
      sim::SampledSimulator(config, test_sampling()).run(program);
  EXPECT_GT(sampled.samples.size(), 0u);
  EXPECT_TRUE(sampled.estimate.halted);
}

void expect_stats_identical(const sim::SampledStats& a,
                            const sim::SampledStats& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.measured_instructions, b.measured_instructions);
  EXPECT_EQ(a.detailed_instructions, b.detailed_instructions);
  EXPECT_EQ(a.estimate.cycles, b.estimate.cycles);
  // Bit-for-bit, not approximately: the merge is deterministic.
  EXPECT_EQ(a.cpi_mean, b.cpi_mean);
  EXPECT_EQ(a.ipc_ci95, b.ipc_ci95);
  // Every registry metric — counters, occupancy integral accumulators,
  // distributions, channels — must merge bit-identically, not just IPC.
  EXPECT_EQ(a.registry, b.registry);
}

TEST(SamplingPlacement, SameSeedReproducesIdenticalSamples) {
  const arch::Program program = workloads::assemble_workload("li");
  for (const auto placement :
       {sim::Placement::kRandom, sim::Placement::kStratified}) {
    sim::SamplingConfig s = test_sampling();
    s.placement = placement;
    s.seed = 1234;
    const sim::SampledStats a =
        sim::SampledSimulator(test_config(), s).run(program);
    const sim::SampledStats b =
        sim::SampledSimulator(test_config(), s).run(program);
    ASSERT_GT(a.samples.size(), 1u)
        << sim::placement_name(placement);
    expect_stats_identical(a, b);
  }
}

TEST(SamplingPlacement, StratifiedStaysInsideItsInterval) {
  const arch::Program program = workloads::assemble_workload("li");
  sim::SamplingConfig s = test_sampling();
  s.placement = sim::Placement::kStratified;
  s.seed = 7;
  const sim::SampledStats stats =
      sim::SampledSimulator(test_config(), s).run(program);
  ASSERT_GT(stats.samples.size(), 1u);
  const std::uint64_t window = s.warmup + s.detail;
  std::uint64_t interval = 0;
  for (const auto& sample : stats.samples) {
    // One unit per period, placed so the window cannot cross into the next
    // interval. Intervals with no sample (program ended) cannot occur here.
    EXPECT_GE(sample.start_instruction, interval * s.period);
    EXPECT_LE(sample.start_instruction, (interval + 1) * s.period - window);
    ++interval;
  }
}

TEST(SamplingPlacement, DifferentSeedsMoveTheUnits) {
  const arch::Program program = workloads::assemble_workload("li");
  sim::SamplingConfig s = test_sampling();
  s.placement = sim::Placement::kStratified;
  s.seed = 1;
  const sim::SampledStats a =
      sim::SampledSimulator(test_config(), s).run(program);
  s.seed = 2;
  const sim::SampledStats b =
      sim::SampledSimulator(test_config(), s).run(program);
  ASSERT_GT(a.samples.size(), 2u);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  bool any_moved = false;
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    any_moved |= a.samples[i].start_instruction !=
                 b.samples[i].start_instruction;
  EXPECT_TRUE(any_moved);
}

TEST(SamplingPlacement, ParseAndNameRoundTrip) {
  for (const auto placement :
       {sim::Placement::kPeriodic, sim::Placement::kRandom,
        sim::Placement::kStratified}) {
    EXPECT_EQ(sim::parse_placement(sim::placement_name(placement)),
              placement);
  }
  EXPECT_EQ(sim::parse_placement("bogus"), std::nullopt);
}

TEST(SamplingSharded, MatchesSerialBitForBit) {
  const arch::Program program = workloads::assemble_workload("li");
  for (const auto placement :
       {sim::Placement::kPeriodic, sim::Placement::kStratified}) {
    // A cap of 3 trips mid-program: the planner runs on to HALT while the
    // capped units are still being measured.
    for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{3}}) {
      // Warming off takes the planner's plain fast-forward branches: no
      // warm snapshot rides with a unit, and the capped tail runs untrained.
      std::uint64_t warmed_total = 0;
      for (const bool warming : {true, false}) {
        SCOPED_TRACE(std::string(sim::placement_name(placement)) + " cap " +
                     std::to_string(cap) + " warming " +
                     (warming ? "on" : "off"));
        sim::SamplingConfig s = test_sampling();
        s.placement = placement;
        s.seed = 99;
        s.max_samples = cap;
        s.functional_warming = warming;
        s.threads = 1;
        const sim::SampledStats serial =
            sim::SampledSimulator(test_config(), s).run(program);
        ASSERT_GT(serial.samples.size(), 1u);
        if (cap != 0) {
          ASSERT_EQ(serial.units_planned, cap);
          ASSERT_GT(serial.total_instructions, (cap + 1) * s.period);
        }
        if (warming) {
          warmed_total = serial.total_instructions;
        } else {
          EXPECT_EQ(serial.total_instructions, warmed_total);
        }
        for (const unsigned threads : {2u, 3u, 4u}) {
          SCOPED_TRACE(threads);
          s.threads = threads;
          expect_stats_identical(
              serial, sim::SampledSimulator(test_config(), s).run(program));
        }
      }
    }
  }
}

/// A loop that patches an instruction of its second loop partway through.
/// The drain loop between the store and the patched loop is longer than
/// any fetch-ahead, so the store commits before the patched word is
/// fetched and the oracle agrees with every committed instruction.
arch::Program self_modifying_loop() {
  isa::DecodedInst repl;
  repl.op = isa::Opcode::ADDI;
  repl.rd = 4;
  repl.rs1 = 4;
  repl.imm = 7;
  char src[768];
  std::snprintf(src, sizeof src, R"(
main:
  li   r3, 0
  li   r4, 0
  li   r5, 2000
first:
  addi r3, r3, 1
  add  r4, r4, r3
  blt  r3, r5, first
  la   r2, patch
  la   r6, newword
  lw   r7, 0(r6)
  sw   r7, 0(r2)       ; patch the second loop's body
  li   r3, 0
  li   r5, 500
drain:
  addi r3, r3, 1
  blt  r3, r5, drain
  li   r3, 0
  li   r5, 3500
second:
patch:
  addi r4, r4, 1       ; becomes addi r4, r4, 7
  addi r3, r3, 1
  blt  r3, r5, second
  halt

.data
newword:
  .word %u
)",
                static_cast<unsigned>(isa::encode(repl)));
  return asmkit::assemble(src);
}

TEST(SamplingSharded, SelfModifyingCodeMatchesSerialBitForBit) {
  const arch::Program program = self_modifying_loop();
  // Where the planning oracle dirties its code image: units captured after
  // this point must execute byte-accurately.
  const arch::DecodedProgram decoded(program);
  arch::ArchState master(program, &decoded);
  while (!master.halted() && !master.code_dirtied()) master.step();
  ASSERT_TRUE(master.code_dirtied());
  const std::uint64_t patched_at = master.instructions_executed();

  sim::SimConfig config = test_config();
  config.check_oracle = true;
  sim::SamplingConfig s;
  s.period = 3'000;
  s.warmup = 300;
  s.detail = 700;
  s.threads = 1;
  const sim::SampledStats serial =
      sim::SampledSimulator(config, s).run(program);
  EXPECT_TRUE(serial.estimate.halted);
  ASSERT_EQ(serial.samples.size(), 6u);
  EXPECT_LT(serial.samples.front().start_instruction, patched_at);
  EXPECT_GT(serial.samples.back().start_instruction, patched_at);
  s.threads = 4;
  expect_stats_identical(serial,
                         sim::SampledSimulator(config, s).run(program));
}

TEST(SamplingSharded, HarnessRunsShardedSpecs) {
  harness::RunSpec spec{
      "li", harness::experiment_config(core::PolicyKind::Extended, 64),
      "sharded", test_sampling(), {}};
  spec.sampling->placement = sim::Placement::kStratified;
  spec.sampling->threads = 2;
  const auto results = harness::run_all({spec}, 1);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].sampled.has_value());
  EXPECT_GT(results[0].sampled->samples.size(), 1u);
}

TEST(SamplingStopping, TargetCiStopsBeforeMeasuringEveryUnit) {
  const arch::Program program = workloads::assemble_workload("li");
  sim::SamplingConfig s;
  s.period = 10'000;  // small enough to plan well over one CI batch of units
  s.warmup = 1'000;
  s.detail = 2'000;
  s.placement = sim::Placement::kStratified;
  s.seed = 5;
  const sim::SampledStats all =
      sim::SampledSimulator(test_config(), s).run(program);
  ASSERT_GT(all.units_planned, 9u) << "workload too short for this test";

  s.target_ci = 1e6;  // any 2-sample batch satisfies this
  const sim::SampledStats stopped =
      sim::SampledSimulator(test_config(), s).run(program);
  EXPECT_LT(stopped.samples.size(), all.samples.size());
  EXPECT_LE(stopped.samples.size(), 8u);  // one CI batch
  // The planning pass still sweeps the whole program: counts stay exact.
  EXPECT_EQ(stopped.total_instructions, all.total_instructions);
  EXPECT_EQ(stopped.units_planned, all.units_planned);
}

TEST(SamplingStopping, UnreachableTargetMeasuresEveryPlannedUnit) {
  const arch::Program program = workloads::assemble_workload("li");
  sim::SamplingConfig s = test_sampling();
  s.placement = sim::Placement::kStratified;
  s.seed = 5;
  s.target_ci = 1e-15;  // never satisfied on a real workload
  const sim::SampledStats stats =
      sim::SampledSimulator(test_config(), s).run(program);
  EXPECT_EQ(stats.samples.size(), stats.units_planned);
  EXPECT_GT(stats.ipc_ci95, 1e-15);
}

TEST(SamplingStopping, MaxSamplesStaysAHardCap) {
  const arch::Program program = workloads::assemble_workload("li");
  sim::SamplingConfig s = test_sampling();
  s.target_ci = 1e-15;  // wants every unit...
  s.max_samples = 3;    // ...but the cap wins
  const sim::SampledStats stats =
      sim::SampledSimulator(test_config(), s).run(program);
  EXPECT_LE(stats.samples.size(), 3u);
  EXPECT_EQ(stats.units_planned, 3u);

  const sim::SampledStats uncapped =
      sim::SampledSimulator(test_config(), test_sampling()).run(program);
  EXPECT_EQ(stats.total_instructions, uncapped.total_instructions);
}

TEST(SamplingStopping, CiStoppingIsThreadCountInvariant) {
  const arch::Program program = workloads::assemble_workload("li");
  sim::SamplingConfig s = test_sampling();
  s.placement = sim::Placement::kStratified;
  s.seed = 11;
  s.target_ci = 0.05;
  s.threads = 1;
  const sim::SampledStats serial =
      sim::SampledSimulator(test_config(), s).run(program);
  s.threads = 3;
  const sim::SampledStats sharded =
      sim::SampledSimulator(test_config(), s).run(program);
  expect_stats_identical(serial, sharded);
}

TEST(Sampling, TinyCycleLimitCannotPoisonTheEstimate) {
  // Windows whose warm-up runs into max_cycles must never contribute
  // infinite per-sample IPC to the mean (degenerate windows are dropped).
  const arch::Program program = workloads::assemble_workload("li");
  sim::SimConfig config = test_config();
  config.max_cycles = 64;
  const sim::SampledStats stats =
      sim::SampledSimulator(config, test_sampling()).run(program);
  EXPECT_TRUE(std::isfinite(stats.estimate.ipc()));
  EXPECT_TRUE(std::isfinite(stats.ipc_mean));
  for (const auto& sample : stats.samples) {
    EXPECT_GT(sample.cycles, 0u);
    EXPECT_TRUE(std::isfinite(sample.ipc()));
  }
}

TEST(SamplingDeathTest, PeriodMustExceedWindow) {
  sim::SamplingConfig s;
  s.period = 1000;
  s.warmup = 800;
  s.detail = 300;
  EXPECT_DEATH(sim::SampledSimulator(test_config(), s), "period");
  // warmup + detail wraps to 1 here: the check must not add them.
  s.period = 100;
  s.warmup = ~std::uint64_t{0};
  s.detail = 2;
  EXPECT_DEATH(sim::SampledSimulator(test_config(), s), "period");
}

}  // namespace
}  // namespace erel

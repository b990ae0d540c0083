// End-to-end pipeline behaviour on small programs: throughput bounds,
// dependence latencies, branch recovery, structural stalls, memory timing.
#include <gtest/gtest.h>

#include <string>

#include "asmkit/assembler.hpp"
#include "common/bits.hpp"
#include "sim/simulator.hpp"

namespace erel {
namespace {

sim::SimConfig base_config() {
  sim::SimConfig config;
  config.policy = core::PolicyKind::Extended;
  config.phys_int = 160;
  config.phys_fp = 160;
  config.check_oracle = true;
  return config;
}

sim::SimStats run_src(const std::string& src,
                      sim::SimConfig config = base_config()) {
  return sim::Simulator(config).run(asmkit::assemble(src));
}

TEST(Pipeline, IndependentOpsApproachIssueWidth) {
  const auto stats = run_src(R"(
main:
  li r5, 2000
loop:
  addi r10, r10, 1
  addi r11, r11, 1
  addi r12, r12, 1
  addi r13, r13, 1
  addi r14, r14, 1
  addi r15, r15, 1
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  EXPECT_GT(stats.ipc(), 6.0);
  EXPECT_TRUE(stats.halted);
}

TEST(Pipeline, SerialChainBoundByUnitLatency) {
  const auto stats = run_src(R"(
main:
  li r5, 2000
loop:
  addi r10, r10, 1
  addi r10, r10, 1
  addi r10, r10, 1
  addi r10, r10, 1
  addi r10, r10, 1
  addi r10, r10, 1
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  // Six serial 1-cycle ops per iteration: ~8/6 IPC upper bound.
  EXPECT_GT(stats.ipc(), 1.1);
  EXPECT_LT(stats.ipc(), 1.45);
}

TEST(Pipeline, FpMulChainBoundByLatency) {
  const auto stats = run_src(R"(
main:
  li r5, 1000
  la r3, one
  fld f1, 0(r3)
loop:
  fmul f2, f2, f1
  addi r5, r5, -1
  bnez r5, loop
  halt
.data
one: .double 1.0
)");
  // The fmul chain (4 cycles) dominates: 3 instructions / 4 cycles.
  EXPECT_GT(stats.ipc(), 0.65);
  EXPECT_LT(stats.ipc(), 0.85);
}

TEST(Pipeline, PredictableBranchesCostLittle) {
  const auto stats = run_src(R"(
main:
  li r5, 5000
loop:
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  EXPECT_GT(stats.branches.cond_accuracy(), 0.98);
}

TEST(Pipeline, DataDependentBranchesMispredict) {
  // Branch on a pseudo-random bit: ~50% mispredict no matter the predictor.
  const auto stats = run_src(R"(
main:
  li r5, 4000
  li r6, 12345
  li r20, 1103515245
loop:
  mul  r6, r6, r20
  addi r6, r6, 4321
  slli r6, r6, 32
  srli r6, r6, 32
  srli r7, r6, 16
  andi r7, r7, 1
  beqz r7, skip
  addi r8, r8, 1
skip:
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  // An 18-bit gshare partially memorizes short LCG cycles, so accuracy is
  // not coin-flip level — but far below the >98% of predictable loops.
  EXPECT_LT(stats.branches.cond_accuracy(), 0.95);
  EXPECT_GT(stats.branches.cond_mispredicts, 300u);
  EXPECT_TRUE(stats.halted);  // recovery works under heavy misprediction
}

TEST(Pipeline, MispredictionRecoveryPreservesResults) {
  // Alternating data-dependent branches with state updates on both paths;
  // the oracle (enabled) validates every commit.
  const auto stats = run_src(R"(
main:
  li r5, 2000
  li r6, 99
  li r9, 0
loop:
  mul  r6, r6, r6
  addi r6, r6, 7
  slli r6, r6, 48
  srli r6, r6, 48
  andi r7, r6, 3
  beqz r7, path_a
  addi r9, r9, 2
  b    join
path_a:
  addi r9, r9, 5
join:
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  EXPECT_TRUE(stats.halted);
}

TEST(Pipeline, CallReturnUsesRas) {
  const auto stats = run_src(R"(
main:
  li r2, 0x200000
  li r5, 1500
loop:
  call leaf
  addi r5, r5, -1
  bnez r5, loop
  halt
leaf:
  addi r10, r10, 1
  ret
)");
  EXPECT_TRUE(stats.halted);
  // Returns predicted via the RAS: very few indirect mispredicts.
  EXPECT_GT(stats.branches.indirect_jumps, 1400u);
  EXPECT_LT(stats.branches.indirect_mispredicts,
            stats.branches.indirect_jumps / 10);
}

TEST(Pipeline, LoadUseLatencyVisible) {
  const auto with_loads = run_src(R"(
main:
  li r5, 2000
  la r3, buf
loop:
  ld   r10, 0(r3)
  addi r10, r10, 1
  sd   r10, 0(r3)
  addi r5, r5, -1
  bnez r5, loop
  halt
.data
buf: .space 8
)");
  EXPECT_TRUE(with_loads.halted);
  // The ld -> addi -> sd -> ld chain through memory serializes iterations
  // (store-to-load forwarding keeps it at ~2 cycles per turn, still far
  // below the 8-wide machine's independent-op throughput).
  EXPECT_LT(with_loads.ipc(), 3.0);
}

TEST(Pipeline, StoreLoadForwardingEndToEnd) {
  // The reload of a just-stored value must come from the LSQ and match.
  const auto stats = run_src(R"(
main:
  la  r3, buf
  li  r4, 1000
loop:
  sd  r4, 0(r3)
  ld  r6, 0(r3)
  add r7, r7, r6
  addi r4, r4, -1
  bnez r4, loop
  halt
.data
buf: .space 8
)");
  EXPECT_TRUE(stats.halted);  // oracle checks all forwarded values
}

TEST(Pipeline, TightRegisterFileCausesRenameStalls) {
  sim::SimConfig tight = base_config();
  tight.policy = core::PolicyKind::Conventional;
  tight.phys_int = 36;
  const auto stats = run_src(R"(
main:
  li r5, 500
loop:
  addi r10, r10, 1
  addi r11, r11, 1
  addi r12, r12, 1
  addi r13, r13, 1
  addi r14, r14, 1
  addi r15, r15, 1
  addi r16, r16, 1
  addi r17, r17, 1
  addi r5, r5, -1
  bnez r5, loop
  halt
)",
                             tight);
  EXPECT_GT(stats.stalls.free_list_empty, 100u);
  EXPECT_TRUE(stats.halted);
}

TEST(Pipeline, ColdCachesCostCycles) {
  // Stream over 256KB: misses in L1 (32KB), mostly hits in L2.
  const auto stats = run_src(R"(
main:
  la  r3, big
  li  r4, 32768
loop:
  ld  r6, 0(r3)
  add r7, r7, r6
  addi r3, r3, 8
  addi r4, r4, -1
  bnez r4, loop
  halt
.data
big: .space 262144
)");
  EXPECT_GT(stats.l1d.misses, 3000u);
  EXPECT_TRUE(stats.halted);
}

TEST(Pipeline, ArchRegReadback) {
  sim::Simulator simulator(base_config());
  auto core = simulator.make_core(asmkit::assemble(R"(
main:
  li   r7, 1234
  la   r3, val
  fld  f2, 0(r3)
  halt
.data
val: .double 6.25
)"));
  core->run();
  EXPECT_EQ(core->arch_reg(core::RC::Int, 7), 1234u);
  EXPECT_EQ(u2f(core->arch_reg(core::RC::Fp, 2)), 6.25);
  EXPECT_TRUE(core->conservation_holds());
}

TEST(Pipeline, MaxInstructionLimitStopsEarly) {
  sim::SimConfig config = base_config();
  config.max_instructions = 100;
  const auto stats = run_src(R"(
main:
loop:
  addi r3, r3, 1
  b loop
)",
                             config);
  EXPECT_FALSE(stats.halted);
  EXPECT_GE(stats.committed, 100u);
  EXPECT_LT(stats.committed, 140u);  // overshoot bounded by commit width
}

TEST(Pipeline, RosWrapsManyTimes) {
  // > 128 * 30 instructions: the ROS ring must wrap cleanly.
  const auto stats = run_src(R"(
main:
  li r5, 1000
loop:
  addi r10, r10, 1
  addi r11, r11, 1
  addi r12, r12, 1
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  EXPECT_GT(stats.committed, 5000u);
  EXPECT_TRUE(stats.halted);
}

TEST(Pipeline, DeepRecursionExercisesCheckpointPressure) {
  sim::SimConfig config = base_config();
  config.max_pending_branches = 4;  // at most four unresolved branches
  const auto stats = run_src(R"(
main:
  li r2, 0x200000
  li r5, 600
loop:
  andi r7, r5, 7
  beqz r7, even
  addi r9, r9, 1
  b next
even:
  addi r9, r9, 3
next:
  addi r5, r5, -1
  bnez r5, loop
  halt
)",
                             config);
  EXPECT_TRUE(stats.halted);
  EXPECT_GT(stats.stalls.checkpoints_full, 0u);
}

}  // namespace
}  // namespace erel

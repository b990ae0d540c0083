// Architectural checkpoints: memory/register capture+restore, and the
// determinism guarantee sampled simulation rests on — a detailed
// core resumed from a checkpoint commits the identical instruction stream an
// uninterrupted run commits from that point on.
#include <gtest/gtest.h>

#include <vector>

#include "arch/arch_state.hpp"
#include "arch/checkpoint.hpp"
#include "asmkit/assembler.hpp"
#include "pipeline/core.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

TEST(Checkpoint, MemoryCaptureRestore) {
  arch::SparseMemory mem;
  mem.write(0x1000, 0x1122334455667788ull, 8);
  mem.write(0x7fff000, 0xabcd, 2);
  arch::Checkpoint ckpt;
  arch::capture_memory(mem, ckpt);
  EXPECT_EQ(ckpt.pages.size(), 2u);

  mem.write(0x1000, 0, 8);          // clobber
  mem.write(0x900000, 42, 4);       // extra page that must disappear
  arch::restore_memory(ckpt, mem);
  EXPECT_EQ(mem.read(0x1000, 8), 0x1122334455667788ull);
  EXPECT_EQ(mem.read(0x7fff000, 2), 0xabcdu);
  EXPECT_EQ(mem.read(0x900000, 4), 0u);
  EXPECT_EQ(mem.resident_pages(), 2u);
}

TEST(Checkpoint, ArchStateResumeIsDeterministic) {
  const arch::Program program = workloads::assemble_workload("li");
  arch::ArchState reference(program);
  reference.run(1000);
  ASSERT_FALSE(reference.halted());
  const arch::Checkpoint ckpt = arch::capture(reference);
  EXPECT_EQ(ckpt.icount, 1000u);

  // Continue the reference, recording its PC stream to completion.
  std::vector<std::uint64_t> expected;
  while (!reference.halted()) expected.push_back(reference.step().pc);

  // A fresh state restored from the checkpoint replays it exactly.
  arch::ArchState resumed(program);
  arch::restore(ckpt, resumed);
  EXPECT_EQ(resumed.pc(), ckpt.pc);
  EXPECT_EQ(resumed.instructions_executed(), 1000u);
  std::vector<std::uint64_t> actual;
  while (!resumed.halted()) actual.push_back(resumed.step().pc);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(resumed.instructions_executed(), reference.instructions_executed());
  for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
    EXPECT_EQ(resumed.int_reg(r), reference.int_reg(r));
    EXPECT_EQ(resumed.fp_reg(r), reference.fp_reg(r));
  }
}

namespace {

/// Probe recording commit events (the successor of the old config.trace
/// hook); the inst/rec pointers die with the callback, so they are nulled.
struct CommitRecorder final : sim::Probe {
  std::vector<sim::CommitEvent>& out;
  explicit CommitRecorder(std::vector<sim::CommitEvent>& o) : out(o) {}
  void on_commit(const sim::CommitEvent& ev) override {
    sim::CommitEvent copy = ev;
    copy.inst = nullptr;
    copy.rec = nullptr;
    out.push_back(copy);
  }
};

}  // namespace

TEST(Checkpoint, CoreResumeCommitsIdenticalStream) {
  const arch::Program program = workloads::assemble_workload("li");
  sim::SimConfig config;
  config.policy = core::PolicyKind::Extended;
  config.phys_int = config.phys_fp = 48;
  config.check_oracle = true;

  // Uninterrupted detailed run.
  std::vector<sim::CommitEvent> full;
  {
    CommitRecorder recorder(full);
    sim::Simulator(config).run(program, {&recorder});
  }
  constexpr std::uint64_t kSkip = 5000;
  ASSERT_GT(full.size(), kSkip);

  // Functional fast-forward to kSkip instructions, then a detailed core
  // resumed from the checkpoint. check_oracle stays on: every committed
  // value is co-validated against the restored functional state.
  arch::ArchState master(program);
  master.run(kSkip);
  const arch::Checkpoint ckpt = arch::capture(master);

  std::vector<sim::CommitEvent> resumed;
  CommitRecorder recorder(resumed);
  pipeline::Core core(config, program, ckpt);
  core.attach_probe(&recorder);
  const sim::SimStats stats = core.run();
  EXPECT_TRUE(stats.halted);

  // The resumed commit stream is exactly the uninterrupted run's tail.
  ASSERT_EQ(resumed.size(), full.size() - kSkip);
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i].pc, full[kSkip + i].pc) << "commit " << i;
    EXPECT_EQ(resumed[i].encoding, full[kSkip + i].encoding) << "commit " << i;
  }
}

TEST(Checkpoint, ResumedCoreReadsCheckpointedRegisters) {
  // A program whose tail stores registers defined before the checkpoint:
  // the resumed core must observe the checkpointed values, not zeros.
  const arch::Program program = asmkit::assemble(R"(
main:
  li   r5, 1234
  li   r6, 5678
  add  r7, r5, r6
  la   r8, result
  sd   r7, 0(r8)
  halt
.data
result: .dword 0
)");
  arch::ArchState master(program);
  master.run(3);  // past the defining instructions, before the store
  const arch::Checkpoint ckpt = arch::capture(master);

  sim::SimConfig config;
  config.check_oracle = true;
  pipeline::Core core(config, program, ckpt);
  core.run();
  const std::uint64_t result_addr = program.symbols.at("result");
  EXPECT_EQ(core.memory().read(result_addr, 8), 1234u + 5678u);
}

TEST(Checkpoint, HaltedStateRoundTrips) {
  const arch::Program program = asmkit::assemble("main:\n  li r1, 1\n  halt\n");
  arch::ArchState state(program);
  state.run();
  ASSERT_TRUE(state.halted());
  const arch::Checkpoint ckpt = arch::capture(state);
  EXPECT_TRUE(ckpt.halted);

  arch::ArchState resumed(program);
  arch::restore(ckpt, resumed);
  EXPECT_TRUE(resumed.halted());
  const arch::StepInfo info = resumed.step();  // frozen
  EXPECT_TRUE(info.halted);
  EXPECT_EQ(resumed.int_reg(1), 1u);
}

}  // namespace
}  // namespace erel

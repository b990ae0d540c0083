// Interrupt / device-model suite: the dev::Machine determinism contract.
//
// The device is clocked by retired instructions, so every engine that
// retires the same instruction stream must observe the same device — and
// deliver interrupts at the same instruction boundaries. These tests pin
// exactly that: the detailed pipeline (all three release policies), the
// decoded functional fast path, sampled-sharded runs and checkpoint-resumed
// runs all produce bit-identical commit streams on the interrupt kernels,
// and trap state survives a checkpoint capture and restore.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/arch_state.hpp"
#include "arch/checkpoint.hpp"
#include "arch/decoded_program.hpp"
#include "dev/machine.hpp"
#include "pipeline/core.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

/// One functional step: enough to identify an instruction boundary.
struct RefStep {
  std::uint64_t pc = 0;
  bool operator==(const RefStep&) const = default;
};

/// Byte-accurate functional reference: the committed-pc stream (HALT
/// excluded — the detailed core never retires it) plus the final state.
std::vector<RefStep> reference_stream(arch::ArchState& state) {
  std::vector<RefStep> stream;
  while (!state.halted()) stream.push_back({state.step().pc});
  // Drop the HALT (the functional engine counts it, the detailed core
  // stops without retiring it).
  if (!stream.empty()) stream.pop_back();
  return stream;
}

std::vector<RefStep> reference_stream(const arch::Program& program) {
  arch::ArchState state(program);
  return reference_stream(state);
}

struct CommitRecorder final : sim::Probe {
  std::vector<RefStep> stream;
  std::vector<std::uint32_t> encodings;
  void on_commit(const sim::CommitEvent& ev) override {
    stream.push_back({ev.pc});
    encodings.push_back(ev.encoding);
  }
};

sim::SimConfig irq_config(core::PolicyKind policy) {
  sim::SimConfig config;
  config.policy = policy;
  config.phys_int = config.phys_fp = 48;  // pressure: squashes matter
  config.check_oracle = true;
  return config;
}

std::uint64_t result_word(const arch::ArchState& state,
                          const arch::Program& program, unsigned offset) {
  return state.memory().read(program.symbols.at("result") + offset, 8);
}

TEST(Interrupts, TimerKernelBehavesFunctionally) {
  const arch::Program program = workloads::assemble_workload("timer");
  arch::ArchState state(program);
  state.run(20'000'000);
  ASSERT_TRUE(state.halted());
  EXPECT_GT(state.instructions_executed(), 100'000u);
  EXPECT_LT(state.instructions_executed(), 5'000'000u);
  EXPECT_NE(result_word(state, program, 0), 0u);  // checksum<<1|1
  const std::uint64_t handler_ticks = result_word(state, program, 8);
  const std::uint64_t device_ticks = result_word(state, program, 16);
  EXPECT_GT(handler_ticks, 100u);  // ~196k insts / period 400
  EXPECT_EQ(handler_ticks, device_ticks);  // no tick lost or duplicated
}

TEST(Interrupts, EchoKernelBehavesFunctionally) {
  const arch::Program program = workloads::assemble_workload("echo");
  arch::ArchState state(program);
  state.run(20'000'000);
  ASSERT_TRUE(state.halted());
  EXPECT_GT(state.instructions_executed(), 100'000u);
  EXPECT_LT(state.instructions_executed(), 5'000'000u);
  EXPECT_NE(result_word(state, program, 0), 0u);  // tx checksum<<1|1
  const std::uint64_t tx_count = result_word(state, program, 8);
  const std::uint64_t echoes = result_word(state, program, 16);
  EXPECT_GE(tx_count, 256u);  // the spin loop waits for 256 echoes
  EXPECT_EQ(tx_count, echoes);
}

TEST(Interrupts, FastPathMatchesByteAccurateFunctional) {
  for (const char* name : {"timer", "echo", "timer@123", "echo@97"}) {
    SCOPED_TRACE(name);
    const arch::Program program = workloads::assemble_workload(name);
    arch::ArchState byte_state(program);
    const std::vector<RefStep> byte_stream =
        reference_stream(byte_state);

    const arch::DecodedProgram decoded(program);
    arch::ArchState fast_state(program, &decoded);
    const std::vector<RefStep> fast_stream =
        reference_stream(fast_state);

    ASSERT_EQ(byte_stream, fast_stream);
    EXPECT_EQ(byte_state.instructions_executed(),
              fast_state.instructions_executed());
    for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r)
      EXPECT_EQ(byte_state.int_reg(r), fast_state.int_reg(r)) << "r" << r;
    EXPECT_TRUE(byte_state.device() == fast_state.device());
  }
}

TEST(Interrupts, PipelineCommitStreamMatchesFunctionalAllPolicies) {
  for (const char* name : {"timer", "echo"}) {
    const arch::Program program = workloads::assemble_workload(name);
    const std::vector<RefStep> reference = reference_stream(program);
    ASSERT_GT(reference.size(), 10'000u);

    for (const core::PolicyKind policy : core::all_policies()) {
      SCOPED_TRACE(std::string(name) + "/" +
                   std::string(core::policy_name(policy)));
      CommitRecorder rec;
      const sim::SimStats stats =
          sim::Simulator(irq_config(policy)).run(program, {&rec});
      EXPECT_TRUE(stats.halted);
      EXPECT_EQ(rec.stream, reference);
    }
  }
}

TEST(Interrupts, SampledShardedRegistriesAreBitIdentical) {
  const arch::Program program = workloads::assemble_workload("timer");
  sim::SamplingConfig s;
  s.period = 30'000;
  s.warmup = 2'000;
  s.detail = 6'000;

  sim::SimConfig config = irq_config(core::PolicyKind::Extended);
  s.threads = 1;
  const sim::SampledStats serial =
      sim::SampledSimulator(config, s).run(program);
  ASSERT_GT(serial.samples.size(), 1u);
  EXPECT_TRUE(serial.estimate.halted);

  s.threads = 3;
  const sim::SampledStats sharded =
      sim::SampledSimulator(config, s).run(program);
  EXPECT_EQ(serial.registry, sharded.registry);
  EXPECT_EQ(serial.total_instructions, sharded.total_instructions);
  EXPECT_EQ(serial.estimate.cycles, sharded.estimate.cycles);
}

TEST(Interrupts, CheckpointResumeMidHandlerCommitsIdenticalTail) {
  const arch::Program program = workloads::assemble_workload("timer");
  const std::uint64_t handler_pc = program.symbols.at("timer_isr");

  // Walk the reference until execution is inside the interrupt handler
  // (past its first instruction, so trap state — saved EPC, masked MIE —
  // is live), well into the run.
  arch::ArchState master(program);
  const std::vector<RefStep> reference = reference_stream(program);
  std::uint64_t skip = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (i > 50'000 && reference[i].pc == handler_pc + 4) {
      skip = i;  // boundary before instruction i: mid-handler
      break;
    }
  }
  ASSERT_GT(skip, 0u) << "no handler activation found after 50k insts";
  master.run(skip);
  ASSERT_FALSE(master.halted());
  const arch::Checkpoint ckpt = arch::capture(master);
  ASSERT_FALSE(ckpt.dev.empty());  // trap state travels with the checkpoint

  for (const core::PolicyKind policy : core::all_policies()) {
    SCOPED_TRACE(core::policy_name(policy));
    CommitRecorder rec;
    pipeline::Core core(irq_config(policy), program, ckpt);
    core.attach_probe(&rec);
    const sim::SimStats stats = core.run();
    EXPECT_TRUE(stats.halted);
    ASSERT_EQ(rec.stream.size(), reference.size() - skip);
    for (std::size_t i = 0; i < rec.stream.size(); ++i) {
      ASSERT_EQ(rec.stream[i].pc, reference[skip + i].pc) << "commit " << i;
    }
  }
}

TEST(Interrupts, TrapStateCheckpointRestores) {
  const arch::Program program = workloads::assemble_workload("echo");
  arch::ArchState state(program);
  state.run(100'000);
  ASSERT_FALSE(state.halted());
  const arch::Checkpoint ckpt = arch::capture(state);
  ASSERT_FALSE(ckpt.dev.empty());

  // A state restored from the checkpoint finishes the run exactly like the
  // original: same stream, same device, same results.
  std::vector<RefStep> expected;
  while (!state.halted()) expected.push_back({state.step().pc});

  arch::ArchState resumed(program);
  arch::restore(ckpt, resumed);
  std::vector<RefStep> actual;
  while (!resumed.halted()) actual.push_back({resumed.step().pc});
  EXPECT_EQ(actual, expected);
  EXPECT_TRUE(resumed.device() == state.device());
  EXPECT_EQ(result_word(resumed, program, 0), result_word(state, program, 0));
  EXPECT_EQ(result_word(resumed, program, 8), result_word(state, program, 8));
}

TEST(Interrupts, ParameterizedNamesResolveAndRejectGarbage) {
  // Valid: any decimal period >= 32, cached with stable addresses.
  const workloads::Workload* w = workloads::find_workload("timer@123");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->name, "timer@123");
  EXPECT_FALSE(w->is_fp);
  EXPECT_EQ(w, workloads::find_workload("timer@123"));  // same node
  EXPECT_NE(workloads::find_workload("echo@5000"), nullptr);

  // Rejected: missing/zero/too-short/non-numeric periods, unknown bases.
  for (const char* bad : {"timer@", "timer@0", "timer@5", "timer@31",
                          "timer@12x", "timer@-40", "nosuch@50", "@400",
                          "timer@99999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(workloads::find_workload(bad), nullptr);
  }

  // The registry itself still resolves, and unknown plain names still fail.
  EXPECT_NE(workloads::find_workload("timer"), nullptr);
  EXPECT_EQ(workloads::find_workload("timerx"), nullptr);
}

TEST(Interrupts, DeviceModelBasics) {
  // MMIO range classification.
  EXPECT_TRUE(dev::Machine::is_mmio(dev::Machine::kMmioBase));
  EXPECT_TRUE(
      dev::Machine::is_mmio(dev::Machine::kMmioBase + dev::Machine::kMmioBytes - 1));
  EXPECT_FALSE(dev::Machine::is_mmio(dev::Machine::kMmioBase - 1));
  EXPECT_FALSE(
      dev::Machine::is_mmio(dev::Machine::kMmioBase + dev::Machine::kMmioBytes));
  EXPECT_FALSE(dev::Machine::is_mmio(0));

  // A reset device is quiet (no events, nothing deliverable) and stays so
  // under sync; the first MMIO write arms it.
  dev::Machine m;
  EXPECT_TRUE(m.quiet());
  m.sync(1'000'000);
  EXPECT_FALSE(m.deliverable());

  // Program the PIT: vector, mask, reload, enable — then an event is due
  // exactly one period after the arming write's boundary.
  m.write(dev::Machine::kMmioBase + dev::Machine::kIntcVector, 0x4000, 8, 10);
  m.write(dev::Machine::kMmioBase + dev::Machine::kIntcMask, 1, 8, 10);
  m.write(dev::Machine::kMmioBase + dev::Machine::kPitReload, 100, 8, 10);
  m.write(dev::Machine::kMmioBase + dev::Machine::kIntcEnable, 1, 8, 10);
  EXPECT_FALSE(m.quiet());
  EXPECT_EQ(m.next_event(), 110u);
  m.sync(109);
  EXPECT_FALSE(m.deliverable());
  m.sync(110);
  ASSERT_TRUE(m.deliverable());
  EXPECT_EQ(m.deliver(0x1234), 0x4000u);
  EXPECT_EQ(m.epc(), 0x1234u);
  EXPECT_FALSE(m.deliverable());  // MIE masked during the handler
  EXPECT_EQ(m.iret(), 0x1234u);

  // Save/load round-trip preserves equality; load({}) resets.
  const std::vector<std::uint64_t> words = m.save();
  dev::Machine copy;
  copy.load(words);
  EXPECT_TRUE(copy == m);
  copy.load({});
  EXPECT_TRUE(copy == dev::Machine{});
}

}  // namespace
}  // namespace erel

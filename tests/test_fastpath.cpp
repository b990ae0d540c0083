// Decoded-engine equivalence suite: the functional fast path (decode-once
// DecodedProgram + page-pointer TLB) must be observationally identical to
// the byte-accurate legacy engine — bit-identical commit streams and
// registry metrics on every kernel, for full and sampled runs. These tests
// are the license for SimConfig::fast_path to default on and stay out of
// the result-cache fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch_state.hpp"
#include "arch/checkpoint.hpp"
#include "arch/decoded_program.hpp"
#include "asmkit/assembler.hpp"
#include "pipeline/core.hpp"
#include "sim/sampling.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

/// Commit-stream recorder: the POD prefix of every CommitEvent, in order.
struct CommitRecorder final : sim::Probe {
  struct Rec {
    std::uint64_t seq, pc, dispatch, issue, complete, commit;
    std::uint32_t encoding;
    bool operator==(const Rec&) const = default;
  };
  std::vector<Rec> stream;

  void on_commit(const sim::CommitEvent& ev) override {
    stream.push_back({ev.seq, ev.pc, ev.dispatch_cycle, ev.issue_cycle,
                      ev.complete_cycle, ev.commit_cycle, ev.encoding});
  }
};

sim::SimConfig smoke_config(bool fast_path) {
  sim::SimConfig config;
  config.max_instructions = 20'000;
  config.fast_path = fast_path;
  return config;
}

TEST(FastPathEquivalence, FullRunsAreBitIdenticalOnAllKernels) {
  for (const std::string& name : workloads::workload_names()) {
    SCOPED_TRACE(name);
    const arch::Program program = workloads::assemble_workload(name);

    CommitRecorder fast_rec;
    pipeline::Core fast(smoke_config(/*fast_path=*/true), program);
    fast.attach_probe(&fast_rec);
    const sim::SimStats fast_stats = fast.run();

    CommitRecorder legacy_rec;
    pipeline::Core legacy(smoke_config(/*fast_path=*/false), program);
    legacy.attach_probe(&legacy_rec);
    const sim::SimStats legacy_stats = legacy.run();

    EXPECT_EQ(fast_stats.cycles, legacy_stats.cycles);
    EXPECT_EQ(fast_stats.committed, legacy_stats.committed);
    EXPECT_EQ(fast_rec.stream.size(), legacy_rec.stream.size());
    EXPECT_TRUE(fast_rec.stream == legacy_rec.stream);
    // Every registry metric — counters, occupancy integrals, cache stats —
    // must match bit-for-bit, not just the SimStats view.
    EXPECT_TRUE(fast.registry() == legacy.registry());
  }
}

TEST(FastPathEquivalence, SampledRunsAreBitIdenticalOnAllKernels) {
  // A long period keeps the run short; li (about 169k instructions), the
  // shortest kernel, still yields two units.
  sim::SamplingConfig sampling;
  sampling.period = 80'000;
  sampling.warmup = 1'000;
  sampling.detail = 4'000;
  sampling.seed = 42;
  for (const std::string& name : workloads::workload_names()) {
    SCOPED_TRACE(name);
    const arch::Program program = workloads::assemble_workload(name);

    sim::SimConfig fast_cfg;
    fast_cfg.fast_path = true;
    const sim::SampledStats fast =
        sim::SampledSimulator(fast_cfg, sampling).run(program);

    sim::SimConfig legacy_cfg;
    legacy_cfg.fast_path = false;
    const sim::SampledStats legacy =
        sim::SampledSimulator(legacy_cfg, sampling).run(program);

    ASSERT_GE(fast.samples.size(), 2u);  // or this compares next to nothing
    EXPECT_EQ(fast.total_instructions, legacy.total_instructions);
    EXPECT_EQ(fast.units_planned, legacy.units_planned);
    EXPECT_TRUE(fast.samples == legacy.samples);
    EXPECT_EQ(fast.estimate.cycles, legacy.estimate.cycles);
    EXPECT_EQ(fast.measured.committed, legacy.measured.committed);
    EXPECT_EQ(fast.measured.cycles, legacy.measured.cycles);
    EXPECT_TRUE(fast.registry == legacy.registry);
  }
}

TEST(FastPathEquivalence, DecodedRecordsMatchByteDecode) {
  for (const std::string& name : workloads::workload_names()) {
    const arch::Program program = workloads::assemble_workload(name);
    const arch::DecodedProgram decoded(program);
    ASSERT_EQ(decoded.size(), program.code.size());
    for (std::size_t i = 0; i < program.code.size(); ++i) {
      const std::uint64_t pc = program.code_base + 4 * i;
      ASSERT_TRUE(decoded.contains(pc));
      const arch::MicroOp& mop = decoded.at(pc);
      const isa::DecodedInst inst = isa::decode(program.code[i]);
      EXPECT_EQ(isa::encode(mop.inst), isa::encode(inst));
      EXPECT_EQ(mop.kind, arch::DecodedProgram::kind_of(inst));
      EXPECT_EQ(mop.has_dst, inst.has_dst());
      EXPECT_EQ(mop.mem_bytes, inst.mem_bytes());
    }
    EXPECT_FALSE(decoded.contains(program.code_base - 4));
    EXPECT_FALSE(decoded.contains(program.code_end()));
    EXPECT_FALSE(decoded.contains(program.code_base + 2));  // unaligned
  }
}

/// A program that overwrites the `addi r3, r0, 1` at label `patch` with
/// `addi r3, r0, 7` before (architecturally) executing it. The replacement
/// encoding is computed here and embedded in the data segment.
arch::Program self_modifying_program() {
  isa::DecodedInst repl;
  repl.op = isa::Opcode::ADDI;
  repl.rd = 3;
  repl.rs1 = 0;
  repl.imm = 7;
  const std::uint32_t word = isa::encode(repl);
  char src[512];
  std::snprintf(src, sizeof src, R"(
main:
  la   r2, patch
  la   r6, newword
  lw   r7, 0(r6)       ; the replacement word (addi r3, r0, 7)
  sw   r7, 0(r2)       ; patch the code image
patch:
  addi r3, r0, 1
  halt

.data
newword:
  .word %u
)",
                static_cast<unsigned>(word));
  return asmkit::assemble(src);
}

/// Self-modifying code: a store into the code image must flip the decoded
/// engine back to byte-accurate execution — both engines end in the same
/// architectural state, and the dirtied image is reported.
TEST(FastPathEquivalence, StoreIntoCodeImageFallsBackByteAccurately) {
  const arch::Program patched = self_modifying_program();
  const arch::DecodedProgram decoded(patched);
  arch::ArchState fast(patched, &decoded);
  arch::ArchState legacy(patched);
  fast.run(100);
  legacy.run(100);
  EXPECT_TRUE(fast.halted());
  EXPECT_TRUE(legacy.halted());
  EXPECT_TRUE(fast.code_dirtied());
  EXPECT_EQ(fast.int_reg(3), 7u) << "patched instruction must execute";
  for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
    EXPECT_EQ(fast.int_reg(r), legacy.int_reg(r)) << "r" << r;
  }
  EXPECT_EQ(fast.pc(), legacy.pc());
  EXPECT_EQ(fast.instructions_executed(), legacy.instructions_executed());
}

/// Everything architectural two functional machines must agree on.
void expect_same_state(const arch::ArchState& a, const arch::ArchState& b) {
  for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
    EXPECT_EQ(a.int_reg(r), b.int_reg(r)) << "r" << r;
    EXPECT_EQ(a.fp_reg(r), b.fp_reg(r)) << "f" << r;
  }
  EXPECT_EQ(a.pc(), b.pc());
  EXPECT_EQ(a.instructions_executed(), b.instructions_executed());
  EXPECT_EQ(a.halted(), b.halted());
  const auto a_pages = a.memory().pages_snapshot();
  const auto b_pages = b.memory().pages_snapshot();
  ASSERT_EQ(a_pages.size(), b_pages.size());
  for (std::size_t i = 0; i < a_pages.size(); ++i) {
    ASSERT_EQ(a_pages[i].first, b_pages[i].first);
    EXPECT_EQ(std::memcmp(a_pages[i].second, b_pages[i].second,
                          arch::SparseMemory::kPageBytes),
              0)
        << "page 0x" << std::hex << a_pages[i].first;
  }
  EXPECT_TRUE(a.device() == b.device());
}

/// run()'s threaded loop against step(): a decoded machine runs chunks of
/// 1, 3 and 4093 instructions, then on to HALT (capped at 2M); after each
/// chunk a byte-accurate machine steps to the same instruction count and
/// the two must be in the same architectural state.
TEST(FastPathEquivalence, ThreadedRunMatchesByteAccurateStepping) {
  std::vector<std::pair<std::string, arch::Program>> programs;
  for (const workloads::Workload& w : workloads::registry())
    programs.emplace_back(w.name, workloads::assemble_workload(w.name));
  for (const char* name : {"timer@123", "echo@97"})
    programs.emplace_back(name, workloads::assemble_workload(name));
  programs.emplace_back("self-modifying", self_modifying_program());

  constexpr std::uint64_t kCap = 2'000'000;
  for (const auto& [name, program] : programs) {
    SCOPED_TRACE(name);
    const arch::DecodedProgram decoded(program);
    arch::ArchState fast(program, &decoded);
    arch::ArchState stepped(program);
    for (const std::uint64_t chunk : {std::uint64_t{1}, std::uint64_t{3},
                                      std::uint64_t{4093}, kCap}) {
      fast.run(std::min(chunk, kCap - fast.instructions_executed()));
      while (!stepped.halted() &&
             stepped.instructions_executed() < fast.instructions_executed())
        stepped.step();
      SCOPED_TRACE(fast.instructions_executed());
      expect_same_state(fast, stepped);
    }
    EXPECT_TRUE(fast.halted() || fast.instructions_executed() == kCap);
  }
}

/// The same self-modifying program through the full pipeline: the committed
/// store detaches decoded fetch (Core::phase_commit), and whatever the
/// fetch-ahead timing yields, the fast and legacy engines must agree
/// bit-for-bit. The oracle is off: I-fetch is architecturally incoherent
/// with stores in this pipeline (by design, identically in both engines),
/// so the in-order oracle can legitimately disagree with a fetched-early
/// stale instruction.
TEST(FastPathEquivalence, PipelineStoreIntoCodeImageStaysEquivalent) {
  const arch::Program patched = self_modifying_program();
  sim::SimConfig config;
  config.max_instructions = 100;
  config.check_oracle = false;

  config.fast_path = true;
  CommitRecorder fast_rec;
  pipeline::Core fast(config, patched);
  fast.attach_probe(&fast_rec);
  const sim::SimStats fast_stats = fast.run();

  config.fast_path = false;
  CommitRecorder legacy_rec;
  pipeline::Core legacy(config, patched);
  legacy.attach_probe(&legacy_rec);
  const sim::SimStats legacy_stats = legacy.run();

  EXPECT_EQ(fast_stats.cycles, legacy_stats.cycles);
  EXPECT_EQ(fast_stats.committed, legacy_stats.committed);
  EXPECT_TRUE(fast_rec.stream == legacy_rec.stream);
  EXPECT_TRUE(fast.registry() == legacy.registry());
  EXPECT_EQ(fast.arch_reg(core::RC::Int, 3), legacy.arch_reg(core::RC::Int, 3));
}

/// Resuming from a checkpoint that carries self-modified code: the static
/// decode cache is stale against the restored image, so the core must
/// detect the mismatch and execute byte-accurately — the patched
/// instruction (r3 = 7) must commit, on both engines, oracle on, and when
/// the caller passes the program's shared decode as sampled windows do.
TEST(FastPathEquivalence, CheckpointWithModifiedCodeResumesByteAccurately) {
  const arch::Program patched = self_modifying_program();
  arch::ArchState state(patched);  // byte-accurate master
  while (!state.halted()) {
    if (state.step().is_store) break;  // the patch landed
  }
  ASSERT_FALSE(state.halted());
  const arch::Checkpoint ckpt = arch::capture(state);
  const auto shared = std::make_shared<const arch::DecodedProgram>(patched);

  struct Case {
    const char* name;
    bool fast_path;
    std::shared_ptr<const arch::DecodedProgram> decoded;
  };
  for (const Case& c : {Case{"fast", true, nullptr},
                        Case{"legacy", false, nullptr},
                        Case{"fast, shared decode", true, shared}}) {
    SCOPED_TRACE(c.name);
    sim::SimConfig config;
    config.max_instructions = 100;
    config.fast_path = c.fast_path;
    pipeline::Core core(config, patched, ckpt, nullptr, c.decoded);
    (void)core.run();
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.arch_reg(core::RC::Int, 3), 7u)
        << "stale decoded record executed instead of the patched word";
  }
}

}  // namespace
}  // namespace erel

// End-to-end workload validation: every kernel runs to completion under
// every release policy with the functional oracle comparing each committed
// instruction (PC, destination value, memory effects). Any early-release
// bug — a register freed too early, reused too early, released twice —
// surfaces here as an oracle divergence or a FreeList/RegTracker abort.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/arch_state.hpp"
#include "asmkit/assembler.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

using core::PolicyKind;

struct Case {
  std::string workload;
  PolicyKind policy;
  unsigned phys;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return info.param.workload + "_" +
         std::string(core::policy_name(info.param.policy)) + "_p" +
         std::to_string(info.param.phys);
}

class WorkloadOracle : public testing::TestWithParam<Case> {};

TEST_P(WorkloadOracle, MatchesFunctionalSimulation) {
  const Case& c = GetParam();
  sim::SimConfig config;
  config.policy = c.policy;
  config.phys_int = c.phys;
  config.phys_fp = c.phys;
  config.check_oracle = true;

  const arch::Program program = workloads::assemble_workload(c.workload);
  sim::Simulator simulator(config);
  auto core = simulator.make_core(program);
  const sim::SimStats stats = core->run();

  EXPECT_TRUE(stats.halted) << "did not reach HALT";
  EXPECT_GT(stats.committed, 10'000u) << "suspiciously short run";
  EXPECT_TRUE(core->conservation_holds());

  // The committed memory image must equal the oracle's final image at the
  // result block.
  arch::ArchState reference(program);
  reference.run();
  ASSERT_TRUE(reference.halted());
  const std::uint64_t result_addr = program.symbols.at("result");
  for (unsigned off = 0; off < 16; off += 8) {
    EXPECT_EQ(core->memory().read_u64(result_addr + off),
              reference.memory().read_u64(result_addr + off))
        << "result word at offset " << off;
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const std::string& name : workloads::workload_names()) {
    for (const PolicyKind policy :
         {PolicyKind::Conventional, PolicyKind::Basic, PolicyKind::Extended}) {
      cases.push_back({name, policy, 64});
    }
  }
  // Very tight and loose register files for a subset (full cross product
  // would slow the suite): the recursion-heavy and highest-pressure kernels.
  for (const char* name : {"li", "tomcatv", "compress", "mgrid"}) {
    for (const PolicyKind policy :
         {PolicyKind::Conventional, PolicyKind::Basic, PolicyKind::Extended}) {
      cases.push_back({name, policy, 40});
      cases.push_back({name, policy, 160});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadOracle,
                         testing::ValuesIn(all_cases()), case_name);

// The li kernel has an independently known answer: 8 queens has exactly 92
// solutions.
TEST(WorkloadSemantics, EightQueensHas92Solutions) {
  const arch::Program program =
      asmkit::assemble(workloads::kernel_li(8));
  arch::ArchState state(program);
  state.run();
  ASSERT_TRUE(state.halted());
  EXPECT_EQ(state.memory().read_u64(program.symbols.at("result")), 92u);
}

TEST(WorkloadSemantics, SixQueensHas4Solutions) {
  const arch::Program program = asmkit::assemble(workloads::kernel_li(6));
  arch::ArchState state(program);
  state.run();
  ASSERT_TRUE(state.halted());
  EXPECT_EQ(state.memory().read_u64(program.symbols.at("result")), 4u);
}

// Checksums must be non-trivial (a kernel that loops without computing
// would store zero).
TEST(WorkloadSemantics, AllChecksumsNonZero) {
  for (const std::string& name : workloads::workload_names()) {
    const arch::Program program = workloads::assemble_workload(name);
    arch::ArchState state(program);
    state.run(200'000'000);
    ASSERT_TRUE(state.halted()) << name << " did not halt";
    EXPECT_NE(state.memory().read_u64(program.symbols.at("result")), 0u)
        << name;
  }
}

// Dynamic instruction counts should sit in the intended band (Table 3
// analogue, scaled down ~300-1000x).
TEST(WorkloadSemantics, DynamicLengthsInBand) {
  for (const std::string& name : workloads::workload_names()) {
    const arch::Program program = workloads::assemble_workload(name);
    arch::ArchState state(program);
    state.run(200'000'000);
    ASSERT_TRUE(state.halted()) << name;
    EXPECT_GT(state.instructions_executed(), 100'000u) << name;
    EXPECT_LT(state.instructions_executed(), 5'000'000u) << name;
  }
}

// The paper's integer means cover exactly the five SPECint analogues; the
// interrupt kernels carry a flag that keeps them out.
TEST(WorkloadSuites, OnlyTheSpecIntAnaloguesAreUnflaggedIntegerKernels) {
  std::vector<std::string> spec_int;
  for (const workloads::Workload& w : workloads::registry())
    if (!w.is_fp && !w.is_irq) spec_int.push_back(w.name);
  EXPECT_EQ(spec_int, (std::vector<std::string>{"compress", "gcc", "go", "li",
                                                "perl"}));
  for (const char* name : {"timer", "echo", "timer@500"}) {
    const workloads::Workload* w = workloads::find_workload(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_TRUE(w->is_irq) << name;
    EXPECT_FALSE(w->is_fp) << name;
  }
}

}  // namespace
}  // namespace erel

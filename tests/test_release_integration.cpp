// Cross-policy integration properties on real workloads:
//   - early release never hurts: IPC(extended) >= IPC(basic) >= IPC(conv)
//     (within a small tolerance for second-order timing effects)
//   - register conservation holds at completion
//   - release accounting: every version allocated is released exactly once
//   - occupancy: early release shrinks the Idle component (Figure 3's point)
#include <gtest/gtest.h>

#include "asmkit/assembler.hpp"
#include "sim/simulator.hpp"
#include "workloads/workloads.hpp"

namespace erel {
namespace {

using core::PolicyKind;

sim::SimStats run_policy(const std::string& workload, PolicyKind policy,
                         unsigned phys) {
  sim::SimConfig config;
  config.policy = policy;
  config.phys_int = phys;
  config.phys_fp = phys;
  config.check_oracle = false;
  return sim::Simulator(config).run(workloads::assemble_workload(workload));
}

class PolicyOrdering
    : public testing::TestWithParam<std::tuple<std::string, unsigned>> {};

TEST_P(PolicyOrdering, EarlyReleaseNeverHurts) {
  const auto& [workload, phys] = GetParam();
  const double conv = run_policy(workload, PolicyKind::Conventional, phys).ipc();
  const double basic = run_policy(workload, PolicyKind::Basic, phys).ipc();
  const double ext = run_policy(workload, PolicyKind::Extended, phys).ipc();
  // Extra free registers can only help; allow a 2% slack for second-order
  // interactions (replacement, predictor warmup alignment).
  EXPECT_GE(basic, conv * 0.98) << workload << " P=" << phys;
  EXPECT_GE(ext, basic * 0.98) << workload << " P=" << phys;
}

INSTANTIATE_TEST_SUITE_P(
    TightAndMid, PolicyOrdering,
    testing::Combine(testing::Values("compress", "li", "tomcatv", "swim",
                                     "mgrid"),
                     testing::Values(40u, 48u, 64u, 96u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

TEST(LooseSize, ThePoliciesRunCycleForCycleAlike) {
  // Paper section 2: when P >= L + N (SimConfig::is_loose) the free list is
  // never empty while the ROS has room, so releasing early cannot change
  // timing. Every registered kernel runs the same cycles and commits under
  // all three policies at 160+160. Occupancy and release counters differ
  // by design and are not compared. At 40+40 the policies must not all
  // agree, or this check could never fail.
  const auto run = [](const arch::Program& program, PolicyKind policy,
                      unsigned phys) {
    sim::SimConfig config;
    config.policy = policy;
    config.phys_int = config.phys_fp = phys;
    config.check_oracle = false;
    config.max_instructions = 50'000;
    return sim::Simulator(config).run(program);
  };
  ASSERT_TRUE(sim::SimConfig{}.is_loose(160));
  std::size_t differ_at_40 = 0;
  for (const std::string& name : workloads::workload_names()) {
    SCOPED_TRACE(name);
    const arch::Program program = workloads::assemble_workload(name);
    const sim::SimStats conv = run(program, PolicyKind::Conventional, 160);
    for (const PolicyKind policy : {PolicyKind::Basic, PolicyKind::Extended}) {
      const sim::SimStats early = run(program, policy, 160);
      EXPECT_EQ(early.cycles, conv.cycles) << core::policy_name(policy);
      EXPECT_EQ(early.committed, conv.committed) << core::policy_name(policy);
    }
    const sim::SimStats tight = run(program, PolicyKind::Conventional, 40);
    for (const PolicyKind policy : {PolicyKind::Basic, PolicyKind::Extended}) {
      const sim::SimStats early = run(program, policy, 40);
      if (early.cycles != tight.cycles || early.committed != tight.committed) {
        ++differ_at_40;
        break;
      }
    }
  }
  EXPECT_GT(differ_at_40, 0u);
}

TEST(ReleaseAccounting, EveryAllocationIsReleasedOnce) {
  // At halt: allocated == architectural versions; everything else returned.
  for (const PolicyKind policy :
       {PolicyKind::Conventional, PolicyKind::Basic, PolicyKind::Extended}) {
    sim::SimConfig config;
    config.policy = policy;
    config.phys_int = 56;
    config.phys_fp = 56;
    config.check_oracle = false;
    sim::Simulator simulator(config);
    auto core = simulator.make_core(workloads::assemble_workload("go"));
    core->run();
    EXPECT_TRUE(core->conservation_holds())
        << core::policy_name(policy);
    for (const core::RC cls : {core::RC::Int, core::RC::Fp}) {
      const auto& rf = core->rename_unit().rf(cls);
      // Free + allocated == P is conservation; also the allocated set must
      // be at most the logical registers (plus stale-chain remnants are
      // impossible without exception flushes).
      EXPECT_LE(rf.tracker.allocated_count(), isa::kNumLogicalRegs);
    }
  }
}

TEST(ReleaseAccounting, ReleaseChannelsSumToVersionCount) {
  // For the extended mechanism every destination rename ends in exactly one
  // of: immediate release, RwC0 release, branch-confirm release, squash
  // release — plus the architectural versions still held at halt.
  sim::SimConfig config;
  config.policy = PolicyKind::Extended;
  config.phys_int = 64;
  config.phys_fp = 64;
  config.check_oracle = false;
  sim::Simulator simulator(config);
  auto core = simulator.make_core(workloads::assemble_workload("compress"));
  const auto stats = core->run();
  const auto& ps = stats.policy_stats[0];  // int class
  const std::uint64_t releases = ps.immediate_releases +
                                 ps.early_commit_releases +
                                 ps.branch_confirm_releases +
                                 stats.squash_released[0];
  const auto& rf = core->rename_unit().rf(core::RC::Int);
  const std::uint64_t live = rf.tracker.allocated_count();
  // allocations == releases + still-live - initial architectural set.
  // We can't count allocations directly here, but conservation plus the
  // free-list invariant already pin them; check releases happened at scale.
  EXPECT_GT(releases, 50'000u);
  EXPECT_LE(live, isa::kNumLogicalRegs);
  EXPECT_EQ(ps.conventional_releases, 0u);  // extended never uses old_pd
}

TEST(Occupancy, EarlyReleaseShrinksIdle) {
  // The paper's Figure 3 premise: conventional renaming wastes registers in
  // the Idle state; early release reclaims most of that time.
  const auto conv = run_policy("tomcatv", PolicyKind::Conventional, 96);
  const auto ext = run_policy("tomcatv", PolicyKind::Extended, 96);
  const double conv_idle = conv.occupancy[1].avg_idle;
  const double ext_idle = ext.occupancy[1].avg_idle;
  EXPECT_GT(conv_idle, 2.0);                 // idle registers exist at all
  EXPECT_LT(ext_idle, conv_idle * 0.6);      // and early release reclaims them
}

TEST(Occupancy, ComponentsSumToAllocated) {
  const auto stats = run_policy("mgrid", PolicyKind::Conventional, 96);
  for (int cls = 0; cls < 2; ++cls) {
    const auto& occ = stats.occupancy[cls];
    EXPECT_GE(occ.avg_allocated(),
              occ.avg_empty + occ.avg_ready + occ.avg_idle - 1e-9);
    EXPECT_LE(occ.avg_allocated(), 96.0 + 1e-9);
    EXPECT_GE(occ.avg_allocated(), isa::kNumLogicalRegs - 1.0);
  }
}

TEST(Occupancy, IdleInflationIsSubstantialEverywhere) {
  // Paper Figure 3's premise: under conventional renaming a large share of
  // allocated registers sit Idle (dead value, not yet released). The paper
  // reports +45.8% (int) / +16.8% (FP) used-register inflation; our kernels
  // show 30-90% for both classes (the int-vs-FP gap depends on compiled
  // SPEC code shapes we don't replicate — ROADMAP item 8 measures the gap).
  for (const char* workload : {"gcc", "li", "swim", "mgrid"}) {
    const bool is_fp = workloads::workload(workload).is_fp;
    const auto stats = run_policy(workload, PolicyKind::Conventional, 96);
    const auto& occ = stats.occupancy[is_fp ? 1 : 0];
    const double inflation = occ.avg_idle / (occ.avg_empty + occ.avg_ready);
    EXPECT_GT(inflation, 0.25) << workload;
    EXPECT_GT(occ.avg_idle, 15.0) << workload;  // registers wasted
  }
}

TEST(ReleaseStats, BasicSchedulesAndFallsBackSensibly) {
  const auto stats = run_policy("compress", PolicyKind::Basic, 64);
  const auto& ps = stats.policy_stats[0];
  EXPECT_GT(ps.early_commit_releases + ps.reuses, 10'000u);
  // Branchy integer code must hit the Case-2 fallback often (that's why the
  // extended mechanism exists).
  EXPECT_GT(ps.fallback_conventional, 1'000u);
}

TEST(ReleaseStats, ExtendedUsesConditionalPathOnBranchyCode) {
  const auto stats = run_policy("go", PolicyKind::Extended, 64);
  const auto& ps = stats.policy_stats[0];
  EXPECT_GT(ps.conditional_schedulings, 5'000u);
  EXPECT_GT(ps.branch_confirm_releases, 1'000u);
}

TEST(ReleaseStats, ExtendedBeatsBasicOnBranchyTightInt) {
  // The paper's core claim for integer codes: the extended mechanism wins
  // where branches block the basic one (§5.1).
  const double basic = run_policy("go", PolicyKind::Basic, 40).ipc();
  const double ext = run_policy("go", PolicyKind::Extended, 40).ipc();
  EXPECT_GE(ext, basic);
}

}  // namespace
}  // namespace erel

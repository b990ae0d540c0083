// RenameUnit: cross-class renaming, checkpoint stack management, commit
// plumbing, squash/un-reuse, exception flush — driven directly with a fake
// pipeline (complementing the policy-level tests).
#include <gtest/gtest.h>

#include <map>

#include "core/rename_unit.hpp"

namespace erel::core {
namespace {

class FakeHooks : public PipelineHooks {
 public:
  RenameRec* find_inflight(InstSeq seq) override {
    const auto it = recs.find(seq);
    return it == recs.end() ? nullptr : &it->second;
  }
  bool branch_pending_between(InstSeq lo, InstSeq hi) const override {
    for (const InstSeq b : pending)
      if (b > lo && b < hi) return true;
    return false;
  }
  std::map<InstSeq, RenameRec> recs;
  std::vector<InstSeq> pending;
};

isa::DecodedInst make_inst(isa::Opcode op, unsigned rd, unsigned rs1,
                           unsigned rs2) {
  isa::DecodedInst inst;
  inst.op = op;
  inst.rd = static_cast<std::uint8_t>(rd);
  inst.rs1 = static_cast<std::uint8_t>(rs1);
  inst.rs2 = static_cast<std::uint8_t>(rs2);
  return inst;
}

class RenameUnitTest : public testing::Test {
 protected:
  void init(PolicyKind kind, unsigned phys_int = 40, unsigned phys_fp = 40) {
    unit = std::make_unique<RenameUnit>(
        RenameConfig{phys_int, phys_fp, kind, 4, nullptr}, hooks);
  }

  RenameRec& rename(const isa::DecodedInst& inst, InstSeq seq,
                    std::uint64_t cycle = 0) {
    RenameRec& rec = hooks.recs[seq];
    rec = RenameRec{};
    EXPECT_TRUE(unit->try_rename(inst, seq, rec, cycle));
    return rec;
  }

  FakeHooks hooks;
  std::unique_ptr<RenameUnit> unit;
};

TEST_F(RenameUnitTest, MixedClassOperandsRouteToTheirFiles) {
  init(PolicyKind::Conventional);
  // fsd f3, 0(r5): int base source + fp data source, no destination.
  const auto fsd = make_inst(isa::Opcode::FSD, 0, 5, 3);
  RenameRec& rec = rename(fsd, 1);
  EXPECT_EQ(rec.c1, isa::RegClass::Int);
  EXPECT_EQ(rec.c2, isa::RegClass::Fp);
  EXPECT_EQ(rec.p1, unit->rf(RC::Int).map.get(5).phys);
  EXPECT_EQ(rec.p2, unit->rf(RC::Fp).map.get(3).phys);
  EXPECT_FALSE(rec.has_dst());
}

TEST_F(RenameUnitTest, CrossClassDestination) {
  init(PolicyKind::Conventional);
  // cvtid r7, f2: fp source, int destination.
  RenameRec& rec = rename(make_inst(isa::Opcode::CVTID, 7, 2, 0), 1);
  EXPECT_EQ(rec.cd, isa::RegClass::Int);
  EXPECT_EQ(rec.c1, isa::RegClass::Fp);
  EXPECT_EQ(unit->rf(RC::Int).map.get(7).phys, rec.pd);
  EXPECT_NE(rec.pd, rec.old_pd);
}

TEST_F(RenameUnitTest, IntR0NeverRenamed) {
  init(PolicyKind::Conventional);
  RenameRec& rec = rename(make_inst(isa::Opcode::ADDI, 0, 3, 0), 1);
  EXPECT_FALSE(rec.has_dst());
  EXPECT_EQ(unit->rf(RC::Int).map.get(0).phys, 0);
}

TEST_F(RenameUnitTest, RenameStallLeavesNoSideEffects) {
  init(PolicyKind::Conventional, /*phys_int=*/33);  // one rename register
  rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  EXPECT_TRUE(unit->rf(RC::Int).free_list.empty());
  // Second rename must fail without touching the map.
  const PhysReg before = unit->rf(RC::Int).map.get(6).phys;
  RenameRec rec;
  EXPECT_FALSE(
      unit->try_rename(make_inst(isa::Opcode::ADDI, 6, 3, 0), 2, rec, 0));
  EXPECT_EQ(unit->rf(RC::Int).map.get(6).phys, before);
  EXPECT_EQ(unit->rename_stalls(RC::Int), 1u);
}

TEST_F(RenameUnitTest, CheckpointStackDepthEnforced) {
  init(PolicyKind::Extended);
  for (InstSeq seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(unit->can_checkpoint());
    unit->note_branch_decoded(seq);
    hooks.pending.push_back(seq);
  }
  EXPECT_FALSE(unit->can_checkpoint());
  EXPECT_EQ(unit->pending_checkpoints(), 4u);
  // Confirming the youngest (out of order) frees a slot.
  hooks.pending.pop_back();
  unit->on_branch_confirmed(4, 10);
  EXPECT_TRUE(unit->can_checkpoint());
}

TEST_F(RenameUnitTest, MispredictRestoresBothClassesAndDropsYounger) {
  init(PolicyKind::Basic);
  const PhysReg int5 = unit->rf(RC::Int).map.get(5).phys;
  const PhysReg fp3 = unit->rf(RC::Fp).map.get(3).phys;
  unit->note_branch_decoded(1);
  hooks.pending.push_back(1);
  unit->note_branch_decoded(2);
  hooks.pending.push_back(2);
  // Wrong path: redefine r5 (int) and f3 (fp).
  RenameRec& a = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 3);
  RenameRec& b = rename(make_inst(isa::Opcode::FADD, 3, 1, 2), 4);
  EXPECT_NE(unit->rf(RC::Int).map.get(5).phys, int5);
  // Squash back to branch 1: free wrong-path destinations, restore maps.
  unit->on_squash_entry(b, 5);
  unit->on_squash_entry(a, 5);
  hooks.recs.erase(3);
  hooks.recs.erase(4);
  unit->on_branch_mispredicted(1);
  hooks.pending.clear();
  EXPECT_EQ(unit->rf(RC::Int).map.get(5).phys, int5);
  EXPECT_EQ(unit->rf(RC::Fp).map.get(3).phys, fp3);
  EXPECT_EQ(unit->pending_checkpoints(), 0u);
  // Conservation after recovery.
  EXPECT_EQ(unit->rf(RC::Int).free_list.size() +
                unit->rf(RC::Int).tracker.allocated_count(),
            40u);
}

TEST_F(RenameUnitTest, ReusedSeqAfterMispredictNamesTheRightLu) {
  // The ROS reuses the seqs of squashed instructions. The restored LUs
  // Table must not name them, and the C bit derived from the commit
  // frontier must read the reused seq as uncommitted.
  for (const PolicyKind kind : {PolicyKind::Basic, PolicyKind::Extended}) {
    SCOPED_TRACE(std::string(policy_name(kind)));
    hooks = FakeHooks{};
    init(kind);
    const auto addi = [](unsigned rd, unsigned rs1) {
      return make_inst(isa::Opcode::ADDI, rd, rs1, 0);
    };
    RenameRec& def = rename(addi(5, 3), 1);  // v1 of r5
    RenameRec& lu = rename(addi(6, 5), 2);   // LU of v1
    rename(make_inst(isa::Opcode::BEQ, 0, 1, 2), 3);
    unit->note_branch_decoded(3);
    hooks.pending.push_back(3);
    // Wrong path: younger uses of r5 at seqs 4 and 5.
    RenameRec& w4 = rename(addi(7, 5), 4);
    RenameRec& w5 = rename(addi(8, 5), 5);
    unit->on_squash_entry(w5, 6);
    unit->on_squash_entry(w4, 6);
    hooks.recs.erase(4);
    hooks.recs.erase(5);
    hooks.pending.clear();
    unit->on_branch_mispredicted(3);
    // A new NV of r5 at the reused seq 4 schedules on LU 2.
    RenameRec& nv = rename(addi(5, 3), 4);
    EXPECT_EQ(lu.rel_bits, kRel1);
    EXPECT_FALSE(nv.rel_old);
    // Commit 1..2: LU 2's other entry (its destination r6) now reads C=1.
    unit->rf(RC::Int).write_value(def.pd, 1, 7);
    unit->on_commit(def, 1, 8);
    unit->rf(RC::Int).write_value(lu.pd, 1, 8);
    const PhysReg r6 = lu.pd;
    unit->on_commit(lu, 2, 9);
    hooks.recs.erase(1);
    hooks.recs.erase(2);
    RenameRec& next = rename(addi(6, 3), 5);
    if (kind == PolicyKind::Basic) {
      EXPECT_TRUE(next.reused_prev);
      EXPECT_EQ(next.pd, r6);
    } else {
      EXPECT_TRUE(unit->rf(RC::Int).free_list.is_free(r6));
    }
    // The reused seq 4 itself has not committed: r5's next NV schedules on
    // it instead of releasing.
    RenameRec& again = rename(addi(5, 3), 6);
    EXPECT_EQ(hooks.recs.at(4).rel_bits, kRelD);
    EXPECT_FALSE(again.reused_prev);
  }
}

TEST_F(RenameUnitTest, ConfirmOfUnknownBranchAborts) {
  init(PolicyKind::Extended);
  unit->note_branch_decoded(1);
  hooks.pending.push_back(1);
  EXPECT_DEATH(unit->on_branch_confirmed(9, 1), "unknown branch");
}

TEST_F(RenameUnitTest, CommitUpdatesIomtAndTracksConsumers) {
  init(PolicyKind::Conventional);
  RenameRec& def = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  unit->rf(RC::Int).write_value(def.pd, 42, 1);
  unit->on_commit(def, 1, 2);
  EXPECT_EQ(unit->rf(RC::Int).iomt.get(5).phys, def.pd);

  RenameRec& use = rename(make_inst(isa::Opcode::ADD, 6, 5, 5), 2);
  unit->rf(RC::Int).write_value(use.pd, 84, 3);
  unit->on_commit(use, 2, 4);  // consumer-commit checks pass
  EXPECT_EQ(unit->rf(RC::Int).iomt.get(6).phys, use.pd);
}

TEST_F(RenameUnitTest, SquashedReuseStaysAllocated) {
  init(PolicyKind::Basic);
  // First redefinition of r5 reuses the architectural register.
  RenameRec& nv = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  ASSERT_TRUE(nv.reused_prev);
  const PhysReg p = nv.pd;
  unit->on_squash_entry(nv, 2);
  // The storage still backs the architectural mapping: not freed.
  EXPECT_FALSE(unit->rf(RC::Int).free_list.is_free(p));
  EXPECT_TRUE(unit->rf(RC::Int).tracker.is_allocated(p));
  EXPECT_TRUE(unit->rf(RC::Int).ready[p]);  // dead value readable
}

TEST_F(RenameUnitTest, ExceptionFlushRestoresFromIomt) {
  init(PolicyKind::Extended);
  // Commit one redefinition (architectural), leave a second in flight.
  RenameRec& first = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1, 1);
  unit->rf(RC::Int).write_value(first.pd, 1, 1);
  unit->on_commit(first, 1, 2);
  const PhysReg committed = first.pd;
  RenameRec& second = rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 2, 3);
  EXPECT_NE(unit->rf(RC::Int).map.get(5).phys, committed);
  // Flush: squash the in-flight one, restore the architectural map.
  unit->on_squash_entry(second, 4);
  hooks.recs.clear();
  unit->on_exception_flush(4);
  EXPECT_EQ(unit->rf(RC::Int).map.get(5).phys, committed);
  EXPECT_EQ(unit->pending_checkpoints(), 0u);
  EXPECT_EQ(unit->rf(RC::Int).free_list.size() +
                unit->rf(RC::Int).tracker.allocated_count(),
            40u);
}

namespace {
int g_counting_policy_plans = 0;
}

TEST_F(RenameUnitTest, CustomPolicyFactoryIsUsed) {
  struct CountingPolicy final : ReleasePolicy {
    using ReleasePolicy::ReleasePolicy;
    [[nodiscard]] PolicyKind kind() const override {
      return PolicyKind::Conventional;
    }
    DestPlan plan_dest(unsigned rd, InstSeq, RenameRec& rec,
                       std::uint64_t) override {
      ++g_counting_policy_plans;
      rec.old_pd = rf_.map.get(rd).phys;
      rec.rel_old = true;
      return {};
    }
  };
  g_counting_policy_plans = 0;
  RenameConfig config;
  config.phys_int = config.phys_fp = 40;
  config.policy_factory = [](RC, RegFileState& rf, PipelineHooks& hooks) {
    return std::make_unique<CountingPolicy>(rf, hooks);
  };
  unit = std::make_unique<RenameUnit>(config, hooks);
  rename(make_inst(isa::Opcode::ADDI, 5, 3, 0), 1);
  EXPECT_EQ(g_counting_policy_plans, 1);
}

}  // namespace
}  // namespace erel::core

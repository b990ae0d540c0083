// White-box release-policy tests: a fake PipelineHooks lets us drive the
// three mechanisms through exact §2/§3/§4 scenarios without the pipeline.
#include <gtest/gtest.h>

#include <map>

#include "core/release_policy.hpp"
#include "core/types.hpp"

namespace erel::core {
namespace {

/// Minimal pipeline stand-in: a map of in-flight rename records plus an
/// explicit pending-branch list.
class FakeHooks : public PipelineHooks {
 public:
  RenameRec* find_inflight(InstSeq seq) override {
    const auto it = inflight.find(seq);
    return it == inflight.end() ? nullptr : &it->second;
  }
  bool branch_pending_between(InstSeq lo, InstSeq hi) const override {
    for (const InstSeq b : pending) {
      if (b > lo && b < hi) return true;
    }
    return false;
  }

  std::map<InstSeq, RenameRec> inflight;
  std::vector<InstSeq> pending;
};

/// Test fixture mimicking the RenameUnit's call sequence for a single-class
/// instruction stream.
class PolicyTest : public testing::Test {
 protected:
  void init(PolicyKind kind, unsigned phys = 40) {
    rf = std::make_unique<RegFileState>(RC::Int, phys);
    policy = make_policy(kind, *rf, hooks);
  }

  /// Renames "rd = op(rs1)" at `seq`; returns the record.
  RenameRec& rename(InstSeq seq, unsigned rd, int rs1 = -1,
                    std::uint64_t cycle = 0) {
    RenameRec& rec = hooks.inflight[seq];
    rec = RenameRec{};
    if (rs1 >= 0) {
      rec.r1 = static_cast<std::uint8_t>(rs1);
      rec.c1 = isa::RegClass::Int;
      rec.p1 = rf->map.get(static_cast<unsigned>(rs1)).phys;
      rec.p1_token = rf->tracker.token(rec.p1);
      policy->record_src_use(static_cast<unsigned>(rs1), seq, UseKind::Src1);
    }
    rec.rd = static_cast<std::uint8_t>(rd);
    rec.cd = isa::RegClass::Int;
    rec.old_pd = rf->map.get(rd).phys;
    rec.old_stale = rf->map.get(rd).stale;
    const auto plan = policy->plan_dest(rd, seq, rec, cycle);
    if (plan.reuse) {
      rec.pd = rec.old_pd;
      rec.reused_prev = true;
      rf->tracker.on_reuse(rec.pd, static_cast<std::uint8_t>(rd), cycle);
    } else {
      rec.pd = rf->alloc(static_cast<std::uint8_t>(rd), cycle);
    }
    rf->map.set(rd, rec.pd);
    policy->record_dst_use(rd, seq);
    return rec;
  }

  /// Commits `seq` in order (consumer/definer tracking + policy actions).
  void commit(InstSeq seq, std::uint64_t cycle) {
    RenameRec& rec = hooks.inflight.at(seq);
    if (rec.c1 != isa::RegClass::None)
      rf->tracker.on_consumer_commit(rec.p1, rec.p1_token, cycle);
    if (rec.cd != isa::RegClass::None) {
      rf->write_value(rec.pd, 0, cycle);  // ensure written before commit
      rf->tracker.on_definer_commit(rec.pd, cycle);
      rf->iomt.set(rec.rd, rec.pd);
    }
    policy->on_commit(rec, seq, cycle);
    hooks.inflight.erase(seq);
  }

  /// Squashes in-flight `seq` as RenameUnit::on_squash_entry does: puts
  /// rd's previous mapping back and frees (or un-reuses) the destination.
  void squash(InstSeq seq, std::uint64_t cycle) {
    const RenameRec rec = hooks.inflight.at(seq);
    rf->map.set(rec.rd, rec.old_pd);
    if (rec.old_stale) rf->map.mark_stale(rec.rd);
    if (rec.reused_prev) {
      rf->tracker.on_reuse(rec.pd, rec.rd, cycle);
    } else {
      rf->release(rec.pd, cycle, /*squashed=*/true);
    }
    hooks.inflight.erase(seq);
  }

  FakeHooks hooks;
  std::unique_ptr<RegFileState> rf;
  std::unique_ptr<ReleasePolicy> policy;
};

// ---- conventional ----

TEST_F(PolicyTest, ConventionalReleasesOldAtNvCommit) {
  init(PolicyKind::Conventional);
  const PhysReg v0 = rf->map.get(5).phys;
  RenameRec& nv = rename(1, 5);
  EXPECT_EQ(nv.old_pd, v0);
  EXPECT_TRUE(nv.rel_old);
  EXPECT_FALSE(rf->free_list.is_free(v0));
  commit(1, 10);
  EXPECT_TRUE(rf->free_list.is_free(v0));
  EXPECT_EQ(policy->stats().conventional_releases, 1u);
}

// ---- basic ----

TEST_F(PolicyTest, BasicReusesArchVersionAtStart) {
  init(PolicyKind::Basic);
  // Initial LUs entries are Arch/committed: the first redefinition reuses
  // the architectural register in place.
  const PhysReg v0 = rf->map.get(5).phys;
  RenameRec& nv = rename(1, 5);
  EXPECT_TRUE(nv.reused_prev);
  EXPECT_EQ(nv.pd, v0);
  EXPECT_EQ(policy->stats().reuses, 1u);
  EXPECT_FALSE(rf->free_list.is_free(v0));
}

TEST_F(PolicyTest, BasicSchedulesReleaseAtInFlightLu) {
  init(PolicyKind::Basic);
  RenameRec& def = rename(1, 5);           // v1 of r5
  RenameRec& lu = rename(2, 6, /*rs1=*/5); // reads r5: LU of v1
  RenameRec& nv = rename(3, 5);            // redefines r5
  EXPECT_FALSE(nv.rel_old);                // conventional path disconnected
  EXPECT_EQ(lu.rel_bits, kRel1);           // paper Figure 6b
  EXPECT_EQ(def.rel_bits, 0u);
  const PhysReg v1 = lu.p1;
  commit(1, 10);
  EXPECT_FALSE(rf->free_list.is_free(v1));
  commit(2, 11);                           // LU commits: early release
  EXPECT_TRUE(rf->free_list.is_free(v1));
  EXPECT_EQ(policy->stats().early_commit_releases, 1u);
  commit(3, 12);                           // NV commit releases nothing extra
  EXPECT_EQ(policy->stats().conventional_releases, 0u);
}

TEST_F(PolicyTest, BasicDefinerOnlyVersionUsesRelD) {
  init(PolicyKind::Basic);
  RenameRec& def = rename(1, 5);  // writes r5, no reader follows
  rename(2, 5);                   // immediate redefinition
  EXPECT_EQ(def.rel_bits, kRelD); // Figure 4b: release the definer's own pd
}

TEST_F(PolicyTest, BasicReusesAfterLuCommitted) {
  init(PolicyKind::Basic);
  rename(1, 5);
  rename(2, 6, /*rs1=*/5);
  commit(1, 10);
  commit(2, 11);
  // LU committed (C=1 via on_commit): next redefinition reuses v1 in place.
  const PhysReg v1 = rf->map.get(5).phys;
  RenameRec& nv = rename(3, 5);
  EXPECT_TRUE(nv.reused_prev);
  EXPECT_EQ(nv.pd, v1);
}

TEST_F(PolicyTest, BasicFallsBackAcrossPendingBranch) {
  init(PolicyKind::Basic);
  RenameRec& lu = rename(1, 5);   // definer = LU (no readers)
  hooks.pending.push_back(2);     // unresolved branch between LU and NV
  RenameRec& nv = rename(3, 5);
  EXPECT_TRUE(nv.rel_old);        // Case 2: conventional fallback
  EXPECT_EQ(lu.rel_bits, 0u);
  EXPECT_EQ(policy->stats().fallback_conventional, 1u);
}

TEST_F(PolicyTest, BasicBranchOlderThanLuDoesNotBlock) {
  init(PolicyKind::Basic);
  hooks.pending.push_back(1);     // pending branch older than the LU pair
  RenameRec& lu = rename(2, 5);
  RenameRec& nv = rename(3, 5);
  EXPECT_FALSE(nv.rel_old);
  EXPECT_EQ(lu.rel_bits, kRelD);  // scheduling allowed: squash is atomic
}

TEST_F(PolicyTest, BasicSelfUseSchedulesOnItself) {
  init(PolicyKind::Basic);
  rename(1, 5);
  // add r5, r5, ...: the instruction is its own previous-version LU.
  RenameRec& nv = rename(2, 5, /*rs1=*/5);
  EXPECT_EQ(nv.rel_bits, kRel1);
  EXPECT_FALSE(nv.rel_old);
  EXPECT_FALSE(nv.reused_prev);
}

TEST_F(PolicyTest, BasicStaleMappingSuppressed) {
  init(PolicyKind::Basic);
  rf->map.mark_stale(5);
  RenameRec& nv = rename(1, 5);
  EXPECT_FALSE(nv.rel_old);
  EXPECT_FALSE(nv.reused_prev);
  EXPECT_EQ(policy->stats().stale_suppressed, 1u);
}

TEST_F(PolicyTest, BasicMispredictRevertsLastUses) {
  init(PolicyKind::Basic);
  rename(1, 5);
  rename(2, 6, /*rs1=*/5);     // LU of r5's v1
  hooks.pending.push_back(2);  // instruction 2 stands in for the branch
  rename(3, 7, /*rs1=*/5);     // wrong-path younger use
  squash(3, 1);
  hooks.pending.clear();
  policy->on_branch_mispredicted(2);
  // After the undo the LU of r5 is instruction 2 again.
  RenameRec& nv = rename(4, 5);
  EXPECT_FALSE(nv.rel_old);
  EXPECT_EQ(hooks.inflight.at(2).rel_bits, kRel1);
}

TEST_F(PolicyTest, MispredictAfterLuCommitSeesC) {
  // The paper sets C "in all LUs Table copies" at commit. Here a mispredict
  // puts back an LUs entry whose LU committed while the wrong path was in
  // flight; it must read C=1: basic then reuses the register, extended
  // releases it immediately.
  for (const PolicyKind kind : {PolicyKind::Basic, PolicyKind::Extended}) {
    SCOPED_TRACE(std::string(policy_name(kind)));
    hooks = FakeHooks{};
    init(kind);
    rename(1, 5);
    rename(2, 6, /*rs1=*/5);  // LU of r5's v1
    const PhysReg v1 = rf->map.get(5).phys;
    hooks.pending.push_back(3);  // branch 3 is pending
    rename(4, 7, /*rs1=*/5);     // wrong-path last use of v1
    commit(1, 10);
    commit(2, 11);  // the LU commits while the wrong path is in flight
    // Branch 3 mispredicts: squash 4, undo its LUs Table recordings.
    squash(4, 12);
    hooks.pending.clear();
    policy->on_branch_mispredicted(3);
    RenameRec& nv = rename(4, 5, -1, 13);  // the reused seq redefines r5
    if (kind == PolicyKind::Basic) {
      EXPECT_TRUE(nv.reused_prev);
      EXPECT_EQ(nv.pd, v1);
    } else {
      EXPECT_FALSE(nv.reused_prev);
      EXPECT_TRUE(rf->free_list.is_free(v1));
      EXPECT_EQ(policy->relque_population(), 0u);
    }
  }
}

TEST_F(PolicyTest, BasicExceptionFlushResetsToArch) {
  init(PolicyKind::Basic);
  rename(1, 5);
  rename(2, 6, /*rs1=*/5);
  policy->on_exception_flush();
  hooks.inflight.clear();
  // All entries back to Arch/committed: the next NV reuses immediately.
  RenameRec& nv = rename(3, 6);
  EXPECT_TRUE(nv.reused_prev);
}

// ---- extended ----

TEST_F(PolicyTest, ExtendedImmediateReleaseWhenNonSpeculative) {
  init(PolicyKind::Extended);
  rename(1, 5);
  rename(2, 6, /*rs1=*/5);
  commit(1, 10);
  commit(2, 11);
  const PhysReg v1 = rf->map.get(5).phys;
  RenameRec& nv = rename(3, 5, -1, /*cycle=*/12);
  EXPECT_FALSE(nv.reused_prev);  // extended releases instead of reusing
  EXPECT_TRUE(rf->free_list.is_free(v1));
  // Three immediate releases: the architectural versions of r5 and r6 at
  // instructions 1 and 2, plus v1 of r5 at instruction 3.
  EXPECT_EQ(policy->stats().immediate_releases, 3u);
}

TEST_F(PolicyTest, ExtendedSchedulesRwc0WhenLuInFlight) {
  init(PolicyKind::Extended);
  rename(1, 5);
  RenameRec& lu = rename(2, 6, /*rs1=*/5);
  rename(3, 5);
  EXPECT_EQ(lu.rel_bits, kRel1);
  EXPECT_EQ(policy->relque_population(), 0u);
}

TEST_F(PolicyTest, ExtendedConditionalRwnsReleaseOnConfirm) {
  init(PolicyKind::Extended);
  rename(1, 5);
  rename(2, 6, /*rs1=*/5);
  commit(1, 10);
  commit(2, 11);
  // A pending branch makes the NV speculative: decoded conditional release.
  hooks.pending.push_back(3);
  const PhysReg v1 = rf->map.get(5).phys;
  rename(4, 5);
  EXPECT_EQ(policy->relque_population(), 1u);
  EXPECT_FALSE(rf->free_list.is_free(v1));
  // Branch confirms: branch-confirm release (paper Step 6).
  hooks.pending.clear();
  policy->on_branch_confirmed(3, 20);
  EXPECT_TRUE(rf->free_list.is_free(v1));
  EXPECT_EQ(policy->stats().branch_confirm_releases, 1u);
}

TEST_F(PolicyTest, ExtendedConditionalRwcMigratesOnLuCommit) {
  init(PolicyKind::Extended);
  rename(1, 5);
  RenameRec lu_copy;
  RenameRec& lu = rename(2, 6, /*rs1=*/5);  // LU in flight
  hooks.pending.push_back(3);
  rename(4, 5);                              // speculative NV
  EXPECT_EQ(policy->relque_population(), 1u);
  EXPECT_EQ(lu.rel_bits, 0u);                // the release is deferred
  const PhysReg v1 = lu.p1;
  commit(1, 10);
  lu_copy = lu;
  commit(2, 11);                             // LU commits; still deferred
  EXPECT_FALSE(rf->free_list.is_free(v1));   // still conditional
  EXPECT_EQ(policy->relque_population(), 1u);
  hooks.pending.clear();
  policy->on_branch_confirmed(3, 20);
  EXPECT_TRUE(rf->free_list.is_free(v1));
}

TEST_F(PolicyTest, ExtendedMispredictDropsConditionalReleases) {
  init(PolicyKind::Extended);
  rename(1, 5);
  rename(2, 6, /*rs1=*/5);
  commit(1, 10);
  commit(2, 11);
  hooks.pending.push_back(3);
  const PhysReg v1 = rf->map.get(5).phys;
  rename(4, 5);
  // Mispredict: squash the NV, drop the scheduling, undo its recordings.
  squash(4, 12);
  policy->on_branch_mispredicted(3);
  hooks.pending.clear();
  EXPECT_EQ(policy->relque_population(), 0u);
  EXPECT_FALSE(rf->free_list.is_free(v1));   // still live
  // Re-decoded NV releases it exactly once.
  rename(5, 5, -1, 13);
  EXPECT_TRUE(rf->free_list.is_free(v1));
}

TEST_F(PolicyTest, ExtendedNestedBranchesConfirmInOrder) {
  init(PolicyKind::Extended);
  rename(1, 5);
  rename(2, 7, /*rs1=*/5);
  commit(1, 10);
  commit(2, 11);
  hooks.pending.push_back(3);
  const PhysReg v5 = rf->map.get(5).phys;
  rename(4, 5);                    // conditional on branch 3
  hooks.pending.push_back(5);
  const PhysReg v6 = rf->map.get(6).phys;  // arch version of r6
  rename(6, 6);                    // conditional on branches 3 and 5
  EXPECT_EQ(policy->relque_population(), 2u);
  // Younger branch confirms first: branch 3 still guards both NVs.
  hooks.pending.erase(hooks.pending.begin() + 1);
  policy->on_branch_confirmed(5, 20);
  EXPECT_FALSE(rf->free_list.is_free(v6));
  EXPECT_EQ(policy->relque_population(), 2u);
  // Oldest confirms: both release.
  hooks.pending.clear();
  policy->on_branch_confirmed(3, 21);
  EXPECT_TRUE(rf->free_list.is_free(v5));
  EXPECT_TRUE(rf->free_list.is_free(v6));
}

TEST_F(PolicyTest, ExtendedDeferredReleaseBecomesRelBitOfInFlightLu) {
  init(PolicyKind::Extended);
  rename(1, 5);
  RenameRec& lu = rename(2, 6, /*rs1=*/5);  // LU in flight
  hooks.pending.push_back(3);
  rename(4, 5);                              // speculative NV
  const PhysReg v1 = lu.p1;
  // Branch 3 confirms before the LU commits: the release joins the LU's
  // rel bits (RwC -> RwC0) instead of freeing anything now.
  hooks.pending.clear();
  policy->on_branch_confirmed(3, 20);
  EXPECT_EQ(policy->relque_population(), 0u);
  EXPECT_EQ(lu.rel_bits, kRel1);
  EXPECT_FALSE(rf->free_list.is_free(v1));
  EXPECT_EQ(policy->stats().branch_confirm_releases, 0u);
  commit(1, 21);
  commit(2, 22);  // the LU commits and releases v1
  EXPECT_TRUE(rf->free_list.is_free(v1));
  EXPECT_EQ(policy->stats().early_commit_releases, 1u);
}

TEST_F(PolicyTest, ExtendedYoungerMispredictKeepsOlderDeferredRelease) {
  init(PolicyKind::Extended);
  hooks.pending.push_back(1);
  const PhysReg r5 = rf->map.get(5).phys;
  rename(2, 5);                    // deferred behind branch 1
  hooks.pending.push_back(3);
  rename(4, 6);                    // deferred behind branches 1 and 3
  EXPECT_EQ(policy->relque_population(), 2u);
  // Branch 3 mispredicts: only NV 4 is squashed.
  squash(4, 10);
  hooks.pending.pop_back();
  policy->on_branch_mispredicted(3);
  EXPECT_EQ(policy->relque_population(), 1u);
  hooks.pending.clear();
  policy->on_branch_confirmed(1, 11);
  EXPECT_TRUE(rf->free_list.is_free(r5));
  EXPECT_EQ(policy->stats().branch_confirm_releases, 1u);
}

TEST_F(PolicyTest, ExtendedExceptionFlushDropsDeferredReleases) {
  init(PolicyKind::Extended);
  hooks.pending.push_back(1);
  const PhysReg r5 = rf->map.get(5).phys;
  const PhysReg r6 = rf->map.get(6).phys;
  rename(2, 5);
  rename(3, 6);
  EXPECT_EQ(policy->relque_population(), 2u);
  policy->on_exception_flush();
  EXPECT_EQ(policy->relque_population(), 0u);
  EXPECT_FALSE(rf->free_list.is_free(r5));
  EXPECT_FALSE(rf->free_list.is_free(r6));
}

TEST_F(PolicyTest, ExtendedDoubleSchedulingAtFireAborts) {
  init(PolicyKind::Extended);
  rename(1, 5);
  RenameRec& lu = rename(2, 6, /*rs1=*/5);
  hooks.pending.push_back(3);
  rename(4, 5);             // deferred: rel1 of LU 2
  lu.rel_bits |= kRel1;     // the same bit is already scheduled
  hooks.pending.clear();
  EXPECT_DEATH(policy->on_branch_confirmed(3, 20), "double scheduling");
}

TEST_F(PolicyTest, ExtendedNeverSetsRelOld) {
  init(PolicyKind::Extended);
  hooks.pending.push_back(1);
  RenameRec& nv = rename(2, 5);
  EXPECT_FALSE(nv.rel_old);
  hooks.pending.clear();
  policy->on_branch_mispredicted(1);
}

TEST_F(PolicyTest, ExtendedCanRenameWithEmptyFreeListViaImmediateRelease) {
  init(PolicyKind::Extended, /*phys=*/34);  // two rename registers
  // Drain the free list with a chain of in-flight redefinitions of r5
  // (each schedules at its in-flight LU and must allocate).
  rename(1, 5, -1, 1);  // releases arch r5 immediately, then allocates
  rename(2, 5, -1, 2);  // LU = 1 in flight -> RwC0 + allocate
  rename(3, 5, -1, 3);  // LU = 2 in flight -> RwC0 + allocate
  EXPECT_TRUE(rf->free_list.empty());
  // r6's architectural version is immediately releasable: rename can
  // proceed even with an empty free list.
  EXPECT_TRUE(policy->can_rename_dest(6, 4, /*self_src_use=*/false));
  // r5's previous version has an uncommitted LU: allocation required.
  EXPECT_FALSE(policy->can_rename_dest(5, 4, /*self_src_use=*/false));
  // Self-use rules the immediate path out even for r6.
  EXPECT_FALSE(policy->can_rename_dest(6, 4, /*self_src_use=*/true));
  RenameRec& nv = rename(4, 6, -1, 4);
  EXPECT_NE(nv.pd, kNoReg);
}

TEST_F(PolicyTest, BasicCanRenameWithEmptyFreeListViaReuse) {
  init(PolicyKind::Basic, /*phys=*/33);  // one rename register
  RenameRec& first = rename(1, 5);
  EXPECT_TRUE(first.reused_prev);  // arch version recycled, no allocation
  rename(2, 5);                    // LU = 1 in flight -> allocates
  EXPECT_TRUE(rf->free_list.empty());
  // r6 is still reusable in place; r5 is not (its LU is in flight).
  EXPECT_TRUE(policy->can_rename_dest(6, 3, /*self_src_use=*/false));
  EXPECT_FALSE(policy->can_rename_dest(5, 3, /*self_src_use=*/false));
  RenameRec& nv = rename(3, 6);
  EXPECT_TRUE(nv.reused_prev);
}

}  // namespace
}  // namespace erel::core

#include "core/rename_unit.hpp"

namespace erel::core {

using isa::RegClass;

RenameUnit::RenameUnit(const RenameConfig& config, PipelineHooks& hooks) {
  state_[0] = std::make_unique<RegFileState>(RC::Int, config.phys_int);
  state_[1] = std::make_unique<RegFileState>(RC::Fp, config.phys_fp);
  for (unsigned c = 0; c < kNumClasses; ++c) {
    policy_[c] = make_policy(config.policy, *state_[c], hooks);
  }
}

bool RenameUnit::try_rename(const isa::DecodedInst& inst, InstSeq seq,
                            RenameRec& rec, std::uint64_t cycle) {
  // Stall check first: no side effects on failure.
  if (inst.has_dst()) {
    const RC cd = rc_from(inst.dst_class());
    const bool self_src_use =
        (inst.src1_class() == inst.dst_class() && inst.rs1 == inst.rd) ||
        (inst.src2_class() == inst.dst_class() && inst.rs2 == inst.rd);
    if (!policy(cd).can_rename_dest(inst.rd, seq, self_src_use)) {
      ++rename_stalls_[static_cast<unsigned>(cd)];
      return false;
    }
  }

  rec.r1 = inst.rs1;
  rec.r2 = inst.rs2;
  rec.rd = inst.rd;
  rec.c1 = inst.src1_class();
  rec.c2 = inst.src2_class();
  rec.cd = inst.has_dst() ? inst.dst_class() : RegClass::None;

  // Source lookup + LUs Table recording (renaming step 1 — before the
  // destination lookup so an instruction can be its own previous-version LU,
  // e.g. `add r1, r1, r2`).
  if (rec.c1 != RegClass::None) {
    RegFileState& rfs = rf(rc_from(rec.c1));
    rec.p1 = rfs.map.get(rec.r1).phys;
    rec.p1_token = rfs.tracker.token(rec.p1);
    policy(rc_from(rec.c1)).record_src_use(rec.r1, seq, UseKind::Src1);
  }
  if (rec.c2 != RegClass::None) {
    RegFileState& rfs = rf(rc_from(rec.c2));
    rec.p2 = rfs.map.get(rec.r2).phys;
    rec.p2_token = rfs.tracker.token(rec.p2);
    policy(rc_from(rec.c2)).record_src_use(rec.r2, seq, UseKind::Src2);
  }

  if (rec.cd != RegClass::None) {
    const RC cd = rc_from(rec.cd);
    RegFileState& rfs = rf(cd);
    // The previous mapping: the policy plans its release, and a squash of
    // this instruction puts it back.
    const Mapping old = rfs.map.get(rec.rd);
    rec.old_pd = old.phys;
    rec.old_stale = old.stale;
    const ReleasePolicy::DestPlan plan =
        policy(cd).plan_dest(rec.rd, seq, rec, cycle);
    if (plan.reuse) {
      // Basic mechanism, LU-committed case: the old version's storage is
      // recycled in place; the map does not change.
      rec.pd = rec.old_pd;
      rec.reused_prev = true;
      rfs.tracker.on_reuse(rec.pd, rec.rd, cycle);
      rfs.ready[rec.pd] = false;  // new version is Empty until written
    } else {
      rec.pd = rfs.alloc(rec.rd, cycle);
    }
    rfs.map.set(rec.rd, rec.pd);  // also clears a stale bit on rd
    policy(cd).record_dst_use(rec.rd, seq);
  }
  return true;
}

void RenameUnit::on_branch_confirmed(InstSeq seq, std::uint64_t cycle) {
  for (unsigned c = 0; c < kNumClasses; ++c)
    policy_[c]->on_branch_confirmed(seq, cycle);
}

void RenameUnit::on_branch_mispredicted(InstSeq seq) {
  for (unsigned c = 0; c < kNumClasses; ++c)
    policy_[c]->on_branch_mispredicted(seq);
}

void RenameUnit::on_commit(const RenameRec& rec, InstSeq seq,
                           std::uint64_t cycle) {
  // 1. Committed reads: the safety check that early release never frees a
  //    register a committed instruction still needs.
  if (rec.c1 != RegClass::None)
    rf(rc_from(rec.c1)).tracker.on_consumer_commit(rec.p1, rec.p1_token, cycle);
  if (rec.c2 != RegClass::None)
    rf(rc_from(rec.c2)).tracker.on_consumer_commit(rec.p2, rec.p2_token, cycle);

  // 2. Architectural mapping update *before* any release so the stale-bit
  //    logic sees the post-commit IOMT.
  if (rec.cd != RegClass::None) {
    RegFileState& rfs = rf(rc_from(rec.cd));
    rfs.tracker.on_definer_commit(rec.pd, cycle);
    rfs.iomt.set(rec.rd, rec.pd);
  }

  // 3. Policy actions: the LUs Table's commit frontier (the C bit), rel-bit
  //    releases, old_pd release.
  for (unsigned c = 0; c < kNumClasses; ++c)
    policy_[c]->on_commit(rec, seq, cycle);
}

void RenameUnit::on_squash_entry(const RenameRec& rec, std::uint64_t cycle) {
  if (rec.cd == RegClass::None) return;
  RegFileState& rfs = rf(rc_from(rec.cd));
  rfs.map.set(rec.rd, rec.old_pd);
  if (rec.old_stale) rfs.map.mark_stale(rec.rd);
  if (rec.reused_prev) {
    // A squashed reuse: the storage still backs the (restored) architectural
    // mapping, so it must stay allocated. Start a replacement version that
    // stands in for the old one; its value is dead by the §4.3 argument.
    rfs.tracker.on_reuse(rec.pd, rec.rd, cycle);
    rfs.ready[rec.pd] = true;
    return;
  }
  rfs.release(rec.pd, cycle, /*squashed=*/true);
}

void RenameUnit::on_exception_flush(std::uint64_t cycle) {
  (void)cycle;
  for (unsigned c = 0; c < kNumClasses; ++c) {
    // The IOMT (with its stale bits) is the precise architectural mapping.
    state_[c]->map = state_[c]->iomt;
    policy_[c]->on_exception_flush();
  }
}

}  // namespace erel::core

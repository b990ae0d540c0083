#include "core/rename_unit.hpp"

#include "common/log.hpp"

namespace erel::core {

using isa::RegClass;

RenameUnit::RenameUnit(const RenameConfig& config, PipelineHooks& hooks)
    : config_(config) {
  slots_.resize(config.max_pending_branches);
  order_.reserve(config.max_pending_branches);
  free_.reserve(config.max_pending_branches);
  for (std::uint32_t id = config.max_pending_branches; id-- > 0;)
    free_.push_back(id);
  state_[0] = std::make_unique<RegFileState>(RC::Int, config.phys_int);
  state_[1] = std::make_unique<RegFileState>(RC::Fp, config.phys_fp);
  for (unsigned c = 0; c < kNumClasses; ++c) {
    if (config.policy_factory) {
      policy_[c] =
          config.policy_factory(static_cast<RC>(c), *state_[c], hooks);
      EREL_CHECK(policy_[c] != nullptr, "policy factory returned null");
    } else {
      policy_[c] = make_policy(config.policy, *state_[c], hooks);
    }
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

void RenameUnit::note_branch_decoded(InstSeq seq) {
  EREL_CHECK(can_checkpoint(), "checkpoint stack overflow");
  EREL_CHECK(order_.empty() || slots_[order_.back()].branch_seq < seq);
  // Built in place inside a recycled slot: no allocation, no copy of the
  // ~1 KB snapshot arrays beyond the snapshots themselves.
  const std::uint32_t id = free_.back();
  free_.pop_back();
  order_.push_back(id);
  Checkpoint& cp = slots_[id];
  cp.branch_seq = seq;
  for (unsigned c = 0; c < kNumClasses; ++c) {
    cp.map[c] = state_[c]->map.snapshot();
    policy_[c]->make_checkpoint_into(cp.aux[c]);
  }
}

void RenameUnit::on_branch_confirmed(InstSeq seq, std::uint64_t cycle) {
  // Branches verify out of order: retire the matching checkpoint wherever
  // it sits in the stack (only its 4-byte slot id moves).
  bool found = false;
  for (auto it = order_.begin(); it != order_.end(); ++it) {
    if (slots_[*it].branch_seq == seq) {
      free_.push_back(*it);
      order_.erase(it);
      found = true;
      break;
    }
  }
  EREL_CHECK(found, "confirm of unknown branch ", seq);
  for (unsigned c = 0; c < kNumClasses; ++c)
    policy_[c]->on_branch_confirmed(seq, cycle);
}

void RenameUnit::on_branch_mispredicted(InstSeq seq) {
  // Find the checkpoint; restore it; drop it and everything younger.
  std::size_t idx = order_.size();
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (slots_[order_[i]].branch_seq == seq) {
      idx = i;
      break;
    }
  }
  EREL_CHECK(idx != order_.size(), "mispredict of unknown branch ", seq);
  Checkpoint& cp = slots_[order_[idx]];
  for (unsigned c = 0; c < kNumClasses; ++c) {
    state_[c]->map.restore(cp.map[c]);
    policy_[c]->restore_checkpoint(cp.aux[c]);
    policy_[c]->on_branch_mispredicted(seq);
  }
  for (std::size_t i = idx; i < order_.size(); ++i) free_.push_back(order_[i]);
  order_.resize(idx);
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

  // 3. Policy actions: the LUs Table's commit frontier (which is also the
  //    C bit of every checkpoint copy), rel-bit releases, old_pd release.
  for (unsigned c = 0; c < kNumClasses; ++c)
    policy_[c]->on_commit(rec, seq, cycle);
}

void RenameUnit::on_squash_entry(const RenameRec& rec, std::uint64_t cycle) {
  if (rec.cd == RegClass::None) return;
  RegFileState& rfs = rf(rc_from(rec.cd));
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
    state_[c]->map.restore(state_[c]->iomt.snapshot());
    policy_[c]->on_exception_flush();
  }
  for (const std::uint32_t id : order_) free_.push_back(id);
  order_.clear();
}

}  // namespace erel::core

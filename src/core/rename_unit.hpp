// Register rename unit: Map Tables, Free Lists, IOMT and the release
// policy instances for both register classes (Figure 1 of the paper plus
// the §3/§4 extensions).
//
// The pipeline drives it through four entry points:
//   try_rename()            - decode/rename stage, per instruction
//   on_branch_confirmed() / on_branch_mispredicted()
//   on_commit()             - per committing instruction, in order
//   on_squash_entry() + on_exception_flush() - recovery
//
// The paper copies the Map Table and the LUs Table at every branch. Here a
// mispredict undoes the squashed renames instead, like a history buffer:
// on_squash_entry() puts each squashed instruction's previous mapping back,
// youngest first, and on_branch_mispredicted() has the policies undo their
// LUs Table recordings (core/lus_table.hpp). Together they restore exactly
// the state a copy taken right after the branch renamed would hold.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "core/release_policy.hpp"
#include "core/reg_state.hpp"
#include "core/types.hpp"
#include "isa/isa.hpp"

namespace erel::core {

struct RenameConfig {
  unsigned phys_int = 96;
  unsigned phys_fp = 96;
  PolicyKind policy = PolicyKind::Conventional;
};

class RenameUnit {
 public:
  RenameUnit(const RenameConfig& config, PipelineHooks& hooks);

  RegFileState& rf(RC cls) { return *state_[static_cast<unsigned>(cls)]; }
  const RegFileState& rf(RC cls) const {
    return *state_[static_cast<unsigned>(cls)];
  }
  ReleasePolicy& policy(RC cls) {
    return *policy_[static_cast<unsigned>(cls)];
  }
  const ReleasePolicy& policy(RC cls) const {
    return *policy_[static_cast<unsigned>(cls)];
  }

  /// Renames one instruction into `rec` (which must already be registered so
  /// PipelineHooks::find_inflight(seq) resolves to it). Records rd's
  /// previous mapping in rec.old_pd / rec.old_stale. Returns false and
  /// leaves all state untouched when a destination register cannot be
  /// obtained (free-list stall — the stall this paper attacks).
  bool try_rename(const isa::DecodedInst& inst, InstSeq seq, RenameRec& rec,
                  std::uint64_t cycle);

  void on_branch_confirmed(InstSeq seq, std::uint64_t cycle);

  /// Branch `seq` mispredicted: the policies undo the state of every
  /// younger instruction. The pipeline must also pass each squashed
  /// instruction to on_squash_entry(), youngest first.
  void on_branch_mispredicted(InstSeq seq);

  /// Commit processing for one instruction, in program order: consumer/
  /// definer tracking, IOMT update, then the policy's release actions.
  void on_commit(const RenameRec& rec, InstSeq seq, std::uint64_t cycle);

  /// Undoes the rename of a squashed in-flight instruction: puts rd's
  /// previous mapping back and frees the destination register.
  void on_squash_entry(const RenameRec& rec, std::uint64_t cycle);

  /// Exception recovery: pipeline already squashed everything; restore the
  /// speculative map from the IOMT and reset policy state.
  void on_exception_flush(std::uint64_t cycle);

  /// Free-list-empty rename stalls observed (per class).
  [[nodiscard]] std::uint64_t rename_stalls(RC cls) const {
    return rename_stalls_[static_cast<unsigned>(cls)];
  }

 private:
  std::array<std::unique_ptr<RegFileState>, kNumClasses> state_;
  std::array<std::unique_ptr<ReleasePolicy>, kNumClasses> policy_;
  std::array<std::uint64_t, kNumClasses> rename_stalls_{};
};

}  // namespace erel::core

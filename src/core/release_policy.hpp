// The three register-release policies evaluated in the paper:
//
//   Conventional — release the previous version (old_pd) when the
//     redefining instruction (NV) commits (§2, Figure 1).
//   Basic — a Last-Uses Table identifies the LU instruction at NV decode;
//     when no unverified branch lies between LU and NV, the release is tied
//     to LU's commit via rel1/rel2/reld bits in the ROS, or performed
//     immediately (reusing the register) when LU has already committed (§3).
//   Extended — additionally handles speculative NVs, whose release must
//     wait until the NV itself can no longer be squashed (§4).
//
// The paper keeps Extended's conditional releases in a Release Queue: one
// level per pending branch, an NV's scheduling placed at the newest level
// (TAIL), levels merging downward as branches confirm, and the bottom level
// releasing (or handing its RwC bits to RwC0) when the oldest branch
// confirms (Figures 7-8). Every branch pending at an NV's decode is older
// than the NV, so a scheduling's level always belongs to the newest pending
// branch older than its NV. It therefore reaches the bottom and confirms
// exactly when no branch older than the NV is still pending, and it is
// dropped exactly when such a branch mispredicts, which squashes the NV
// too. Extended keeps the same releases as one decode-ordered list of
// {NV, LU, rel bit, register} records instead:
//   - branch confirm: fire records from the front while no branch older
//     than the record's NV is pending. A committed LU's register is freed
//     now (Steps 5-6); an in-flight LU gets the rel bit (RwC -> RwC0);
//   - mispredict of branch b: drop records of NVs younger than b (Step 3);
//   - exception flush: drop every record.
// The ready records always form a prefix, because the condition only gets
// easier for older NVs.
//
// A policy instance manages one register class; it owns the class's LUs
// Table (and the deferred releases for Extended) and performs every release
// through the shared RegFileState so the free list / tracker invariants
// hold for all policies identically.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/lus_table.hpp"
#include "core/reg_state.hpp"
#include "core/types.hpp"

namespace erel::core {

enum class PolicyKind : std::uint8_t { Conventional, Basic, Extended };

/// Stable short name: "conv" / "basic" / "extended" (tables, CSV/JSON
/// sinks, CLI flags). Round-trips through parse_policy.
[[nodiscard]] std::string_view policy_name(PolicyKind kind);

/// Inverse of policy_name; also accepts the long aliases "conventional"
/// and "ext". Aborts on an unknown name.
[[nodiscard]] PolicyKind parse_policy(std::string_view name);

/// Non-aborting parse_policy: nullopt on an unknown name (CLI validation
/// paths that want a usage message instead of an abort).
[[nodiscard]] std::optional<PolicyKind> try_parse_policy(
    std::string_view name);

/// The three paper policies in presentation order (conv, basic, extended).
[[nodiscard]] const std::vector<PolicyKind>& all_policies();

/// Release-event counters, reported per class in the simulation results.
struct PolicyStats {
  std::uint64_t conventional_releases = 0;   // old_pd at NV commit
  std::uint64_t early_commit_releases = 0;   // rel bits at LU commit (RwC0)
  std::uint64_t immediate_releases = 0;      // at NV decode, LU committed
  std::uint64_t reuses = 0;                  // basic: pd := old_pd, no alloc
  std::uint64_t branch_confirm_releases = 0; // extended: fired, LU committed
  // Extended: releases of speculative NVs, deferred until no branch older
  // than the NV is pending (the paper's RelQue schedulings).
  std::uint64_t conditional_schedulings = 0;
  std::uint64_t fallback_conventional = 0;   // basic: Case-2 NVs
  std::uint64_t stale_suppressed = 0;        // releases suppressed (dead map)
};

class ReleasePolicy {
 public:
  ReleasePolicy(RegFileState& rf, PipelineHooks& hooks)
      : rf_(rf), hooks_(hooks) {}
  virtual ~ReleasePolicy() = default;

  /// Outcome of plan_dest.
  struct DestPlan {
    bool reuse = false;  // pd := old_pd without allocating (basic, C=1)
  };

  // ---- rename-time hooks (called in this order per instruction) ----

  /// Renaming step 1: a source operand of this class was read.
  virtual void record_src_use(unsigned logical, InstSeq seq, UseKind kind);

  /// Pure resource check: can an instruction redefining `rd` rename now?
  /// `self_src_use` marks instructions that also read rd (e.g. add r1,r1,r2):
  /// their own source read will become the last use of the previous version,
  /// which rules the register-free reuse/immediate-release cases out.
  [[nodiscard]] virtual bool can_rename_dest(unsigned rd, InstSeq nv_seq,
                                             bool self_src_use) const;

  /// Renaming step 2: decide the fate of the previous version of `rd`,
  /// whose mapping rename has already put in rec.old_pd / rec.old_stale.
  /// Fills rec.rel_old, may set rel bits in the LU's record, defer the
  /// release, or release immediately. Only called when can_rename_dest()
  /// returned true in the same cycle.
  virtual DestPlan plan_dest(unsigned rd, InstSeq nv_seq, RenameRec& rec,
                             std::uint64_t cycle) = 0;

  /// Renaming step 3: the destination write is now the last use of the new
  /// version.
  virtual void record_dst_use(unsigned logical, InstSeq seq);

  // ---- commit-time hook (in program order) ----

  /// Advances the LUs Table's commit frontier and performs the
  /// commit-synchronized releases (rel bits / old_pd).
  virtual void on_commit(const RenameRec& rec, InstSeq seq,
                         std::uint64_t cycle);

  // ---- branch lifecycle ----

  virtual void on_branch_confirmed(InstSeq branch_seq, std::uint64_t cycle);

  /// Every instruction younger than the branch was squashed: undo their
  /// policy state (LUs Table recordings, deferred releases).
  virtual void on_branch_mispredicted(InstSeq branch_seq);

  /// Exception flush: pipeline emptied, map restored from the IOMT.
  virtual void on_exception_flush();

  [[nodiscard]] const PolicyStats& stats() const { return stats_; }

  /// Extended only: deferred releases still waiting (invariant tests).
  [[nodiscard]] virtual std::size_t relque_population() const { return 0; }

 protected:
  /// Releases the registers named by rec.rel_bits (the RwC0 action shared by
  /// Basic and Extended), restricted to operands of this policy's class.
  void release_rel_bits(const RenameRec& rec, std::uint64_t cycle);

  /// True if the instruction's destination belongs to this policy's class.
  [[nodiscard]] bool owns_dst(const RenameRec& rec) const;

  RegFileState& rf_;
  PipelineHooks& hooks_;
  PolicyStats stats_;
};

/// Factory keyed by the experiment configuration.
std::unique_ptr<ReleasePolicy> make_policy(PolicyKind kind, RegFileState& rf,
                                           PipelineHooks& hooks);

}  // namespace erel::core

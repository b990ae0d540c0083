// Last-Uses Table (paper §3.1, Figure 5).
//
// One entry per logical register, recording the instruction that used the
// register most recently in decode order (`ROSid` — here a monotone sequence
// number) and the role of that use (`Kind`: src1/src2/dst).
//
// Like the Map Table, the LUs Table is checkpointed at every branch and
// restored on misprediction.
//
// The paper's third field, the C bit, says the entry's instruction has
// committed; hardware sets it at commit "in all LUs Table copies" (§3.2).
// Here it is derived from the commit frontier instead: an entry is
// committed iff its seq is at most the newest committed seq. The argument:
//   - commit is in order, and every class's policy sees every commit;
//   - only two paths squash. A mispredict of branch b restores b's own
//     checkpoint, which was taken right after b renamed and so names no
//     seq > b; every younger checkpoint is dropped. An exception flush
//     resets every table to Arch, drops every checkpoint and clears the
//     ROS, so no seq is reused after it;
//   - so no live entry, working or checkpointed, names a squashed
//     instruction, and a seq the ROS reuses after a squash is never named
//     by a stale entry. Every entry's instruction is either in flight
//     (seq above the frontier) or committed (seq at or below it).
// Snapshots hold only the entries, so a restore cannot move the frontier.
//
// After an exception flush the table resets to the `Arch` state: every
// entry names seq 0, which precedes every ROS seq (those start at 1), so it
// reads as "the architectural version's last use has committed". That lets
// the next redefinition release the mapped version immediately (unless the
// mapping is stale).
#pragma once

#include <array>
#include <cstdint>

#include "core/types.hpp"

namespace erel::core {

struct LUsEntry {
  InstSeq seq = 0;               // paper: ROSid (0 in the Arch state)
  UseKind kind = UseKind::Arch;  // paper: Kind
};

class LUsTable {
 public:
  using Snapshot = std::array<LUsEntry, isa::kNumLogicalRegs>;

  LUsTable() { reset_architectural(); }

  [[nodiscard]] const LUsEntry& lookup(unsigned logical) const;

  /// Records instruction `seq` as the new last use of `logical` (Renaming
  /// step 1 / step 3 of §3.2).
  void record_use(unsigned logical, InstSeq seq, UseKind kind);

  /// Instruction `seq` committed: it becomes the commit frontier. Commits
  /// arrive in program order, so `seq` must exceed the previous one.
  void on_commit(InstSeq seq);

  /// The paper's C bit of an entry naming `seq`.
  [[nodiscard]] bool committed(InstSeq seq) const { return seq <= frontier_; }

  /// Exception flush: every entry becomes Arch (seq 0, committed).
  void reset_architectural();

  [[nodiscard]] Snapshot snapshot() const { return table_; }
  void restore(const Snapshot& snapshot) { table_ = snapshot; }

 private:
  Snapshot table_;
  InstSeq frontier_ = 0;  // newest committed seq; 0 before the first commit
};

}  // namespace erel::core

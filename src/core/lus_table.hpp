// Last-Uses Table (paper §3.1, Figure 5).
//
// One entry per logical register, recording the instruction that used the
// register most recently in decode order (`ROSid` — here a monotone sequence
// number) and the role of that use (`Kind`: src1/src2/dst).
//
// The paper copies the LUs Table at every branch and restores the copy on a
// misprediction. Here the table undoes squashed recordings instead, the way
// a history buffer undoes squashed register writes (Smith & Pleszkun, ISCA
// 1985): every record_use appends {seq, logical, previous entry} to an undo
// list in decode order. A commit of seq drops the records of seq and older,
// so the list holds only in-flight recordings. A mispredict of branch b
// puts back the previous entry of every record younger than b, newest
// first; that leaves the table a copy taken right after b renamed would
// hold, because every younger recording is undone and no older one is.
//
// No undo record names a reused seq. The ROS reuses a seq only after
// squashing it (`src/pipeline/ros.hpp`), and only two paths squash. A
// mispredict of b squashes exactly the seqs above b, and squash_after(b)
// drops exactly the records above b. An exception flush squashes every
// in-flight seq, and reset_architectural clears the list. So every record
// names an in-flight instruction, and the list stays in ascending seq order:
// a reused seq is appended behind records that are all older than it.
//
// The paper's third field, the C bit, says the entry's instruction has
// committed; hardware sets it at commit "in all LUs Table copies" (§3.2).
// Here it is derived from the commit frontier instead: an entry is
// committed iff its seq is at most the newest committed seq. The argument:
//   - commit is in order, and every class's policy sees every commit;
//   - by the argument above, a mispredict of b leaves no entry naming a
//     seq > b, and an exception flush resets every entry to Arch;
//   - so no entry names a squashed instruction, and a seq the ROS reuses
//     after a squash is never named by a stale entry. Every entry's
//     instruction is either in flight (seq above the frontier) or committed
//     (seq at or below it).
// An undo puts back entries only, so it cannot move the frontier.
//
// After an exception flush the table resets to the `Arch` state: every
// entry names seq 0, which precedes every ROS seq (those start at 1), so it
// reads as "the architectural version's last use has committed". That lets
// the next redefinition release the mapped version immediately (unless the
// mapping is stale).
#pragma once

#include <array>
#include <cstdint>
#include <deque>

#include "core/types.hpp"

namespace erel::core {

struct LUsEntry {
  InstSeq seq = 0;               // paper: ROSid (0 in the Arch state)
  UseKind kind = UseKind::Arch;  // paper: Kind
};

class LUsTable {
 public:
  LUsTable() { reset_architectural(); }

  [[nodiscard]] const LUsEntry& lookup(unsigned logical) const;

  /// Records instruction `seq` as the new last use of `logical` (Renaming
  /// step 1 / step 3 of §3.2).
  void record_use(unsigned logical, InstSeq seq, UseKind kind);

  /// Instruction `seq` committed: it becomes the commit frontier, and its
  /// undo records are dropped. Commits arrive in program order, so `seq`
  /// must exceed the previous one.
  void on_commit(InstSeq seq);

  /// The paper's C bit of an entry naming `seq`.
  [[nodiscard]] bool committed(InstSeq seq) const { return seq <= frontier_; }

  /// Mispredict of branch `branch_seq`: undoes every use recorded by a
  /// younger instruction, newest first.
  void squash_after(InstSeq branch_seq);

  /// Exception flush: every entry becomes Arch (seq 0, committed) and the
  /// undo list empties.
  void reset_architectural();

  /// Undo records held, one per in-flight recording.
  [[nodiscard]] std::size_t undo_size() const { return undo_.size(); }

 private:
  struct Undo {
    InstSeq seq;       // the recording instruction
    LUsEntry previous;
    std::uint8_t logical;
  };

  std::array<LUsEntry, isa::kNumLogicalRegs> table_;
  std::deque<Undo> undo_;  // decode order
  InstSeq frontier_ = 0;   // newest committed seq; 0 before the first commit
};

}  // namespace erel::core

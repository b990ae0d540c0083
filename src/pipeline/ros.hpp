// Reorder Structure (ROS): a FIFO over all uncommitted instructions,
// addressed by monotone sequence number (paper §2: "a ROS address can be
// used as a unique instruction identifier"). The simulator follows
// SimpleScalar's RUU organization: ROS entries double as the issue window.
// The slot array is rounded up to a power of two so the seq -> slot map is
// a mask; occupancy is still bounded by the configured capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "core/types.hpp"
#include "isa/isa.hpp"

#include "branch/ras.hpp"

namespace erel::pipeline {

/// Execution status of one ROS entry.
enum class EntryState : std::uint8_t {
  Dispatched,  // renamed, waiting for operands / FU
  Issued,      // executing (or load waiting in the memory stage)
  Completed,   // result written back; eligible for commit
};

/// Which issue-scheduler structure currently tracks a Dispatched entry
/// (pipeline/scheduler.hpp; maintained by Core). Exactly one of the two
/// while Dispatched, None from issue onward.
enum class SchedResidence : std::uint8_t {
  None,    // not dispatched yet, or already issued
  Parked,  // on the wakeup list of one not-ready operand register
  Ready,   // in the explicit ready queue
};

struct RosEntry {
  core::InstSeq seq = core::kNoSeq;
  // Sequence numbers are reused after squashes (the ROS slot is seq %
  // capacity); the uid is globally unique and guards event-queue lookups
  // against aliasing with a squashed predecessor.
  std::uint64_t uid = 0;
  std::uint64_t pc = 0;
  isa::DecodedInst inst;
  core::RenameRec rec;
  EntryState state = EntryState::Dispatched;
  SchedResidence sched = SchedResidence::None;

  // Branch bookkeeping (conditional branches and indirect jumps).
  std::uint64_t predicted_target = 0;
  std::uint32_t ghr_checkpoint = 0;
  branch::Ras::Checkpoint ras_checkpoint;

  // Execution results, staged at issue and applied at writeback.
  std::uint64_t result = 0;
  bool has_result = false;
  bool actual_taken = false;
  std::uint64_t actual_target = 0;
  std::uint64_t dispatch_cycle = 0;
  std::uint64_t issue_cycle = 0;
  std::uint64_t complete_cycle = 0;

  // A committed fault (misaligned access / illegal opcode) aborts the run;
  // wrong-path faults are squashed harmlessly.
  bool fault = false;

  [[nodiscard]] bool is_cond_or_indirect() const {
    return inst.is_cond_branch() || inst.is_indirect_jump();
  }
};

class Ros {
 public:
  explicit Ros(unsigned capacity);

  [[nodiscard]] bool full() const { return tail_ - head_ >= capacity_; }
  [[nodiscard]] bool empty() const { return tail_ == head_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(tail_ - head_);
  }
  [[nodiscard]] unsigned capacity() const { return capacity_; }

  [[nodiscard]] core::InstSeq head_seq() const { return head_; }
  [[nodiscard]] core::InstSeq tail_seq() const { return tail_; }

  /// Appends a new entry and returns it (seq assigned by the caller must be
  /// the current tail sequence). Inline: push/at are the pipeline's densest
  /// call sites, and the pow2-rounded slot array turns the slot computation
  /// into a mask instead of a division by the configured capacity.
  RosEntry& push(core::InstSeq seq) {
    EREL_CHECK(!full(), "push into full ROS");
    EREL_CHECK(seq == tail_, "sequence discontinuity: ", seq, " vs ", tail_);
    RosEntry& entry = slots_[seq & mask_];
    entry = RosEntry{};
    entry.seq = seq;
    ++tail_;
    return entry;
  }

  /// Entry lookup; aborts if `seq` is not in [head, tail).
  RosEntry& at(core::InstSeq seq) {
    EREL_CHECK(contains(seq), "ROS access to retired/absent seq ", seq);
    RosEntry& entry = slots_[seq & mask_];
    EREL_CHECK(entry.seq == seq);
    return entry;
  }
  const RosEntry& at(core::InstSeq seq) const {
    EREL_CHECK(contains(seq), "ROS access to retired/absent seq ", seq);
    const RosEntry& entry = slots_[seq & mask_];
    EREL_CHECK(entry.seq == seq);
    return entry;
  }

  /// True if `seq` denotes an uncommitted, unsquashed instruction.
  [[nodiscard]] bool contains(core::InstSeq seq) const {
    return seq >= head_ && seq < tail_;
  }

  [[nodiscard]] RosEntry& head() { return at(head_); }

  /// Retires the oldest entry.
  void pop_head() {
    EREL_CHECK(!empty());
    ++head_;
  }

  /// Squashes every entry younger than `boundary` (exclusive); the caller
  /// first passes each of them to RenameUnit::on_squash_entry, youngest
  /// first, to undo its rename.
  void truncate_after(core::InstSeq boundary) {
    EREL_CHECK(boundary >= head_ - 1 && boundary < tail_);
    tail_ = boundary + 1;
  }

  /// Removes every entry (exception flush).
  void clear() { head_ = tail_; }

 private:
  unsigned capacity_;
  std::vector<RosEntry> slots_;  // pow2-rounded; uniqueness of seq & mask_
                                 // holds because the live window <= capacity
  std::uint64_t mask_ = 0;
  core::InstSeq head_ = 1;  // seq numbers start at 1 (0 = "before everything")
  core::InstSeq tail_ = 1;
};

}  // namespace erel::pipeline

// Architectural checkpoints: a complete snapshot of functional machine state
// (PC, logical registers, every dirty memory page) that a run can be resumed
// from. Checkpoints are what make sampled simulation work — the functional
// oracle fast-forwards between sampling intervals and the detailed pipeline
// is re-seeded from a checkpoint at each interval boundary. They live in
// memory only; nothing writes them to disk.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "isa/isa.hpp"

namespace erel::arch {

class ArchState;
class SparseMemory;

struct Checkpoint {
  /// One dirty (resident) page image; `base` is page-aligned.
  struct PageImage {
    std::uint64_t base = 0;
    std::vector<std::uint8_t> bytes;  // exactly SparseMemory::kPageBytes

    bool operator==(const PageImage&) const = default;
  };

  std::uint64_t pc = 0;
  std::uint64_t icount = 0;  // instructions executed before the checkpoint
  bool halted = false;
  std::array<std::uint64_t, isa::kNumLogicalRegs> int_regs{};
  std::array<std::uint64_t, isa::kNumLogicalRegs> fp_regs{};
  /// Device state words (dev::Machine::save): interrupt-controller, timer
  /// and console state are architectural — a run resumed mid-handler must
  /// deliver the same interrupts at the same boundaries as the full run.
  /// Empty means reset state.
  std::vector<std::uint64_t> dev;
  std::vector<PageImage> pages;  // sorted by base address

  bool operator==(const Checkpoint&) const = default;
};

/// Captures every resident page of `mem` into `out.pages` (sorted by base).
void capture_memory(const SparseMemory& mem, Checkpoint& out);

/// Replaces the contents of `mem` with the checkpoint's pages.
void restore_memory(const Checkpoint& ckpt, SparseMemory& mem);

/// Captures the full architectural state of `state`.
Checkpoint capture(const ArchState& state);

/// Restores `state` to the checkpoint (registers, memory, PC, icount).
void restore(const Checkpoint& ckpt, ArchState& state);

}  // namespace erel::arch

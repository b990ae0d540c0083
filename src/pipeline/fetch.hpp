// Instruction fetch: 8-wide, up to two fetch blocks (i.e. it can follow one
// taken branch per cycle, paper Table 2: "up to 2 taken branches"),
// predecoded predictions (gshare + BTB + RAS), I-cache latency modelled per
// line touched.
//
// With a DecodedProgram attached, in-image fetches read the pre-decoded
// micro-op record instead of re-decoding memory bytes; wrong-path fetches
// outside the image (and everything after the owning core observes a store
// into the image) take the byte-accurate path, so fetched instructions are
// identical either way.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/decoded_program.hpp"
#include "arch/memory.hpp"
#include "branch/btb.hpp"
#include "branch/gshare.hpp"
#include "branch/ras.hpp"
#include "isa/isa.hpp"
#include "mem/hierarchy.hpp"

namespace erel::pipeline {

/// One predecoded instruction flowing from fetch to dispatch.
struct FetchedInst {
  std::uint64_t pc = 0;
  isa::DecodedInst inst;
  bool predicted_taken = false;      // control only
  std::uint64_t predicted_target = 0;
  std::uint32_t ghr_checkpoint = 0;  // conditional branches
  branch::Ras::Checkpoint ras_checkpoint;  // cond + indirect
};

struct FetchConfig {
  unsigned width = 8;
  unsigned max_blocks_per_cycle = 2;
  unsigned buffer_capacity = 16;
};

class FetchUnit {
 public:
  FetchUnit(const FetchConfig& config, const arch::SparseMemory& memory,
            mem::MemoryHierarchy& hierarchy, branch::Gshare& gshare,
            branch::Btb& btb, branch::Ras& ras);

  void set_pc(std::uint64_t pc) { pc_ = pc; }

  /// Attaches/detaches the decode-once fast path (non-owning; the core
  /// detaches when a committed store dirties the code image).
  void set_decoded(const arch::DecodedProgram* decoded) { decoded_ = decoded; }

  /// Squash recovery: drops buffered instructions and restarts at `pc`.
  void redirect(std::uint64_t pc);

  /// Fetches up to width instructions into the buffer.
  void tick(std::uint64_t cycle);

  [[nodiscard]] bool buffer_empty() const { return buf_size_ == 0; }
  [[nodiscard]] const FetchedInst& front() const {
    return buffer_[buf_head_];
  }
  void pop_front() {
    buf_head_ = (buf_head_ + 1) & buf_mask_;
    --buf_size_;
  }

  [[nodiscard]] std::uint64_t icache_stall_cycles() const {
    return icache_stall_cycles_;
  }

 private:
  /// Predicts one control instruction and applies speculative predictor
  /// updates (GHR shift, RAS push/pop).
  void predict(FetchedInst& fi);

  FetchConfig config_;
  const arch::SparseMemory& memory_;
  mem::MemoryHierarchy& hierarchy_;
  branch::Gshare& gshare_;
  branch::Btb& btb_;
  branch::Ras& ras_;
  const arch::DecodedProgram* decoded_ = nullptr;

  /// Returns the next free ring slot, cleared; the caller fills it and
  /// commits with ++buf_size_ (fetch runs a few million times per simulated
  /// second, so the buffer is a fixed ring filled in place — no deque node
  /// machinery, no staging copy of FetchedInst).
  FetchedInst& next_slot() {
    FetchedInst& fi = buffer_[(buf_head_ + buf_size_) & buf_mask_];
    fi = FetchedInst{};
    return fi;
  }

  std::vector<FetchedInst> buffer_;  // pow2 ring of buffer_capacity slots
  std::uint32_t buf_head_ = 0;
  std::uint32_t buf_size_ = 0;
  std::uint32_t buf_mask_ = 0;
  std::uint64_t pc_ = 0;
  std::uint64_t icache_ready_cycle_ = 0;  // stalled on an I-cache miss until
  std::uint64_t current_line_ = ~std::uint64_t{0};
  bool halted_ = false;  // saw HALT; stop fetching until redirect
  std::uint64_t icache_stall_cycles_ = 0;
};

}  // namespace erel::pipeline

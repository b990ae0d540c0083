// Architectural (in-order, functional) simulator.
//
// This is the oracle the timing pipeline is checked against: it executes one
// instruction at a time with precise sequential semantics. It is also used
// standalone to validate workload checksums and to count dynamic
// instructions (Table 3 reproduction).
//
// Each MicroKind's semantics are written once (ArchState::exec); step() and
// run()'s threaded loop only choose which body runs next. When constructed
// with a DecodedProgram, both take the micro-op from the pre-decoded array
// (no byte fetch or re-decode) whenever the PC is inside the cached code
// image; otherwise step() runs DecodedProgram::make_op of the word in
// memory. Any store into the image flips the machine back to that
// byte-accurate path permanently, so results are bit-identical with or
// without the cache.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "arch/decoded_program.hpp"
#include "arch/memory.hpp"
#include "arch/program.hpp"
#include "dev/machine.hpp"
#include "isa/isa.hpp"

namespace erel::arch {

/// Outcome of one architectural step, rich enough for co-simulation: the
/// timing model's commit stage compares pc / destination / memory effects
/// against this record.
struct StepInfo {
  std::uint64_t pc = 0;
  std::uint64_t next_pc = 0;
  isa::DecodedInst inst;
  MicroKind kind = MicroKind::kIllegal;  // dispatch class of `inst`
  bool has_dst = false;
  isa::RegClass dst_class = isa::RegClass::None;
  std::uint8_t dst_reg = 0;
  std::uint64_t dst_value = 0;
  bool is_store = false;
  bool is_load = false;
  std::uint64_t mem_addr = 0;
  unsigned mem_bytes = 0;
  std::uint64_t store_value = 0;
  bool halted = false;
  bool illegal = false;  // committed an ILLEGAL opcode (a program bug)
};

class ArchState {
 public:
  /// Loads a program: copies code + data into memory and sets the PC.
  /// `decoded` (optional, non-owning, caller keeps it alive) enables the
  /// decode-once fast path; it must have been built from the same program.
  explicit ArchState(const Program& program,
                     const DecodedProgram* decoded = nullptr);

  /// Executes exactly one instruction. Returns the step record; after a HALT
  /// the state is frozen and further steps keep returning halted records.
  StepInfo step();

  /// Runs until HALT or `max_steps`; returns executed instruction count.
  ///
  /// While the PC stays inside a clean decoded image this executes a
  /// threaded-dispatch interpreter loop (computed goto) over the packed
  /// MicroOp array, running the same per-kind bodies as step() without
  /// recording a StepInfo; out-of-image PCs, self-modifying stores and the
  /// byte-accurate configuration fall back to step(). Architectural results
  /// are bit-identical either way.
  std::uint64_t run(std::uint64_t max_steps = ~0ull);

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] std::uint64_t pc() const { return pc_; }
  [[nodiscard]] std::uint64_t instructions_executed() const { return icount_; }

  /// True once a store has landed inside the decoded code image: the
  /// pre-decoded records no longer match memory, so this machine (and any
  /// checkpoint taken from it) must execute byte-accurately from here on.
  [[nodiscard]] bool code_dirtied() const { return code_dirty_; }

  /// Drops the decode cache: every further step is byte-accurate. Used by
  /// resume paths that restore memory behind this machine's back (the
  /// restored image may not match the static program the cache was built
  /// from — note_store cannot see such writes).
  void detach_decoded() { decoded_ = nullptr; }

  [[nodiscard]] std::uint64_t int_reg(unsigned idx) const;
  [[nodiscard]] std::uint64_t fp_reg(unsigned idx) const;
  void set_int_reg(unsigned idx, std::uint64_t value);
  void set_fp_reg(unsigned idx, std::uint64_t value);

  SparseMemory& memory() { return mem_; }
  const SparseMemory& memory() const { return mem_; }

  /// The memory-mapped device model (timer + console + interrupt
  /// controller). Loads/stores into its window route here instead of
  /// memory; pending interrupts are delivered at retirement boundaries
  /// (before the next instruction executes), identically on the
  /// byte-accurate, decoded and pipelined engines.
  dev::Machine& device() { return dev_; }
  const dev::Machine& device() const { return dev_; }

  /// Forces the PC (used by exception-replay tests).
  void set_pc(std::uint64_t pc) { pc_ = pc; }

  /// Checkpoint restore: rebases the instruction counter and halt flag
  /// (registers, memory and PC are restored through their own setters; see
  /// arch/checkpoint.hpp).
  void set_resume_point(std::uint64_t icount, bool halted) {
    icount_ = icount;
    halted_ = halted;
  }

 private:
  /// run()'s hot loop: threaded dispatch over decoded_->ops() starting at
  /// pc_, which the caller has verified is inside the clean decoded image.
  /// Executes until a body hands control back, the PC leaves the image, or
  /// `max_steps`; returns the number of instructions executed (>= 1).
  std::uint64_t run_decoded(std::uint64_t max_steps);

  /// The one body of micro-op kind K: executes `mop` at `pc` and advances
  /// `pc`. `retired` counts the instructions retired before this one (the
  /// device boundary of an MMIO access). With kRecord, the instruction's
  /// effects are also written to `info`. Returns true when run()'s threaded
  /// loop must hand control back: after an MMIO store, a code-dirtying
  /// store, IRET, HALT or ILLEGAL.
  template <MicroKind K, bool kRecord>
  bool exec(const MicroOp& mop, std::uint64_t& pc, std::uint64_t retired,
            StepInfo* info);

  /// Writes a destination register (a no-op unless mop.has_dst), recording
  /// it in `info` with kRecord.
  template <bool kRecord>
  void write_dst(const MicroOp& mop, isa::RegClass cls, std::uint64_t value,
                 StepInfo* info);

  /// step()'s dispatcher: counts the instruction and runs its kind's body.
  void step_op(const MicroOp& mop, StepInfo& info);

  [[nodiscard]] std::uint64_t src_value(isa::RegClass cls,
                                        unsigned idx) const {
    switch (cls) {
      case isa::RegClass::Int: return x_[idx];
      case isa::RegClass::Fp: return f_[idx];
      case isa::RegClass::None: return 0;
    }
    return 0;
  }

  /// Marks the decode cache stale when a store overlaps the code image.
  void note_store(std::uint64_t addr, unsigned size) {
    if (decoded_ != nullptr && decoded_->covers(addr, size))
      code_dirty_ = true;
  }

  std::array<std::uint64_t, isa::kNumLogicalRegs> x_{};  // x_[0] stays 0
  std::array<std::uint64_t, isa::kNumLogicalRegs> f_{};
  SparseMemory mem_;
  std::uint64_t pc_ = 0;
  std::uint64_t icount_ = 0;
  bool halted_ = false;
  const DecodedProgram* decoded_ = nullptr;  // non-owning
  bool code_dirty_ = false;
  dev::Machine dev_;
};

/// Loads `program` into `mem` (shared by ArchState and the timing simulator).
void load_program(const Program& program, SparseMemory& mem);

}  // namespace erel::arch

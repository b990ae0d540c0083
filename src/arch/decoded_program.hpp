// Decode-once program cache: the functional fast-path engine's static side.
//
// Every simulation mode — full pipeline runs, the commit-time oracle,
// sampled planning/warming passes and trace replay — ultimately executes the
// same static program image over and over. Decoding the 32-bit words on
// every dynamic execution (and fetching them through SparseMemory's page
// map) dominates the functional path, so a DecodedProgram pre-decodes the
// whole image exactly once into a flat array of MicroOp records indexed by
// PC. Executors then dispatch on a small `kind` enum over a packed record:
// no byte fetch, no OpInfo table walks, immediates and branch displacements
// already extended and scaled.
//
// The cache is immutable and position-keyed, so one instance is safely
// shared by any number of cores / oracles / threads (sampled measurement
// shards all read the same DecodedProgram). Self-modifying programs are
// handled by the executors, not here: any store into [code_base, code_end)
// flips them back to the byte-accurate decode path (see
// ArchState::code_dirtied and pipeline::Core), so semantics never depend on
// the cache being fresh.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/program.hpp"
#include "isa/isa.hpp"

namespace erel::arch {

/// Dispatch class of one micro-op: everything an executor switches on. The
/// flag-mask queries of isa::OpInfo collapse to this single enum.
enum class MicroKind : std::uint8_t {
  kAlu,           // plain integer/FP computation (exec_alu)
  kLoad,          // memory read into rd
  kStore,         // memory write of rs2
  kCondBranch,    // BEQ..BGEU
  kDirectJump,    // JAL
  kIndirectJump,  // JALR
  kHalt,
  kIllegal,
  kIret,          // interrupt return (redirects to the device EPC)
};

/// One pre-decoded instruction. `inst` is the exact isa::decode() result
/// (StepInfo and the pipeline carry it on); the remaining fields cache every
/// OpInfo-derived property the hot execution loop would otherwise look up
/// per dynamic instance.
struct MicroOp {
  isa::DecodedInst inst;
  MicroKind kind = MicroKind::kIllegal;
  isa::RegClass src1 = isa::RegClass::None;
  isa::RegClass src2 = isa::RegClass::None;
  isa::RegClass dst = isa::RegClass::None;
  std::uint8_t mem_bytes = 0;
  bool has_dst = false;    // isa::DecodedInst::has_dst() (rd==0 discards)
  bool sext32 = false;     // LW: sign-extend the loaded 32-bit value
  std::int64_t simm = 0;   // sign-extended immediate (bytes for mem ops)
  std::int64_t disp = 0;   // imm * 4: code displacement of branches/JAL
};

class DecodedProgram {
 public:
  explicit DecodedProgram(const Program& program);

  /// True when `pc` indexes a pre-decoded slot (inside the code image and
  /// 4-byte aligned). Wrong-path fetches outside the image fall back to the
  /// byte-accurate decode path.
  [[nodiscard]] bool contains(std::uint64_t pc) const {
    return (pc - code_base_) < code_bytes_ && (pc & 3) == 0;
  }

  [[nodiscard]] const MicroOp& at(std::uint64_t pc) const {
    return ops_[(pc - code_base_) >> 2];
  }

  [[nodiscard]] std::uint64_t code_base() const { return code_base_; }
  [[nodiscard]] std::uint64_t code_end() const {
    return code_base_ + code_bytes_;
  }

  /// True when a `size`-byte access at `addr` overlaps the cached code
  /// image — a store there makes the cache stale for the storing machine.
  /// Both endpoints are tested so a wide store straddling the image start
  /// (possible when code_base is not 8-byte aligned) is caught too.
  [[nodiscard]] bool covers(std::uint64_t addr, unsigned size = 1) const {
    return (addr - code_base_) < code_bytes_ ||
           (addr + size - 1 - code_base_) < code_bytes_;
  }

  [[nodiscard]] std::size_t size() const { return ops_.size(); }

  /// The packed record array (ops()[i] decodes code_base + 4*i). The
  /// threaded-dispatch interpreter loop indexes it directly instead of
  /// paying contains()/at() per instruction.
  [[nodiscard]] const MicroOp* ops() const { return ops_.data(); }

  /// Decodes and classifies one instruction word. ArchState's byte-accurate
  /// path calls it for every instruction it executes.
  static MicroOp make_op(std::uint32_t word);

  /// Dispatch class of an already-decoded instruction.
  static MicroKind kind_of(const isa::DecodedInst& inst);

 private:
  std::uint64_t code_base_ = 0;
  std::uint64_t code_bytes_ = 0;
  std::vector<MicroOp> ops_;
};

}  // namespace erel::arch

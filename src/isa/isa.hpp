// ISA definition for the erelsim target machine.
//
// The simulated ISA is a 64-bit RISC with 32 integer (r0..r31, r0 == 0) and
// 32 floating-point (f0..f31) logical registers — the L=32+32 configuration
// assumed throughout the paper. Instructions are 32 bits wide with four
// formats (R/I/U and the split-immediate B/S/J forms, see decode.cpp).
//
// A single OpInfo table describes every opcode (operand classes, immediate
// format, functional-unit class, latency, behavioural flags); the decoder,
// disassembler, assembler and execution semantics are all driven from it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace erel::isa {

/// Number of logical registers per class (the paper's L).
inline constexpr unsigned kNumLogicalRegs = 32;

/// Register class of an operand slot.
enum class RegClass : std::uint8_t { None, Int, Fp };

/// Functional-unit classes, matching the paper's Table 2 FU mix.
enum class FuClass : std::uint8_t {
  None,    // control-only ops that occupy no FU result slot (HALT)
  IntAlu,  // 8 units, latency 1
  IntMul,  // 4 units, latency 7 (int divide shares this unit at latency 12)
  FpAlu,   // 6 units, latency 4 ("simple FP")
  FpMul,   // 4 units, latency 4
  FpDiv,   // 4 units, latency 16, unpipelined
  LdSt,    // 4 load/store ports; latency comes from the cache model
};
inline constexpr unsigned kNumFuClasses = 7;

/// Instruction encoding formats.
enum class Format : std::uint8_t {
  R,  // op rd, rs1, rs2
  I,  // op rd, rs1, imm14      (also loads: op rd, imm14(rs1); JALR)
  U,  // op rd, imm19           (LUI)
  B,  // op rs1, rs2, imm14     (conditional branches; imm in instructions)
  S,  // op rs2, imm14(rs1)     (stores; imm in bytes)
  J,  // op rd, imm19           (JAL; imm in instructions)
  N,  // op                     (no operands: HALT, ILLEGAL)
};

enum class Opcode : std::uint8_t {
  ILLEGAL = 0,  // opcode 0 so that zero-filled memory decodes as illegal
  // Integer ALU, latency 1.
  ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
  ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI, SLTIU, LUI,
  // Integer multiply/divide (IntMul unit).
  MUL, DIV, REM,
  // FP simple (FpAlu unit).
  FADD, FSUB, FMIN, FMAX, FABS, FNEG, FMOV,
  FEQ, FLT, FLE,      // FP compare, integer destination
  CVTDI,              // int -> double   (fp dest, int src1)
  CVTID,              // double -> int   (int dest, fp src1), truncating
  // FP multiply / divide.
  FMUL, FDIV, FSQRT,
  // Memory.
  LD, LW, LBU,        // int loads: 64-bit, 32-bit sign-extended, byte zero-ext
  SD, SW, SB,         // int stores
  FLD, FSD,           // FP 64-bit load/store
  // Control.
  BEQ, BNE, BLT, BGE, BLTU, BGEU,
  JAL, JALR,
  HALT,
  IRET,  // return from interrupt: resume at the device EPC, restore enable
  kCount,
};
inline constexpr unsigned kNumOpcodes = static_cast<unsigned>(Opcode::kCount);

/// Behavioural flags (bitmask).
enum : std::uint32_t {
  kFlagLoad = 1u << 0,
  kFlagStore = 1u << 1,
  kFlagCondBranch = 1u << 2,
  kFlagDirectJump = 1u << 3,   // JAL: target known at decode
  kFlagIndirectJump = 1u << 4, // JALR: target known at execute
  kFlagHalt = 1u << 5,
  kFlagCall = 1u << 6,         // pushes return address (JAL/JALR with rd=ra)
  kFlagIret = 1u << 7,         // interrupt return (serializing, redirects pc)
};

/// Static description of one opcode.
struct OpInfo {
  std::string_view mnemonic;
  Format format;
  FuClass fu;
  std::uint8_t latency;      // execution latency in cycles (LdSt: address calc)
  RegClass dst;              // class of rd (None if no destination)
  RegClass src1;             // class of rs1
  RegClass src2;             // class of rs2
  std::uint32_t flags;
  std::uint8_t mem_bytes;    // access size for loads/stores, else 0
};

namespace detail {
/// Static opcode descriptor table (built in isa.cpp).
extern const std::array<OpInfo, kNumOpcodes> kOpTable;
}  // namespace detail

/// Table lookup. Inline: the flag/class/latency helpers below sit on every
/// hot path of both engines (tens of queries per simulated instruction), so
/// each must collapse to a load+mask rather than a function call. Bounds are
/// the caller's contract; decode() never produces an out-of-range opcode.
inline const OpInfo& op_info(Opcode op) {
  return detail::kOpTable[static_cast<unsigned>(op)];
}

/// Decoded instruction: architectural fields only (no microarchitectural
/// state). `imm` is already sign/zero-extended per the opcode's convention.
struct DecodedInst {
  Opcode op = Opcode::ILLEGAL;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;

  [[nodiscard]] const OpInfo& info() const { return op_info(op); }
  [[nodiscard]] RegClass dst_class() const { return info().dst; }
  [[nodiscard]] RegClass src1_class() const { return info().src1; }
  [[nodiscard]] RegClass src2_class() const { return info().src2; }
  [[nodiscard]] bool has_dst() const {
    // Writes to integer r0 are architecturally discarded; they allocate no
    // rename register (the assembler only emits rd=0 for genuine discards).
    return info().dst != RegClass::None &&
           !(info().dst == RegClass::Int && rd == 0);
  }
  [[nodiscard]] bool is_load() const { return info().flags & kFlagLoad; }
  [[nodiscard]] bool is_store() const { return info().flags & kFlagStore; }
  [[nodiscard]] bool is_mem() const { return is_load() || is_store(); }
  [[nodiscard]] bool is_cond_branch() const {
    return info().flags & kFlagCondBranch;
  }
  [[nodiscard]] bool is_direct_jump() const {
    return info().flags & kFlagDirectJump;
  }
  [[nodiscard]] bool is_indirect_jump() const {
    return info().flags & kFlagIndirectJump;
  }
  /// Any control-transfer instruction.
  [[nodiscard]] bool is_control() const {
    return is_cond_branch() || is_direct_jump() || is_indirect_jump();
  }
  [[nodiscard]] bool is_halt() const { return info().flags & kFlagHalt; }
  [[nodiscard]] bool is_iret() const { return info().flags & kFlagIret; }
  /// The return-address-stack convention, shared by fetch prediction and
  /// sampled warming: a jump that links in ra (rd == 1) is a call; an
  /// indirect jump through ra that discards its link (rd == 0, rs1 == 1)
  /// is a return.
  [[nodiscard]] bool is_call() const {
    return (info().flags & kFlagCall) && rd == 1;
  }
  [[nodiscard]] bool is_return() const {
    return is_indirect_jump() && rd == 0 && rs1 == 1;
  }
  [[nodiscard]] unsigned mem_bytes() const { return info().mem_bytes; }
};

/// Encodes a decoded instruction into its 32-bit machine form. Immediates
/// out of field range abort (the assembler range-checks beforehand).
std::uint32_t encode(const DecodedInst& inst);

/// Decodes a 32-bit word. Unknown opcodes decode as ILLEGAL (which raises a
/// fault only if the instruction commits — wrong-path garbage is harmless).
DecodedInst decode(std::uint32_t word);

/// Parses a mnemonic; nullopt when unknown.
std::optional<Opcode> opcode_from_mnemonic(std::string_view mnemonic);

/// Renders one instruction as assembly text (PC needed for branch targets).
std::string disassemble(const DecodedInst& inst, std::uint64_t pc);

/// Immediate field widths (bits) per format, exposed for the assembler's
/// range diagnostics and for encoding tests.
inline constexpr unsigned kImmBitsI = 14;
inline constexpr unsigned kImmBitsB = 14;  // instruction-granular offset
inline constexpr unsigned kImmBitsS = 14;  // byte-granular offset
inline constexpr unsigned kImmBitsU = 19;
inline constexpr unsigned kImmBitsJ = 19;  // instruction-granular offset

}  // namespace erel::isa

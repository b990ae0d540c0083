// ISA encoding round-trips (parameterized over every opcode) and execution
// semantics edge cases.
#include <gtest/gtest.h>

#include <limits>

#include "common/bits.hpp"
#include "isa/isa.hpp"
#include "isa/semantics.hpp"

namespace erel::isa {
namespace {

std::vector<Opcode> all_real_opcodes() {
  std::vector<Opcode> ops;
  for (unsigned i = 1; i < kNumOpcodes; ++i) ops.push_back(static_cast<Opcode>(i));
  return ops;
}

class EncodingRoundTrip : public testing::TestWithParam<Opcode> {};

TEST_P(EncodingRoundTrip, FieldsSurviveEncodeDecode) {
  const Opcode op = GetParam();
  const OpInfo& info = op_info(op);
  DecodedInst inst;
  inst.op = op;
  // Use distinct register numbers / a nontrivial immediate so swapped fields
  // are detected.
  switch (info.format) {
    case Format::R:
      inst.rd = 3;
      inst.rs1 = 17;
      inst.rs2 = 29;
      break;
    case Format::I:
      inst.rd = 5;
      inst.rs1 = 11;
      inst.imm = -1234;
      break;
    case Format::U:
    case Format::J:
      inst.rd = 7;
      inst.imm = -100000;
      break;
    case Format::B:
    case Format::S:
      inst.rs1 = 9;
      inst.rs2 = 23;
      inst.imm = -4321;
      break;
    case Format::N:
      break;
  }
  const DecodedInst out = decode(encode(inst));
  EXPECT_EQ(out.op, inst.op);
  EXPECT_EQ(out.rd, inst.rd);
  EXPECT_EQ(out.rs1, inst.rs1);
  EXPECT_EQ(out.rs2, inst.rs2);
  EXPECT_EQ(out.imm, inst.imm);
}

TEST_P(EncodingRoundTrip, DisassembleProducesMnemonic) {
  DecodedInst inst;
  inst.op = GetParam();
  const std::string text = disassemble(inst, 0x10000);
  EXPECT_EQ(text.rfind(std::string(op_info(GetParam()).mnemonic), 0), 0u)
      << text;
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, EncodingRoundTrip,
                         testing::ValuesIn(all_real_opcodes()),
                         [](const testing::TestParamInfo<Opcode>& info) {
                           return std::string(op_info(info.param).mnemonic);
                         });

TEST(Encoding, ImmediateExtremes) {
  DecodedInst inst;
  inst.op = Opcode::ADDI;
  for (const std::int32_t imm : {8191, -8192, 0, 1, -1}) {
    inst.imm = imm;
    EXPECT_EQ(decode(encode(inst)).imm, imm);
  }
  inst.op = Opcode::JAL;
  for (const std::int32_t imm : {262143, -262144}) {
    inst.imm = imm;
    EXPECT_EQ(decode(encode(inst)).imm, imm);
  }
}

TEST(Encoding, ZeroWordDecodesIllegal) {
  EXPECT_EQ(decode(0).op, Opcode::ILLEGAL);
}

TEST(Encoding, UnknownOpcodeFieldDecodesIllegal) {
  EXPECT_EQ(decode(0xFFu << 24).op, Opcode::ILLEGAL);
}

TEST(OpTable, OperandClassesAreConsistent) {
  for (const Opcode op : all_real_opcodes()) {
    const OpInfo& info = op_info(op);
    DecodedInst inst;
    inst.op = op;
    if (info.flags & kFlagStore) {
      EXPECT_EQ(info.dst, RegClass::None) << info.mnemonic;
      EXPECT_EQ(info.src1, RegClass::Int) << info.mnemonic;  // base
      EXPECT_NE(info.src2, RegClass::None) << info.mnemonic;  // data
      EXPECT_GT(info.mem_bytes, 0u) << info.mnemonic;
    }
    if (info.flags & kFlagLoad) {
      EXPECT_NE(info.dst, RegClass::None) << info.mnemonic;
      EXPECT_EQ(info.src1, RegClass::Int) << info.mnemonic;
      EXPECT_GT(info.mem_bytes, 0u) << info.mnemonic;
    }
    if (info.flags & kFlagCondBranch) {
      EXPECT_EQ(info.dst, RegClass::None) << info.mnemonic;
    }
  }
}

TEST(Semantics, IntegerAluBasics) {
  EXPECT_EQ(exec_alu(Opcode::ADD, 2, 3, 0), 5u);
  EXPECT_EQ(exec_alu(Opcode::SUB, 2, 3, 0), static_cast<std::uint64_t>(-1));
  EXPECT_EQ(exec_alu(Opcode::AND, 0xF0, 0x3C, 0), 0x30u);
  EXPECT_EQ(exec_alu(Opcode::OR, 0xF0, 0x0F, 0), 0xFFu);
  EXPECT_EQ(exec_alu(Opcode::XOR, 0xFF, 0x0F, 0), 0xF0u);
  EXPECT_EQ(exec_alu(Opcode::SLT, static_cast<std::uint64_t>(-1), 0, 0), 1u);
  EXPECT_EQ(exec_alu(Opcode::SLTU, static_cast<std::uint64_t>(-1), 0, 0), 0u);
}

TEST(Semantics, ShiftsMaskTheirAmount) {
  EXPECT_EQ(exec_alu(Opcode::SLL, 1, 64, 0), 1u);  // 64 & 63 == 0
  EXPECT_EQ(exec_alu(Opcode::SLL, 1, 65, 0), 2u);
  EXPECT_EQ(exec_alu(Opcode::SRA, static_cast<std::uint64_t>(-8), 1, 0),
            static_cast<std::uint64_t>(-4));
  EXPECT_EQ(exec_alu(Opcode::SRL, static_cast<std::uint64_t>(-1), 63, 0), 1u);
  EXPECT_EQ(exec_alu(Opcode::SRAI, static_cast<std::uint64_t>(-1), 0, 63),
            static_cast<std::uint64_t>(-1));
}

TEST(Semantics, LogicalImmediatesZeroExtend) {
  // ORI with a positive 13-bit value must not smear sign bits.
  EXPECT_EQ(exec_alu(Opcode::ORI, 0, 0, 0x1FFF), 0x1FFFu);
  EXPECT_EQ(exec_alu(Opcode::ANDI, ~0ull, 0, 0x1FFF), 0x1FFFu);
  // ADDI sign-extends.
  EXPECT_EQ(exec_alu(Opcode::ADDI, 10, 0, -3), 7u);
}

TEST(Semantics, DivisionEdgeCases) {
  const auto min64 =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(exec_alu(Opcode::DIV, 7, 0, 0), static_cast<std::uint64_t>(-1));
  EXPECT_EQ(exec_alu(Opcode::REM, 7, 0, 0), 7u);
  EXPECT_EQ(exec_alu(Opcode::DIV, min64, static_cast<std::uint64_t>(-1), 0),
            min64);
  EXPECT_EQ(exec_alu(Opcode::REM, min64, static_cast<std::uint64_t>(-1), 0),
            0u);
  EXPECT_EQ(exec_alu(Opcode::DIV, static_cast<std::uint64_t>(-7), 2, 0),
            static_cast<std::uint64_t>(-3));
}

TEST(Semantics, FpArithmetic) {
  EXPECT_EQ(u2f(exec_alu(Opcode::FADD, f2u(1.5), f2u(2.25), 0)), 3.75);
  EXPECT_EQ(u2f(exec_alu(Opcode::FMUL, f2u(3.0), f2u(-2.0), 0)), -6.0);
  EXPECT_EQ(u2f(exec_alu(Opcode::FDIV, f2u(1.0), f2u(4.0), 0)), 0.25);
  EXPECT_EQ(u2f(exec_alu(Opcode::FSQRT, f2u(9.0), 0, 0)), 3.0);
  EXPECT_EQ(u2f(exec_alu(Opcode::FABS, f2u(-2.5), 0, 0)), 2.5);
  EXPECT_EQ(u2f(exec_alu(Opcode::FNEG, f2u(2.5), 0, 0)), -2.5);
  EXPECT_EQ(u2f(exec_alu(Opcode::FMIN, f2u(2.0), f2u(-3.0), 0)), -3.0);
  EXPECT_EQ(u2f(exec_alu(Opcode::FMAX, f2u(2.0), f2u(-3.0), 0)), 2.0);
}

TEST(Semantics, FpSpecialValuesAreDeterministic) {
  const std::uint64_t nan1 = exec_alu(Opcode::FSQRT, f2u(-1.0), 0, 0);
  const std::uint64_t nan2 =
      exec_alu(Opcode::FDIV, f2u(0.0), f2u(0.0), 0);
  EXPECT_EQ(nan1, 0x7ff8000000000000ull);
  EXPECT_EQ(nan2, 0x7ff8000000000000ull);
  // Division by zero yields infinity (bit-exact).
  EXPECT_EQ(u2f(exec_alu(Opcode::FDIV, f2u(1.0), f2u(0.0), 0)),
            std::numeric_limits<double>::infinity());
}

TEST(Semantics, FpComparesTreatNanAsFalse) {
  const std::uint64_t nan = 0x7ff8000000000000ull;
  EXPECT_EQ(exec_alu(Opcode::FEQ, nan, nan, 0), 0u);
  EXPECT_EQ(exec_alu(Opcode::FLT, nan, f2u(1.0), 0), 0u);
  EXPECT_EQ(exec_alu(Opcode::FLE, f2u(1.0), nan, 0), 0u);
  EXPECT_EQ(exec_alu(Opcode::FLE, f2u(1.0), f2u(1.0), 0), 1u);
}

TEST(Semantics, Conversions) {
  EXPECT_EQ(u2f(exec_alu(Opcode::CVTDI, static_cast<std::uint64_t>(-7), 0, 0)),
            -7.0);
  EXPECT_EQ(exec_alu(Opcode::CVTID, f2u(-7.9), 0, 0),
            static_cast<std::uint64_t>(-7));  // truncation toward zero
  EXPECT_EQ(exec_alu(Opcode::CVTID, 0x7ff8000000000000ull, 0, 0), 0u);  // NaN
  EXPECT_EQ(exec_alu(Opcode::CVTID, f2u(1e300), 0, 0),
            static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()));
}

TEST(Semantics, BranchConditions) {
  EXPECT_TRUE(branch_taken(Opcode::BEQ, 5, 5));
  EXPECT_FALSE(branch_taken(Opcode::BNE, 5, 5));
  EXPECT_TRUE(branch_taken(Opcode::BLT, static_cast<std::uint64_t>(-1), 0));
  EXPECT_FALSE(branch_taken(Opcode::BLTU, static_cast<std::uint64_t>(-1), 0));
  EXPECT_TRUE(branch_taken(Opcode::BGEU, static_cast<std::uint64_t>(-1), 0));
  EXPECT_TRUE(branch_taken(Opcode::BGE, 3, 3));
}

TEST(Semantics, LuiShiftsBy13) {
  EXPECT_EQ(exec_alu(Opcode::LUI, 0, 0, 1), 0x2000u);
  EXPECT_EQ(exec_alu(Opcode::LUI, 0, 0, -1),
            static_cast<std::uint64_t>(-8192));
}

TEST(DecodedInst, R0DestinationIsDiscarded) {
  DecodedInst inst;
  inst.op = Opcode::ADDI;
  inst.rd = 0;
  EXPECT_FALSE(inst.has_dst());
  inst.rd = 1;
  EXPECT_TRUE(inst.has_dst());
  // FP f0 is a real register.
  inst.op = Opcode::FADD;
  inst.rd = 0;
  EXPECT_TRUE(inst.has_dst());
}

TEST(DecodedInst, CallReturnConvention) {
  const auto make = [](Opcode op, unsigned rd, unsigned rs1) {
    DecodedInst inst;
    inst.op = op;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.rs1 = static_cast<std::uint8_t>(rs1);
    return inst;
  };
  EXPECT_TRUE(make(Opcode::JAL, 1, 0).is_call());
  EXPECT_TRUE(make(Opcode::JALR, 1, 5).is_call());
  EXPECT_FALSE(make(Opcode::JAL, 0, 0).is_call());
  EXPECT_FALSE(make(Opcode::ADDI, 1, 0).is_call());  // not a jump
  EXPECT_TRUE(make(Opcode::JALR, 0, 1).is_return());
  EXPECT_FALSE(make(Opcode::JALR, 0, 5).is_return());  // not through ra
  EXPECT_FALSE(make(Opcode::JALR, 1, 1).is_return());  // links: a call
  EXPECT_FALSE(make(Opcode::JAL, 0, 1).is_return());   // direct jump
}

}  // namespace
}  // namespace erel::isa

#include "arch/arch_state.hpp"

#include <cstring>
#include <iterator>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "isa/semantics.hpp"

// run()'s threaded dispatch jumps through a table of label addresses
// (computed goto), which gives the branch predictor one indirect-branch site
// per *predecessor* op instead of one shared switch dispatch. It is a GNU
// extension that GCC and Clang provide.
#if !defined(__GNUC__) && !defined(__clang__)
#error "arch_state.cpp needs GCC or Clang: run() uses computed goto"
#endif

// Every MicroKind in enum order: the threaded loop's label table is indexed
// by kind, and step()'s switch has one case per kind.
#define EREL_MICRO_KINDS(X)                                    \
  X(kAlu) X(kLoad) X(kStore) X(kCondBranch) X(kDirectJump)     \
  X(kIndirectJump) X(kHalt) X(kIllegal) X(kIret)

namespace erel::arch {

namespace {
constexpr MicroKind kKindOrder[] = {
#define EREL_KIND(k) MicroKind::k,
    EREL_MICRO_KINDS(EREL_KIND)
#undef EREL_KIND
};
constexpr bool in_enum_order() {
  for (unsigned i = 0; i < std::size(kKindOrder); ++i)
    if (static_cast<unsigned>(kKindOrder[i]) != i) return false;
  return std::size(kKindOrder) == static_cast<unsigned>(MicroKind::kIret) + 1;
}
static_assert(in_enum_order(), "EREL_MICRO_KINDS must list MicroKind in order");
}  // namespace

using isa::RegClass;

void load_program(const Program& program, SparseMemory& mem) {
  std::vector<std::uint8_t> code_bytes(program.code.size() * 4);
  for (std::size_t i = 0; i < program.code.size(); ++i)
    std::memcpy(code_bytes.data() + 4 * i, &program.code[i], 4);
  mem.write_block(program.code_base, code_bytes);
  for (const DataSegment& seg : program.data) mem.write_block(seg.base, seg.bytes);
}

ArchState::ArchState(const Program& program, const DecodedProgram* decoded)
    : pc_(program.entry), decoded_(decoded) {
  load_program(program, mem_);
}

std::uint64_t ArchState::int_reg(unsigned idx) const {
  EREL_CHECK(idx < isa::kNumLogicalRegs);
  return x_[idx];
}

std::uint64_t ArchState::fp_reg(unsigned idx) const {
  EREL_CHECK(idx < isa::kNumLogicalRegs);
  return f_[idx];
}

void ArchState::set_int_reg(unsigned idx, std::uint64_t value) {
  EREL_CHECK(idx < isa::kNumLogicalRegs);
  if (idx != 0) x_[idx] = value;
}

void ArchState::set_fp_reg(unsigned idx, std::uint64_t value) {
  EREL_CHECK(idx < isa::kNumLogicalRegs);
  f_[idx] = value;
}

template <bool kRecord>
[[gnu::always_inline]] inline void ArchState::write_dst(const MicroOp& mop,
                                                        RegClass cls,
                                                        std::uint64_t value,
                                                        StepInfo* info) {
  if constexpr (kRecord) {
    info->has_dst = mop.has_dst;
    info->dst_class = cls;
    info->dst_reg = mop.inst.rd;
    info->dst_value = value;
  }
  // has_dst is already false for integer rd == 0, so x_[0] stays 0.
  if (mop.has_dst) {
    if (cls == RegClass::Int) x_[mop.inst.rd] = value;
    else f_[mop.inst.rd] = value;
  }
}

template <MicroKind K, bool kRecord>
[[gnu::always_inline]] inline bool ArchState::exec(const MicroOp& mop,
                                                   std::uint64_t& pc,
                                                   std::uint64_t retired,
                                                   StepInfo* info) {
  if constexpr (K == MicroKind::kAlu) {
    const std::uint64_t a = src_value(mop.src1, mop.inst.rs1);
    const std::uint64_t b = src_value(mop.src2, mop.inst.rs2);
    write_dst<kRecord>(mop, mop.dst,
                       isa::exec_alu(mop.inst.op, a, b, mop.inst.imm), info);
    pc += 4;
    return false;
  } else if constexpr (K == MicroKind::kLoad) {
    const std::uint64_t addr = src_value(mop.src1, mop.inst.rs1) +
                               static_cast<std::uint64_t>(mop.simm);
    // Device reads are pure and never change deliverability mid-window (the
    // run() budget already stops at the next timer/RX deadline), so the
    // threaded loop continues past them.
    std::uint64_t value = dev::Machine::is_mmio(addr)
                              ? dev_.read(addr, mop.mem_bytes, retired)
                              : mem_.read(addr, mop.mem_bytes);
    if (mop.sext32) value = static_cast<std::uint64_t>(sext(value, 32));
    if constexpr (kRecord) {
      info->is_load = true;
      info->mem_addr = addr;
      info->mem_bytes = mop.mem_bytes;
    }
    write_dst<kRecord>(mop, mop.dst, value, info);
    pc += 4;
    return false;
  } else if constexpr (K == MicroKind::kStore) {
    const std::uint64_t addr = src_value(mop.src1, mop.inst.rs1) +
                               static_cast<std::uint64_t>(mop.simm);
    const std::uint64_t value = src_value(mop.src2, mop.inst.rs2);
    if constexpr (kRecord) {
      info->is_store = true;
      info->mem_addr = addr;
      info->mem_bytes = mop.mem_bytes;
      info->store_value = value;
    }
    pc += 4;
    if (dev::Machine::is_mmio(addr)) {
      // A device write can arm timers or re-enable delivery: run()
      // re-evaluates its deadline budget and the pending lines.
      dev_.write(addr, value, mop.mem_bytes, retired);
      return true;
    }
    note_store(addr, mop.mem_bytes);
    mem_.write(addr, value, mop.mem_bytes);
    // A store into the code image finishes architecturally; further
    // fetches re-decode from memory.
    return code_dirty_;
  } else if constexpr (K == MicroKind::kCondBranch) {
    const std::uint64_t a = src_value(mop.src1, mop.inst.rs1);
    const std::uint64_t b = src_value(mop.src2, mop.inst.rs2);
    pc += isa::branch_taken(mop.inst.op, a, b)
              ? static_cast<std::uint64_t>(mop.disp)
              : 4;
    return false;
  } else if constexpr (K == MicroKind::kDirectJump) {
    write_dst<kRecord>(mop, RegClass::Int, pc + 4, info);
    pc += static_cast<std::uint64_t>(mop.disp);
    return false;
  } else if constexpr (K == MicroKind::kIndirectJump) {
    // Target read before the link write in case rd == rs1.
    const std::uint64_t target = (src_value(mop.src1, mop.inst.rs1) +
                                  static_cast<std::uint64_t>(mop.simm)) &
                                 ~std::uint64_t{3};
    write_dst<kRecord>(mop, RegClass::Int, pc + 4, info);
    pc = target;
    return false;
  } else if constexpr (K == MicroKind::kHalt || K == MicroKind::kIllegal) {
    // The PC stays on the halting instruction, which counts as executed.
    halted_ = true;
    if constexpr (kRecord) {
      info->halted = true;
      info->illegal = K == MicroKind::kIllegal;
    }
    return true;
  } else {
    static_assert(K == MicroKind::kIret);
    // Returning from the handler restores the master enable: run() delivers
    // any interrupt latched meanwhile before the resumed instruction.
    pc = dev_.iret();
    return true;
  }
}

StepInfo ArchState::step() {
  StepInfo info;
  if (halted_) {
    info.pc = pc_;
    info.halted = true;
    info.next_pc = pc_;
    info.kind = MicroKind::kHalt;
    return info;
  }
  // Retirement-boundary interrupt delivery: icount_ instructions have
  // retired, the one about to execute has not. The pipeline's commit stage
  // performs the same check at the same boundary (head of the ROS), so both
  // engines redirect to the handler before the same instruction.
  if (!dev_.quiet()) {
    dev_.sync(icount_);
    if (dev_.deliverable()) pc_ = dev_.deliver(pc_);
  }
  info.pc = pc_;
  if (decoded_ != nullptr && !code_dirty_ && decoded_->contains(pc_)) {
    step_op(decoded_->at(pc_), info);
  } else {
    // Byte-accurate path: decode the word in memory now, same semantics.
    step_op(DecodedProgram::make_op(mem_.read_u32(pc_)), info);
  }
  return info;
}

void ArchState::step_op(const MicroOp& mop, StepInfo& info) {
  info.inst = mop.inst;
  info.kind = mop.kind;
  const std::uint64_t retired = icount_++;
  switch (mop.kind) {
#define EREL_CASE(k)                                  \
  case MicroKind::k:                                  \
    exec<MicroKind::k, true>(mop, pc_, retired, &info); \
    break;
    EREL_MICRO_KINDS(EREL_CASE)
#undef EREL_CASE
  }
  info.next_pc = pc_;
}

std::uint64_t ArchState::run_decoded(std::uint64_t max_steps) {
  const MicroOp* const ops = decoded_->ops();
  const std::uint64_t base = decoded_->code_base();
  const std::uint64_t bytes = decoded_->code_end() - base;
  std::uint64_t pc = pc_;
  std::uint64_t executed = 0;
  const MicroOp* mop = nullptr;

  // EREL_DISPATCH fetches the next micro-op and jumps to its kind's label;
  // it falls out to `done` when the step budget is exhausted or the PC
  // leaves the image (wrong-path targets, returns past code_end). Entry PC
  // alignment is the caller's contains() check; every body preserves it
  // (+4, disp = imm*4, indirect targets masked to ~3). Each label runs its
  // kind's body and leaves when the body hands control back.
  static const void* const kDispatch[] = {
#define EREL_LABEL(k) &&lbl_##k,
      EREL_MICRO_KINDS(EREL_LABEL)
#undef EREL_LABEL
  };
#define EREL_DISPATCH()                                    \
  {                                                        \
    if (executed == max_steps) goto done;                  \
    const std::uint64_t off = pc - base;                   \
    if (off >= bytes) goto done;                           \
    mop = ops + (off >> 2);                                \
    ++executed;                                            \
    goto* kDispatch[static_cast<unsigned>(mop->kind)];     \
  }
#define EREL_BODY(k)                                                    \
  lbl_##k:                                                              \
  if (exec<MicroKind::k, false>(*mop, pc, icount_ + executed - 1,       \
                                nullptr))                               \
    goto done;                                                          \
  EREL_DISPATCH()

  EREL_DISPATCH()
  EREL_MICRO_KINDS(EREL_BODY)
#undef EREL_BODY
#undef EREL_DISPATCH

done:
  pc_ = pc;
  icount_ += executed;
  return executed;
}

#undef EREL_MICRO_KINDS

std::uint64_t ArchState::run(std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (!halted_ && steps < max_steps) {
    std::uint64_t budget = max_steps - steps;
    if (!dev_.quiet()) {
      // Deliver at this retirement boundary, then cap the uninterrupted
      // dispatch window at the next timer/RX deadline: after sync() every
      // armed deadline is strictly in the future, so the budget stays >= 1
      // and the loop re-checks delivery exactly when an event can fire.
      dev_.sync(icount_);
      if (dev_.deliverable()) pc_ = dev_.deliver(pc_);
      const std::uint64_t next = dev_.next_event();
      if (next != ~std::uint64_t{0} && next - icount_ < budget)
        budget = next - icount_;
    }
    if (decoded_ != nullptr && !code_dirty_ && decoded_->contains(pc_)) {
      steps += run_decoded(budget);
    } else {
      step();
      ++steps;
    }
  }
  return steps;
}

}  // namespace erel::arch

#include "arch/arch_state.hpp"

#include <cstring>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "isa/semantics.hpp"

// Threaded dispatch for the run() interpreter loop: on GCC/Clang each
// micro-op body jumps through a computed-goto label table, giving the branch
// predictor one indirect-branch site per *successor* op instead of a single
// shared switch dispatch. Define EREL_NO_COMPUTED_GOTO to force the portable
// switch loop (also the path non-GNU compilers take).
#if !defined(EREL_NO_COMPUTED_GOTO) && (defined(__GNUC__) || defined(__clang__))
#define EREL_COMPUTED_GOTO 1
#else
#define EREL_COMPUTED_GOTO 0
#endif

namespace erel::arch {

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
    step_decoded(decoded_->at(pc_), info);
  } else {
    // Byte-accurate path: decode the word in memory now, same semantics.
    step_decoded(DecodedProgram::make_op(mem_.read_u32(pc_)), info);
  }
  return info;
}

void ArchState::step_decoded(const MicroOp& mop, StepInfo& info) {
  info.inst = mop.inst;
  info.kind = mop.kind;
  ++icount_;

  const std::uint64_t a = src_value(mop.src1, mop.inst.rs1);
  const std::uint64_t b = src_value(mop.src2, mop.inst.rs2);
  std::uint64_t next_pc = pc_ + 4;

  switch (mop.kind) {
    case MicroKind::kIllegal:
      info.illegal = true;
      info.halted = true;
      halted_ = true;
      info.next_pc = pc_;
      return;
    case MicroKind::kHalt:
      halted_ = true;
      info.halted = true;
      info.next_pc = pc_;
      return;
    case MicroKind::kIret:
      next_pc = dev_.iret();
      break;
    case MicroKind::kLoad: {
      const std::uint64_t addr = a + static_cast<std::uint64_t>(mop.simm);
      // MMIO accesses pass the retirement boundary (icount_ was already
      // incremented for this instruction, hence the -1).
      std::uint64_t value = dev::Machine::is_mmio(addr)
                                ? dev_.read(addr, mop.mem_bytes, icount_ - 1)
                                : mem_.read(addr, mop.mem_bytes);
      if (mop.sext32) value = static_cast<std::uint64_t>(sext(value, 32));
      info.is_load = true;
      info.mem_addr = addr;
      info.mem_bytes = mop.mem_bytes;
      info.has_dst = mop.has_dst;
      info.dst_class = mop.dst;
      info.dst_reg = mop.inst.rd;
      info.dst_value = value;
      if (mop.has_dst) {
        if (mop.dst == RegClass::Int) set_int_reg(mop.inst.rd, value);
        else set_fp_reg(mop.inst.rd, value);
      }
      break;
    }
    case MicroKind::kStore: {
      const std::uint64_t addr = a + static_cast<std::uint64_t>(mop.simm);
      info.is_store = true;
      info.mem_addr = addr;
      info.mem_bytes = mop.mem_bytes;
      info.store_value = b;
      if (dev::Machine::is_mmio(addr)) {
        dev_.write(addr, b, mop.mem_bytes, icount_ - 1);
      } else {
        note_store(addr, mop.mem_bytes);
        mem_.write(addr, b, mop.mem_bytes);
      }
      break;
    }
    case MicroKind::kCondBranch:
      if (isa::branch_taken(mop.inst.op, a, b))
        next_pc = pc_ + static_cast<std::uint64_t>(mop.disp);
      break;
    case MicroKind::kDirectJump:
      info.has_dst = mop.has_dst;
      info.dst_class = RegClass::Int;
      info.dst_reg = mop.inst.rd;
      info.dst_value = pc_ + 4;
      if (mop.has_dst) set_int_reg(mop.inst.rd, pc_ + 4);
      next_pc = pc_ + static_cast<std::uint64_t>(mop.disp);
      break;
    case MicroKind::kIndirectJump: {
      // Link value is read before the target in case rd == rs1.
      const std::uint64_t target =
          (a + static_cast<std::uint64_t>(mop.simm)) & ~std::uint64_t{3};
      info.has_dst = mop.has_dst;
      info.dst_class = RegClass::Int;
      info.dst_reg = mop.inst.rd;
      info.dst_value = pc_ + 4;
      if (mop.has_dst) set_int_reg(mop.inst.rd, pc_ + 4);
      next_pc = target;
      break;
    }
    case MicroKind::kAlu: {
      const std::uint64_t value = isa::exec_alu(mop.inst.op, a, b, mop.inst.imm);
      info.has_dst = mop.has_dst;
      info.dst_class = mop.dst;
      info.dst_reg = mop.inst.rd;
      info.dst_value = value;
      if (mop.has_dst) {
        if (mop.dst == RegClass::Int) set_int_reg(mop.inst.rd, value);
        else set_fp_reg(mop.inst.rd, value);
      }
      break;
    }
  }

  pc_ = next_pc;
  info.next_pc = next_pc;
}

std::uint64_t ArchState::run_decoded(std::uint64_t max_steps) {
  // Mirrors step_decoded() op for op — same evaluation order, same memory
  // and register effects, same icount accounting (the halting step itself
  // counts) — but with no StepInfo construction and the PC kept in a local.
  // Destination writes go straight to x_/f_: has_dst is already false for
  // integer rd==0, so x_[0] is never written.
  const MicroOp* const ops = decoded_->ops();
  const std::uint64_t base = decoded_->code_base();
  const std::uint64_t bytes = decoded_->code_end() - base;
  std::uint64_t pc = pc_;
  std::uint64_t executed = 0;
  const MicroOp* mop = nullptr;

  // EREL_DISPATCH fetches the next micro-op and jumps to its handler; it
  // falls out to `done` when the step budget is exhausted or the PC leaves
  // the image (wrong-path targets, returns past code_end). Entry PC
  // alignment is the caller's contains() check; every transition below
  // preserves it (+4, disp = imm*4, indirect targets masked to ~3).
#if EREL_COMPUTED_GOTO
  static const void* const kDispatch[] = {
      &&lbl_kAlu,        &&lbl_kLoad,         &&lbl_kStore,
      &&lbl_kCondBranch, &&lbl_kDirectJump,   &&lbl_kIndirectJump,
      &&lbl_kHalt,       &&lbl_kIllegal,      &&lbl_kIret};
#define EREL_CASE(k) lbl_##k:
#define EREL_DISPATCH()                                    \
  {                                                        \
    if (executed == max_steps) goto done;                  \
    const std::uint64_t off = pc - base;                   \
    if (off >= bytes) goto done;                           \
    mop = ops + (off >> 2);                                \
    ++executed;                                            \
    goto* kDispatch[static_cast<unsigned>(mop->kind)];     \
  }
  EREL_DISPATCH()
#else
#define EREL_CASE(k) case MicroKind::k:
#define EREL_DISPATCH() \
  { continue; }
  for (;;) {
    if (executed == max_steps) break;
    const std::uint64_t off = pc - base;
    if (off >= bytes) break;
    mop = ops + (off >> 2);
    ++executed;
    switch (mop->kind) {
#endif

      EREL_CASE(kAlu) {
        const std::uint64_t a = src_value(mop->src1, mop->inst.rs1);
        const std::uint64_t b = src_value(mop->src2, mop->inst.rs2);
        const std::uint64_t value =
            isa::exec_alu(mop->inst.op, a, b, mop->inst.imm);
        if (mop->has_dst) {
          if (mop->dst == RegClass::Int) x_[mop->inst.rd] = value;
          else f_[mop->inst.rd] = value;
        }
        pc += 4;
        EREL_DISPATCH()
      }
      EREL_CASE(kLoad) {
        const std::uint64_t addr = src_value(mop->src1, mop->inst.rs1) +
                                   static_cast<std::uint64_t>(mop->simm);
        // Device reads are pure and never change deliverability mid-window
        // (the run() budget already stops at the next timer/RX deadline),
        // so the dispatch loop continues inline. The boundary is the count
        // of instructions retired before this one.
        std::uint64_t value =
            dev::Machine::is_mmio(addr)
                ? dev_.read(addr, mop->mem_bytes, icount_ + executed - 1)
                : mem_.read(addr, mop->mem_bytes);
        if (mop->sext32) value = static_cast<std::uint64_t>(sext(value, 32));
        if (mop->has_dst) {
          if (mop->dst == RegClass::Int) x_[mop->inst.rd] = value;
          else f_[mop->inst.rd] = value;
        }
        pc += 4;
        EREL_DISPATCH()
      }
      EREL_CASE(kStore) {
        const std::uint64_t addr = src_value(mop->src1, mop->inst.rs1) +
                                   static_cast<std::uint64_t>(mop->simm);
        const std::uint64_t b = src_value(mop->src2, mop->inst.rs2);
        if (dev::Machine::is_mmio(addr)) {
          // A device write can arm timers or re-enable delivery: hand
          // control back so run() re-evaluates its deadline budget and the
          // pending lines at this boundary.
          dev_.write(addr, b, mop->mem_bytes, icount_ + executed - 1);
          pc += 4;
          goto done;
        }
        note_store(addr, mop->mem_bytes);
        mem_.write(addr, b, mop->mem_bytes);
        pc += 4;
        // A store into the code image finishes architecturally, then hands
        // control back so further fetches re-decode from memory.
        if (code_dirty_) goto done;
        EREL_DISPATCH()
      }
      EREL_CASE(kCondBranch) {
        const std::uint64_t a = src_value(mop->src1, mop->inst.rs1);
        const std::uint64_t b = src_value(mop->src2, mop->inst.rs2);
        pc += isa::branch_taken(mop->inst.op, a, b)
                  ? static_cast<std::uint64_t>(mop->disp)
                  : 4;
        EREL_DISPATCH()
      }
      EREL_CASE(kDirectJump) {
        if (mop->has_dst) x_[mop->inst.rd] = pc + 4;
        pc += static_cast<std::uint64_t>(mop->disp);
        EREL_DISPATCH()
      }
      EREL_CASE(kIndirectJump) {
        // Target read before the link write in case rd == rs1.
        const std::uint64_t target =
            (src_value(mop->src1, mop->inst.rs1) +
             static_cast<std::uint64_t>(mop->simm)) &
            ~std::uint64_t{3};
        if (mop->has_dst) x_[mop->inst.rd] = pc + 4;
        pc = target;
        EREL_DISPATCH()
      }
      EREL_CASE(kHalt) {
        halted_ = true;  // PC frozen on the HALT itself; the step counts
        goto done;
      }
      EREL_CASE(kIllegal) {
        halted_ = true;
        goto done;
      }
      EREL_CASE(kIret) {
        // Returning from the handler restores the master enable: hand
        // control back so run() delivers any interrupt latched meanwhile
        // before the resumed instruction executes.
        pc = dev_.iret();
        goto done;
      }

#if !EREL_COMPUTED_GOTO
    }
  }
#endif
#undef EREL_CASE
#undef EREL_DISPATCH

done:
  pc_ = pc;
  icount_ += executed;
  return executed;
}

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

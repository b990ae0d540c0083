#include "pipeline/fetch.hpp"

namespace erel::pipeline {

FetchUnit::FetchUnit(const FetchConfig& config,
                     const arch::SparseMemory& memory,
                     mem::MemoryHierarchy& hierarchy, branch::Gshare& gshare,
                     branch::Btb& btb, branch::Ras& ras)
    : config_(config),
      memory_(memory),
      hierarchy_(hierarchy),
      gshare_(gshare),
      btb_(btb),
      ras_(ras) {
  std::size_t slots = 1;
  while (slots < config.buffer_capacity) slots <<= 1;
  buffer_.resize(slots);
  buf_mask_ = static_cast<std::uint32_t>(slots - 1);
}

void FetchUnit::redirect(std::uint64_t pc) {
  buf_head_ = 0;
  buf_size_ = 0;
  pc_ = pc;
  halted_ = false;
  // The in-flight I-cache miss (if any) is abandoned.
  icache_ready_cycle_ = 0;
  current_line_ = ~std::uint64_t{0};
}

void FetchUnit::predict(FetchedInst& fi) {
  const isa::DecodedInst& inst = fi.inst;
  const std::uint64_t fallthrough = fi.pc + 4;
  if (inst.is_cond_branch()) {
    fi.ras_checkpoint = ras_.checkpoint();
    fi.predicted_taken = gshare_.predict(fi.pc, &fi.ghr_checkpoint);
    fi.predicted_target =
        fi.predicted_taken
            ? fi.pc + static_cast<std::uint64_t>(std::int64_t{inst.imm} * 4)
            : fallthrough;
    return;
  }
  if (inst.is_direct_jump()) {
    // Target computable at predecode: always correct.
    fi.predicted_taken = true;
    fi.predicted_target =
        fi.pc + static_cast<std::uint64_t>(std::int64_t{inst.imm} * 4);
    if (inst.is_call()) ras_.push(fallthrough);
    return;
  }
  if (inst.is_indirect_jump()) {
    fi.predicted_taken = true;
    // Indirect jumps do not shift the GHR, but their misprediction must
    // restore it (younger conditional branches shifted it speculatively).
    fi.ghr_checkpoint = gshare_.history();
    if (inst.is_return()) {
      fi.predicted_target = ras_.pop();
    } else {
      fi.predicted_target = btb_.lookup(fi.pc).value_or(fallthrough);
    }
    if (inst.is_call()) ras_.push(fallthrough);
    // Snapshot after this instruction's own RAS operations: misprediction of
    // this jump squashes only younger instructions, whose RAS damage is what
    // the checkpoint must undo.
    fi.ras_checkpoint = ras_.checkpoint();
    return;
  }
}

void FetchUnit::tick(std::uint64_t cycle) {
  if (halted_) return;
  if (cycle < icache_ready_cycle_) {
    ++icache_stall_cycles_;
    return;
  }
  unsigned fetched = 0;
  unsigned blocks = 1;
  const unsigned line_bytes = hierarchy_.l1i().config().line_bytes;
  while (fetched < config_.width && buf_size_ < config_.buffer_capacity) {
    // Charge the I-cache once per line touched.
    const std::uint64_t line = pc_ / line_bytes;
    if (line != current_line_) {
      const unsigned latency = hierarchy_.ifetch(pc_);
      current_line_ = line;
      if (latency > hierarchy_.l1i().config().hit_latency) {
        icache_ready_cycle_ = cycle + latency;
        return;  // miss: deliver nothing this cycle
      }
    }

    FetchedInst& fi = next_slot();
    fi.pc = pc_;
    fi.inst = decoded_ != nullptr && decoded_->contains(pc_)
                  ? decoded_->at(pc_).inst
                  : isa::decode(memory_.read_u32(pc_));
    if (fi.inst.is_halt()) {
      ++buf_size_;
      halted_ = true;
      return;
    }
    if (fi.inst.is_control()) {
      predict(fi);
      ++buf_size_;
      ++fetched;
      if (fi.predicted_taken) {
        if (blocks >= config_.max_blocks_per_cycle) {
          pc_ = fi.predicted_target;
          return;
        }
        ++blocks;
        pc_ = fi.predicted_target;
        continue;
      }
      pc_ += 4;
      continue;
    }
    ++buf_size_;
    ++fetched;
    pc_ += 4;
  }
}

}  // namespace erel::pipeline

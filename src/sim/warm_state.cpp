#include "sim/warm_state.hpp"

#include "dev/machine.hpp"

namespace erel::sim {

void WarmState::observe(const arch::StepInfo& info) {
  if (info.halted) return;
  const std::uint64_t line = info.pc >> ifetch_line_shift;
  if (line != last_ifetch_line) {
    hierarchy.ifetch(info.pc);
    last_ifetch_line = line;
  }

  switch (info.kind) {
    case arch::MicroKind::kLoad:
      // Device accesses are uncached in the pipeline (fixed MMIO latency,
      // no hierarchy traffic), so warming skips them the same way.
      if (!dev::Machine::is_mmio(info.mem_addr)) hierarchy.dload(info.mem_addr);
      return;
    case arch::MicroKind::kStore:
      if (!dev::Machine::is_mmio(info.mem_addr))
        hierarchy.dstore(info.mem_addr);
      return;
    case arch::MicroKind::kCondBranch: {
      const bool taken = info.next_pc != info.pc + 4;
      std::uint32_t checkpoint = 0;
      const bool predicted = gshare.predict(info.pc, &checkpoint);
      const bool mispredicted = predicted != taken;
      gshare.resolve(info.pc, checkpoint, taken, mispredicted);
      if (mispredicted) gshare.repair(checkpoint, taken);
      return;
    }
    case arch::MicroKind::kDirectJump:
      if (info.inst.is_call()) ras.push(info.pc + 4);
      return;
    case arch::MicroKind::kIndirectJump:
      if (info.inst.is_return()) ras.pop();
      btb.update(info.pc, info.next_pc);
      if (info.inst.is_call()) ras.push(info.pc + 4);
      return;
    case arch::MicroKind::kAlu:
    case arch::MicroKind::kHalt:
    case arch::MicroKind::kIllegal:
    case arch::MicroKind::kIret:  // not a predicted branch: fetch runs past
                                  // it until the commit-time flush redirects
      return;
  }
}

}  // namespace erel::sim

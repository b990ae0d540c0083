// Functional warming (the SMARTS ingredient that makes short detailed
// windows unbiased): while the sampler fast-forwards between intervals, the
// branch predictors and cache hierarchy are updated architecturally — one
// in-order predict/train per branch, one access per fetch line/load/store —
// so a detailed window resumed from a checkpoint starts with the long-lived
// microarchitectural state (2^18-entry gshare, 1 MB L2) already populated.
// Only the short-lived pipeline state (ROS, rename map, LSQ) still needs the
// per-sample detailed warm-up.
//
// observe() is the planning pass's per-instruction hot path: it dispatches
// on StepInfo::kind (one switch, no OpInfo flag walks) and charges the
// I-cache once per fetch line rather than once per instruction — a repeated
// same-line fetch is by construction an L1I hit whose only effect is an LRU
// touch, and consecutive touches of one line cannot reorder it against any
// other line, so the warmed tags, dirty bits and relative recency (all a
// detailed window can observe) are identical to the per-instruction charge.
#pragma once

#include "arch/arch_state.hpp"
#include "branch/btb.hpp"
#include "branch/gshare.hpp"
#include "branch/ras.hpp"
#include "common/bits.hpp"
#include "mem/hierarchy.hpp"
#include "sim/config.hpp"

namespace erel::sim {

// WarmState is a plain value type: the sampler's planning pass copies it at
// every unit start it hands to a worker thread, and each copy is the frozen
// warm microarchitectural state that worker seeds its detailed core from
// (see sim/sampling.cpp). A unit measured inline seeds from the planner's
// own WarmState instead.
struct WarmState {
  explicit WarmState(const SimConfig& config)
      : gshare(config.ghr_bits),
        hierarchy(config.memory),
        ifetch_line_shift(log2_exact(config.memory.l1i.line_bytes)) {}

  /// Observes one architecturally-executed instruction: trains the branch
  /// predictors exactly as an in-order front end would (speculative history
  /// shift, then repair on the spot since the outcome is known) and touches
  /// the caches for the fetch line and any data access.
  void observe(const arch::StepInfo& info);

  branch::Gshare gshare;
  branch::Btb btb;
  branch::Ras ras;
  mem::MemoryHierarchy hierarchy;

  unsigned ifetch_line_shift;  // log2(L1I line bytes), lines are pow2
  std::uint64_t last_ifetch_line = ~std::uint64_t{0};
};

}  // namespace erel::sim

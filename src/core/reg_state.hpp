// Per-physical-register lifecycle tracking.
//
// RegTracker serves three purposes:
//  1. Occupancy statistics for the paper's Figure 3: every version's
//     lifetime is attributed to the Empty / Ready / Idle spans of Figure 2
//     at release time (Empty: allocation -> value written; Ready: written ->
//     last-use commit; Idle: last-use commit -> release).
//  2. Safety: version tokens catch any committed read of a register that was
//     released (and possibly reallocated) — the fatal hazard of early
//     release. Double release / double alloc are caught by the FreeList.
//  3. Conservation: allocated + free == P at all times (asserted by tests).
//
// RegFileState bundles the tracker with the free list, map tables, value
// array and ready (scoreboard) bits for one register class.
#pragma once

#include <cstdint>
#include <vector>

#include "core/free_list.hpp"
#include "core/map_table.hpp"
#include "core/types.hpp"

namespace erel::core {

/// Occupancy averages over the run (Figure 3's three bars).
struct Occupancy {
  double avg_empty = 0;
  double avg_ready = 0;
  double avg_idle = 0;

  [[nodiscard]] double avg_allocated() const {
    return avg_empty + avg_ready + avg_idle;
  }
};

class RegTracker {
 public:
  explicit RegTracker(unsigned num_phys);

  /// Enables fixed-stride occupancy channels: every attributed span is also
  /// binned into per-stride buckets (register-cycles per state), giving the
  /// exact time-resolved decomposition of the Figure 3 averages. Cost:
  /// O(span/stride) extra work per release and 3 doubles of memory per
  /// stride window. Call before simulation starts.
  void enable_channels(std::uint64_t stride);

  /// Marks registers [0, logical_count) as the initial architectural
  /// versions: allocated, written, definers committed at cycle 0.
  void init_architectural(unsigned logical_count);

  void on_alloc(PhysReg p, std::uint8_t logical, std::uint64_t cycle);
  void on_write(PhysReg p, std::uint64_t cycle);
  void on_definer_commit(PhysReg p, std::uint64_t cycle);
  /// A committed instruction read `p`; `token` was captured at rename.
  void on_consumer_commit(PhysReg p, std::uint32_t token, std::uint64_t cycle);
  /// Version ends; spans are attributed. `squashed` marks wrong-path frees.
  void on_release(PhysReg p, std::uint64_t cycle, bool squashed);
  /// Basic-mechanism reuse: the old version in `p` ends and a new version
  /// (same logical register) begins without visiting the free list.
  void on_reuse(PhysReg p, std::uint8_t logical, std::uint64_t cycle);

  [[nodiscard]] std::uint32_t token(PhysReg p) const;
  [[nodiscard]] std::uint8_t logical_of(PhysReg p) const;
  [[nodiscard]] bool is_allocated(PhysReg p) const;
  [[nodiscard]] unsigned allocated_count() const { return allocated_count_; }

  /// Attributes spans of still-allocated versions up to `cycle` (call once,
  /// at end of simulation, before reading occupancy()).
  void finalize(std::uint64_t cycle);

  [[nodiscard]] Occupancy occupancy(std::uint64_t total_cycles) const;

  // Raw occupancy integrals (register-cycles per state): the additive form
  // published into the StatRegistry, from which the Occupancy averages are
  // materialized (and which merge correctly across sampled windows).
  [[nodiscard]] double empty_integral() const { return empty_integral_; }
  [[nodiscard]] double ready_integral() const { return ready_integral_; }
  [[nodiscard]] double idle_integral() const { return idle_integral_; }

  /// Per-stride occupancy bins (register-cycles; divide by the covered
  /// cycles for averages). Empty unless enable_channels() was called.
  [[nodiscard]] std::uint64_t channel_stride() const { return stride_; }
  [[nodiscard]] const std::vector<double>& channel_empty() const {
    return bins_[0];
  }
  [[nodiscard]] const std::vector<double>& channel_ready() const {
    return bins_[1];
  }
  [[nodiscard]] const std::vector<double>& channel_idle() const {
    return bins_[2];
  }

 private:
  struct Version {
    std::uint64_t alloc_cycle = 0;
    std::uint64_t write_cycle = 0;
    std::uint64_t last_use_commit = 0;  // max over definer/consumer commits
    std::uint32_t token = 0;
    std::uint8_t logical = 0;
    bool allocated = false;
    bool written = false;
    bool definer_committed = false;
  };

  void attribute(Version& v, std::uint64_t end_cycle, bool squashed);
  void add_span(unsigned state, std::uint64_t begin, std::uint64_t end);

  std::vector<Version> regs_;
  unsigned allocated_count_ = 0;
  double empty_integral_ = 0;
  double ready_integral_ = 0;
  double idle_integral_ = 0;
  bool finalized_ = false;
  std::uint64_t stride_ = 0;            // 0 = channels disabled
  std::vector<double> bins_[3];         // per-stride register-cycles
};

/// All rename state for one register class.
struct RegFileState {
  RegFileState(RC cls, unsigned num_phys);

  /// Allocates a fresh version for `logical` (caller checked the free list).
  PhysReg alloc(std::uint8_t logical, std::uint64_t cycle);

  /// Ends the version in `p`: returns it to the free list, attributes its
  /// spans, and sets the IOMT stale bit if `p` is still architectural (the
  /// early-release-before-NV-commit case of §4.3).
  void release(PhysReg p, std::uint64_t cycle, bool squashed);

  /// Produces the value of `p` (writeback).
  void write_value(PhysReg p, std::uint64_t value, std::uint64_t cycle);

  RC cls;
  unsigned num_phys;
  FreeList free_list;
  MapTable map;
  InOrderMapTable iomt;
  RegTracker tracker;
  std::vector<std::uint64_t> value;
  std::vector<bool> ready;  // scoreboard: value available for consumers
};

}  // namespace erel::core

// power::RixnerProbe — the first built-in consumer of the Instrumentation
// API v2 (sim/probe.hpp): an event-driven register-file energy model on top
// of power::RixnerModel.
//
// The probe counts register-file accesses from commit events (per-class
// operand reads and destination writes, the access mix the paper's §4.4
// balance uses) plus Last-Uses-Table traffic for the basic/extended
// mechanisms (source + destination recordings per committed instruction),
// multiplies by the per-access energies of the configured file geometries,
// and exports:
//
//   power/energy_nj   total register-file (+LUsT) energy, nanojoules
//   power/ed2         energy_nj * cycles^2 (the ED^2 figure of merit; time
//                     in cycles — relative comparisons only)
//
// Raw access counts land in the run's StatRegistry under power/rf_reads/*,
// power/rf_writes/* and power/lus_accesses.
//
// The headline counters cover committed work only — the paper's accounting,
// and deterministic under sampling. Wrong-path traffic (squashed
// instructions renamed, read and written too, and interrupt delivery / IRET
// flushes add plenty of it) is tracked separately: every renamed
// instruction's prospective accesses are held in flight until it either
// commits (merged into the headline counters) or is squashed, in which case
// they accumulate under:
//
//   power/wrongpath_renames          squashed renamed instructions
//   power/wrongpath_rf_reads/{int,fp}   their operand reads
//   power/wrongpath_rf_writes/{int,fp}  their destination writes
//   power/wrongpath_lus_accesses     their LUs Table recordings
//
// The wrong-path counters never feed energy_nj/ed2; they exist to expose
// how much squashed register traffic each policy and flush source induces.
#pragma once

#include <deque>

#include "power/rixner.hpp"
#include "sim/probe.hpp"

namespace erel::power {

class RixnerProbe final : public sim::Probe {
 public:
  void on_run_begin(const sim::SimConfig& config,
                    sim::StatRegistry& registry) override;
  void on_rename(const sim::RenameEvent& event) override;
  void on_commit(const sim::CommitEvent& event) override;
  void on_squash(const sim::SquashEvent& event) override;

  /// Pure function of (config, registry): works over a live core's
  /// registry and over the merged measurement registry of a sampled run
  /// alike (sampled metrics cover the measured windows, unscaled).
  void export_metrics(const sim::SimConfig& config,
                      const sim::StatRegistry& registry,
                      std::vector<sim::Metric>& out) const override;

 private:
  /// Prospective accesses of one renamed, not-yet-retired instruction
  /// (captured at rename; the event's rec pointer dies with the ROS entry).
  struct Inflight {
    core::InstSeq seq = 0;
    std::uint8_t reads[2] = {};   // operand reads per class
    std::uint8_t writes[2] = {};  // destination write per class
    std::uint8_t lus = 0;         // LUs Table recordings
  };

  /// LUs Table recordings `rec` makes: one per register operand, none
  /// without an LUs Table.
  [[nodiscard]] std::uint8_t lus_recordings(const core::RenameRec& rec) const;

  bool uses_lus_table_ = false;
  sim::StatRegistry::Counter* reads_[2] = {};
  sim::StatRegistry::Counter* writes_[2] = {};
  sim::StatRegistry::Counter* lus_accesses_ = nullptr;
  sim::StatRegistry::Counter* wrongpath_renames_ = nullptr;
  sim::StatRegistry::Counter* wrongpath_reads_[2] = {};
  sim::StatRegistry::Counter* wrongpath_writes_[2] = {};
  sim::StatRegistry::Counter* wrongpath_lus_ = nullptr;
  std::deque<Inflight> inflight_;  // rename order: pop front on commit,
                                   // pop back on squash
};

}  // namespace erel::power

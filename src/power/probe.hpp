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
// Only committed work is charged — the paper's accounting, and
// deterministic under sampling.
#pragma once

#include "power/rixner.hpp"
#include "sim/probe.hpp"

namespace erel::power {

class RixnerProbe final : public sim::Probe {
 public:
  void on_run_begin(const sim::SimConfig& config,
                    sim::StatRegistry& registry) override;
  void on_commit(const sim::CommitEvent& event) override;

  /// Pure function of (config, registry): works over a live core's
  /// registry and over the merged measurement registry of a sampled run
  /// alike (sampled metrics cover the measured windows, unscaled).
  void export_metrics(const sim::SimConfig& config,
                      const sim::StatRegistry& registry,
                      std::vector<sim::Metric>& out) const override;

 private:
  bool uses_lus_table_ = false;
  sim::StatRegistry::Counter* reads_[2] = {};
  sim::StatRegistry::Counter* writes_[2] = {};
  sim::StatRegistry::Counter* lus_accesses_ = nullptr;
};

}  // namespace erel::power

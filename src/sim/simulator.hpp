// Public simulation facade.
//
//   erel::sim::SimConfig cfg;
//   cfg.policy = erel::core::PolicyKind::Extended;
//   cfg.phys_int = cfg.phys_fp = 48;
//   erel::sim::Simulator sim(cfg);
//   erel::sim::SimStats stats = sim.run(program);
//   // stats.ipc(), stats.policy_stats, stats.occupancy, ...
//
// Instrumentation (API v2): attach sim::Probe observers for event-driven
// introspection, or run with probes in one call:
//
//   power::RixnerProbe power;
//   sim::SimStats stats = sim.run(program, {&power});
//
// For deeper introspection (architectural registers, memory, conservation
// probes, the StatRegistry) construct a pipeline::Core via make_core().
#pragma once

#include <memory>
#include <vector>

#include "arch/program.hpp"
#include "pipeline/core.hpp"
#include "sim/config.hpp"
#include "sim/probe.hpp"
#include "sim/stats.hpp"

namespace erel::sim {

class Simulator {
 public:
  explicit Simulator(SimConfig config) : config_(std::move(config)) {}

  /// Runs `program` to completion (or a configured limit).
  SimStats run(const arch::Program& program) const {
    return pipeline::Core(config_, program).run();
  }

  /// Runs with observers attached (caller keeps ownership; see
  /// sim/probe.hpp).
  SimStats run(const arch::Program& program,
               const std::vector<Probe*>& probes) const {
    pipeline::Core core(config_, program);
    for (Probe* probe : probes) core.attach_probe(probe);
    return core.run();
  }

  /// Builds a core for step-by-step driving (tests, examples).
  [[nodiscard]] std::unique_ptr<pipeline::Core> make_core(
      const arch::Program& program) const {
    return std::make_unique<pipeline::Core>(config_, program);
  }

 private:
  SimConfig config_;
};

/// Human-readable parameter dump (bench/table2_parameters).
std::string describe_config(const SimConfig& config);

/// Full statistics report: IPC, stall breakdown, branch/cache behaviour,
/// per-class release channels and occupancy.
std::string format_stats(const SimStats& stats);

}  // namespace erel::sim

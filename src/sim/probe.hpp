// Event-driven instrumentation probes.
//
// A Probe is an observer attached to a pipeline::Core before the run. The
// core emits one typed event per committed instruction, in program order —
// the point register-file energy and per-commit timing are read from — and
// the probe reacts, typically by bumping its own StatRegistry entries.
// Probes are pure observers: attaching any number of them never changes
// simulation results, and with no probe attached the emission site
// compiles down to a never-taken branch.
//
//   struct CommitCounter final : sim::Probe {
//     sim::StatRegistry::Counter* commits = nullptr;
//     void on_run_begin(const sim::SimConfig&, sim::StatRegistry& reg)
//         override {
//       commits = &reg.counter("my/commits");
//     }
//     void on_commit(const sim::CommitEvent&) override { ++*commits; }
//   };
//
//   CommitCounter probe;
//   auto core = sim::Simulator(config).make_core(program);
//   core->attach_probe(&probe);
//   sim::SimStats stats = core->run();
//
// Event-delivery order is deterministic: the core is single-threaded, so
// two runs of the same (config, program) produce bit-identical event
// sequences (pinned by tests/test_probe.cpp).
//
// Built-in probe: power::RixnerProbe (energy/ED² columns, src/power/),
// which experiments attach by its registry name "rixner"
// (harness::make_probe).
// examples/pipeline_trace.cpp collects CommitEvents into a pipeview.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "isa/isa.hpp"
#include "sim/stat_registry.hpp"

namespace erel::sim {

struct SimConfig;

/// One committed instruction, in program order. `inst` / `rec` point into
/// pipeline state and are valid during the callback only.
struct CommitEvent {
  std::uint64_t seq = 0;
  std::uint64_t pc = 0;
  std::uint32_t encoding = 0;
  std::uint64_t dispatch_cycle = 0;
  std::uint64_t issue_cycle = 0;
  std::uint64_t complete_cycle = 0;
  std::uint64_t commit_cycle = 0;
  const isa::DecodedInst* inst = nullptr;
  const core::RenameRec* rec = nullptr;
};

/// A named scalar a probe exports into experiment results (harness
/// ResultSet metric columns). Names are registry-style paths: no spaces.
struct Metric {
  std::string name;
  double value = 0.0;

  bool operator==(const Metric&) const = default;
};

class Probe {
 public:
  virtual ~Probe();

  /// Called once when the probe is attached; `registry` is the core's
  /// registry (alive for the whole run) — register counters/channels here.
  virtual void on_run_begin(const SimConfig& config, StatRegistry& registry);

  virtual void on_commit(const CommitEvent&) {}

  /// Appends named scalar columns for experiment sinks, derived from a
  /// final registry and the run's config. Keep this a pure function of its
  /// arguments (not of instance state): under sampled simulation each
  /// measurement window runs its own probe instance and the window
  /// registries merge, so the harness calls export_metrics on a fresh
  /// instance against the *merged* registry.
  virtual void export_metrics(const SimConfig& config,
                              const StatRegistry& registry,
                              std::vector<Metric>& out) const;
};

/// A named probe recipe for Core::attach_probes and the sampler: the
/// factory builds a fresh instance per simulation (cells and sampling
/// windows run concurrently; instances are never shared). Factories must
/// therefore produce *self-contained* observers: instances that funnel into
/// shared mutable state (one output file, one shared vector) race under
/// sharded sampling — accumulate into the run's StatRegistry instead, which
/// merges deterministically. Experiment cells name their probes instead,
/// and the harness builds these recipes from its probe registry
/// (harness::make_probe), whose names key the cells' fingerprints.
struct ProbeSpec {
  std::string name;
  std::function<std::unique_ptr<Probe>()> make;
};

}  // namespace erel::sim

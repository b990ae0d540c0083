// Declarative experiment builder: the sweep API behind every bench binary.
//
// An Experiment composes axes over a base SimConfig and materializes the
// cross-product into structurally-keyed cells, so a sweep's results are
// addressed by (workload, policy, phys, variant) instead of by replaying
// the construction loop a second time:
//
//   harness::ResultSet rs = harness::Experiment()
//       .workloads(workloads::workload_names())
//       .policies(core::all_policies())
//       .phys_regs(harness::register_sweep_sizes())
//       .run({.threads = 0, .cache_dir = "results-cache"});
//   double hm = rs.hmean_ipc(fp_names, core::PolicyKind::Extended, 48);
//
// Axes:
//   .workloads()  workload registry names (required)
//   .policies()   release policies; defaults to the base config's policy
//   .phys_regs()  symmetric register-file sizes (phys_int = phys_fp = p);
//                 defaults to the base config's sizes
//   .vary()       arbitrary labeled SimConfig mutators; multiple vary()
//                 calls cross-multiply and their labels join into the
//                 key's `variant` string as "axis=label[,axis=label...]"
//   .sampling()   run every cell under checkpointed interval sampling
//                 (sim::SampledSimulator) instead of full detail
//
// Materialization order is deterministic and documented: workloads
// outermost, then policies, then phys sizes, then vary() axes in
// declaration order (innermost last). Tests pin this order.
//
// When RunOptions::cache_dir is set, each cell is fingerprinted
// (harness/fingerprint.hpp) and looked up in the directory before
// simulating; only missing cells run, and fresh results are written back
// atomically (tmp file + rename), so interrupted or repeated sweeps resume
// instead of recomputing.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "harness/remote.hpp"
#include "harness/results.hpp"

namespace erel::harness {

struct RunOptions {
  /// Harness pool workers (one simulation per worker); 0 = hardware.
  unsigned threads = 0;

  /// Result-cache directory; "" disables caching. Created on demand.
  std::string cache_dir;

  /// "host:port" of an experiment daemon (ereld, src/service/). When set,
  /// cells that miss the local cache are shipped to the daemon instead of
  /// the local pool; returned entries are bit-identical to local
  /// simulation (validated with the cache parser) and are written into
  /// cache_dir verbatim. An unreachable daemon or a refused cell degrades
  /// to local simulation with a warning, never an abort.
  std::string server;

  /// Deadlines and retry budget of the `server` path (ignored otherwise).
  /// The client retries an expired deadline or a torn connection up to
  /// `remote.retries` times per call; a spent budget fails the
  /// client, and every cell it has not served then runs locally. Refused
  /// cells, protocol violations and version mismatches run locally at
  /// once.
  service::ClientOptions remote;
};

class Experiment {
 public:
  using Mutator = std::function<void(sim::SimConfig&)>;
  struct AxisPoint {
    std::string label;
    Mutator apply;
  };

  /// One materialized cell: the structured key plus the ready-to-run spec
  /// (config fully mutated, sampling attached, tag = key.to_string()).
  struct Cell {
    ExpKey key;
    RunSpec spec;
  };

  /// Base config defaults to Table 2 with oracle checking off (the same
  /// baseline as harness::experiment_config).
  Experiment();

  Experiment& base(sim::SimConfig config);
  Experiment& workloads(std::vector<std::string> names);
  Experiment& policies(std::vector<core::PolicyKind> kinds);
  Experiment& phys_regs(std::vector<unsigned> sizes);
  Experiment& vary(std::string axis, std::vector<AxisPoint> points);
  Experiment& sampling(sim::SamplingConfig config);

  /// Attaches a named probe to every cell (Instrumentation API v2). The
  /// factory builds a fresh instance per simulation; exported metrics
  /// become open named columns of the ResultSet (CSV/JSON sinks, cache
  /// entries). The name joins the cell fingerprint, so cached cells only
  /// serve runs declaring the same probe set.
  Experiment& probe(std::string name,
                    std::function<std::unique_ptr<sim::Probe>()> make);

  /// Expands the cross-product. Aborts when no workloads were given or an
  /// axis is empty (an accidentally-empty sweep is a bug, not a no-op).
  [[nodiscard]] std::vector<Cell> materialize() const;

  /// Materializes, serves cache hits, simulates the rest in parallel, and
  /// writes fresh results back to the cache. Entries keep materialization
  /// order.
  [[nodiscard]] ResultSet run(const RunOptions& opts = {}) const;

 private:
  struct Axis {
    std::string name;
    std::vector<AxisPoint> points;
  };

  sim::SimConfig base_;
  std::vector<std::string> workloads_;
  std::vector<core::PolicyKind> policies_;
  std::vector<unsigned> phys_;
  std::vector<Axis> axes_;
  std::optional<sim::SamplingConfig> sampling_;
  std::vector<sim::ProbeSpec> probes_;
};

}  // namespace erel::harness

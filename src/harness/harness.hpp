// Experiment harness: runs one simulation cell (run_one) or a batch of
// independent cells across a thread pool (run_all), and aggregates the
// series the paper's tables/figures report.
//
// run_one is the one way a cell is simulated: run_all's workers (and so
// harness::Experiment's local runs) and the experiment daemon's pool
// (src/service/) all call it, so a cell's result does not depend on which
// of them ran it. Sweeps should normally be declared through
// harness::Experiment (harness/experiment.hpp), which materializes axis
// cross-products into structurally-keyed RunSpecs, serves cells from the
// on-disk result cache or a daemon, and returns a typed harness::ResultSet.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/probe.hpp"
#include "sim/sampling.hpp"
#include "sim/stats.hpp"

namespace erel::harness {

struct RunSpec {
  /// Workload registry name (anything workloads::find_workload resolves).
  std::string workload;
  sim::SimConfig config;
  std::string tag;        // free-form label for table assembly

  /// When set, the run uses checkpointed interval sampling instead of full
  /// detailed simulation; `RunResult::stats` then holds the sampled
  /// estimate and `RunResult::sampled` the per-sample detail. The whole
  /// SamplingConfig rides along: placement mode + seed, `target_ci`
  /// confidence-driven stopping, and `threads` (keep the default of 1 when
  /// a sweep already saturates the harness pool with one spec per worker;
  /// raise it to shard a single long workload's units instead).
  std::optional<sim::SamplingConfig> sampling;

  /// Named probes attached to the run (Instrumentation API v2): fresh
  /// instances are built per simulation (and per sampling window), their
  /// registry entries land in the run's StatRegistry, and their
  /// export_metrics output becomes RunResult::metrics.
  std::vector<sim::ProbeSpec> probes;
};

struct RunResult {
  RunSpec spec;
  sim::SimStats stats;
  std::optional<sim::SampledStats> sampled;

  /// Named scalars exported by the spec's probes (full runs: over the
  /// run's registry; sampled runs: over the merged measurement registry).
  std::vector<sim::Metric> metrics;
};

/// Runs one spec to completion on the calling thread.
RunResult run_one(const RunSpec& spec);

/// Runs every spec (each on its own worker thread; simulations share no
/// state). Results keep the input order. `threads` 0 = hardware default.
std::vector<RunResult> run_all(const std::vector<RunSpec>& specs,
                               unsigned threads = 0);

/// Harmonic mean, the aggregate the paper uses for IPC (Figures 10/11).
/// Degenerate inputs are defined rather than fatal: an empty series yields
/// 0, and any non-positive value collapses the mean to 0 (its limit).
double harmonic_mean(std::span<const double> values);

/// Builds a config with the paper's Table 2 defaults, the given policy and
/// symmetric register file size. Oracle checking is disabled for speed
/// (benchmarks); tests construct configs directly with it enabled.
sim::SimConfig experiment_config(core::PolicyKind policy, unsigned phys_regs);

/// The Figure 11 sweep axis.
const std::vector<unsigned>& register_sweep_sizes();

}  // namespace erel::harness

// Experiment harness: runs one simulation cell (run_one) or a batch of
// independent cells across a thread pool (run_all), and aggregates the
// series the paper's tables/figures report.
//
// run_one simulates a cell on the calling thread; the experiment daemon's
// pool (src/service/) calls it for every cell. run_all runs each
// full-detail spec as one run_one task on its pool. Its sampled specs form
// plan groups: specs with the same workload, the same canonical sampling
// fields and the same plan key (sim::same_plan: ghr_bits, memory,
// fast_path — the only config fields the planning pass reads) share one
// planning pass. Each group, a group of one included, is one task on the
// same pool (sim::SampledSimulator::run_group): it plans once on the
// worker that runs it and hands every window to the pool, measuring its
// own windows that no worker has claimed whenever too many are
// unmeasured. So while every worker plans, each planner measures its own
// windows, and in a sweep's tail the workers with no group left take the
// rest. Each cell's result is bit-identical to run_one's.
//
// Sweeps should normally be declared through harness::Experiment
// (harness/experiment.hpp), which materializes axis cross-products into
// structurally-keyed RunSpecs, serves cells from the on-disk result cache
// or a daemon, and returns a typed harness::ResultSet.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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

  /// When set, the run uses checkpointed interval sampling instead of full
  /// detailed simulation; `RunResult::stats` then holds the sampled
  /// estimate and `RunResult::sampled` the per-sample detail. The whole
  /// SamplingConfig rides along: window sizes, the seed of each unit's
  /// offset in its interval, `target_ci` confidence-driven stopping, and
  /// `threads`, which matters only to run_one and to direct
  /// sim::SampledSimulator callers (raise it to shard a single long
  /// workload's units on a pool of the run's own). run_all ignores it and
  /// measures every sampled spec's windows on its own pool, with the same
  /// schedule.
  std::optional<sim::SamplingConfig> sampling;

  /// Names of the probes attached to the run (Instrumentation API v2), each
  /// one make_probe resolves: fresh instances are built per simulation (and
  /// per sampling window), their registry entries land in the run's
  /// StatRegistry, and their export_metrics output becomes
  /// RunResult::metrics.
  std::vector<std::string> probes;
};

struct RunResult {
  sim::SimStats stats;
  std::optional<sim::SampledStats> sampled;

  /// Named scalars exported by the spec's probes (full runs: over the
  /// run's registry; sampled runs: over the merged measurement registry).
  std::vector<sim::Metric> metrics;
};

/// The probe registry: the one map from a probe name to its implementation.
/// "rixner" builds a power::RixnerProbe; any other name yields nullptr. A
/// name stands in for its probe in fingerprints and on the wire, so only
/// names this resolves ever reach a cell.
[[nodiscard]] std::unique_ptr<sim::Probe> make_probe(std::string_view name);

/// Runs one spec to completion on the calling thread.
RunResult run_one(const RunSpec& spec);

/// Runs every spec on a pool of `threads` workers (0 = hardware default),
/// planning each plan group of sampled specs once (see the header comment).
/// Results keep the input order and equal run_one's, spec by spec.
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

// Checkpointed interval sampling (SMARTS-style) over the detailed pipeline.
//
// A run is split into instruction intervals. A single planning pass
// fast-forwards the functional oracle through the whole program, training
// predictors and caches on every instruction (SMARTS' continuous functional
// warming), and captures an arch::Checkpoint plus the warm state at the
// start of every sampling unit. Each unit is measured as soon as it is
// captured. Without a pool its windows run inline on the calling thread,
// seeded from the planner's own warm state. On a pool, the run's own
// (`threads` > 1) or one the caller shares, such as harness::run_all's,
// whose workers may be planners themselves, the unit gets one frozen
// WarmState copy and each window is a ticket on the pool that replays it;
// the copy is freed once the last window has built its core. The planner
// plans on while fewer than 2 * pool-size windows are unmeasured; at that
// bound it waits on a pool of its own, and on a shared pool it claims back
// and measures its own unclaimed tickets, so it never waits on a window
// queued behind other tasks. A window replays its unit from the
// checkpoint — `warmup` detailed-but-unmeasured instructions prime the
// short-lived pipeline state, the next `detail` instructions are measured.
// Per-unit SampleRecords merge in interval order regardless of which
// thread produced them, so results are bit-identical at any thread count
// and on any pool.
//
// Plan groups. The planning pass reads only the program, the sampling
// fields and three config fields: `ghr_bits` and the whole `memory` config
// (the warmed gshare and hierarchy, which a window copies together with
// its latencies), and `fast_path` (the shared decode). Configs that agree
// on those (same_plan, "the plan key") share one pass: run_group measures
// every captured unit once per config and returns one SampledStats per
// config, each bit-identical to that config's own run. Policy, register
// files, widths and run control never reach the planner, so a Figure 11
// sweep plans each kernel once instead of once per cell. A one-config run
// is the group of one.
//
// Each unit starts at a seeded offset inside its interval (stratified
// placement: periodic coverage without aliasing with program phases), and
// instead of measuring every planned unit the sampler can keep scheduling
// units only until the 95% confidence interval on IPC is tight enough
// (`target_ci`, per config).
//
//   sim::SampledSimulator sampler(config, {.period = 200'000});
//   sim::SampledStats s = sampler.run(program);
//   // s.estimate.ipc(), s.ipc_stderr, s.samples, ...
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "arch/program.hpp"
#include "sim/config.hpp"
#include "sim/probe.hpp"
#include "sim/stat_registry.hpp"
#include "sim/stats.hpp"

namespace erel {
class ThreadPool;
}

namespace erel::sim {

/// Where each sampling unit starts inside its interval. Stratified
/// (systematic random) sampling is the only placement: exactly one unit per
/// [k*period, (k+1)*period) interval, at a seeded uniform offset within it.
/// The enum and SamplingConfig::placement stay only because the benchmark
/// (perfbench/) still names them; they go with its replay (ROADMAP item 2).
enum class Placement {
  kStratified,
};

struct SamplingConfig;

/// Whether a SampledSimulator can run `sampling`: the window measures
/// something (`detail` > 0), warmup + detail fits strictly inside the
/// period (tested so the sum cannot wrap), and `target_ci` is finite and
/// non-negative. The constructor checks it; the wire decoder and the sweep
/// CLIs refuse a config that fails it.
[[nodiscard]] bool valid_sampling(const SamplingConfig& sampling);

/// Appends every result-affecting SamplingConfig field as canonical
/// `name=value` lines for the experiment-result cache fingerprint
/// (harness/fingerprint.hpp). `threads` is deliberately excluded: sharded
/// measurement is bit-identical to serial at any thread count, so the same
/// cached result serves both.
void append_canonical_fields(const SamplingConfig& sampling, std::string& out);

/// Inverse of append_canonical_fields (experiment-daemon wire format).
/// Strict: every canonical field present exactly once, no unknown names,
/// and valid_sampling must hold — a malformed request parses as nullopt,
/// never aborts.
[[nodiscard]] std::optional<SamplingConfig> sampling_from_canonical_fields(
    const record::FieldMap& fields);

struct SamplingConfig {
  /// Length of each sampling interval: unit k starts inside
  /// [k * period, (k + 1) * period - warmup - detail]. Must exceed
  /// `warmup + detail` for the fast-forward to actually skip work.
  std::uint64_t period = 100'000;

  /// Detailed but unmeasured instructions run before each measurement to
  /// warm caches, branch predictors and the register file.
  std::uint64_t warmup = 2'000;

  /// Measured detailed instructions per sampling unit.
  std::uint64_t detail = 10'000;

  /// Constants, not settings: every interval is sampled (no cap) and the
  /// fast-forward always warms predictors and caches. They have no
  /// canonical line. The names stay only because the benchmark's replay
  /// (perfbench/src/replay.cpp) reads them, and go when the replay does
  /// (ROADMAP item 2).
  static constexpr std::uint64_t max_samples = 0;
  static constexpr bool functional_warming = true;

  /// One-valued (see Placement): no canonical line, read only by the
  /// benchmark.
  Placement placement = Placement::kStratified;

  /// Seed for each unit's offset inside its interval and for the
  /// unit-scheduling shuffle used by confidence-driven stopping. The same
  /// seed reproduces the same SampleRecords bit-for-bit at any thread count.
  std::uint64_t seed = 0;

  /// Confidence-driven stopping: when > 0, units are measured in seeded
  /// random batches and measurement stops as soon as the 95% CI half-width
  /// on the IPC estimate (delta method) drops to `target_ci` or below.
  /// 0 = measure every planned unit.
  double target_ci = 0.0;

  /// Measurement workers. 1 (default) measures each unit inline on the
  /// calling thread, between planning steps; N > 1 measures on a pool of N
  /// workers while the calling thread plans on; 0 = hardware concurrency.
  /// Results are identical at any value. A run handed a pool
  /// (SampledSimulator::run_group, as harness::run_all does) measures on
  /// that pool the same way and ignores this field.
  unsigned threads = 1;
};

/// One measured interval.
struct SampleRecord {
  std::uint64_t start_instruction = 0;  // icount at the checkpoint
  std::uint64_t instructions = 0;       // measured commits
  std::uint64_t cycles = 0;             // cycles spent on them

  bool operator==(const SampleRecord&) const = default;

  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(instructions) / cycles;
  }
  [[nodiscard]] double cpi() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(cycles) / instructions;
  }
};

struct SampledStats {
  /// Whole-program estimate: `committed` is the exact dynamic instruction
  /// count (the functional oracle executes every instruction), `cycles` is
  /// extrapolated from the mean sampled CPI. Microarchitectural counters
  /// (branches, stalls, caches, occupancy) are left zero — see `measured`.
  SimStats estimate;

  /// Raw sums of the detailed windows (warmup + measured), unscaled: what
  /// the pipeline actually simulated. Materialized from `registry`.
  SimStats measured;

  /// Merged measurement-window StatRegistry: counters and accumulators
  /// summed, time-series channels appended — always
  /// in interval order, so the merged registry is bit-identical at any
  /// thread count (sharded == serial, for *every* metric). Probe-registered
  /// entries merge the same way. Not serialized into the result cache.
  StatRegistry registry;

  /// Measured intervals in interval order (deterministic at any thread
  /// count).
  std::vector<SampleRecord> samples;

  // The whole-program estimator is the arithmetic mean of per-sample CPI
  // (SMARTS); its dispersion propagates to IPC by the delta method
  // (stderr_ipc = stderr_cpi / cpi_mean^2), so the IPC error bars are
  // centered on estimate.ipc() == 1 / cpi_mean.
  double cpi_mean = 0.0;
  double cpi_stddev = 0.0;  // sample stddev (n-1) of per-sample CPI
  double cpi_stderr = 0.0;
  double ipc_mean = 0.0;    // arithmetic mean of per-sample IPC (descriptive)
  double ipc_stddev = 0.0;  // dispersion of per-sample IPC (descriptive)
  double ipc_stderr = 0.0;  // delta-method stderr of estimate.ipc()
  double ipc_ci95 = 0.0;    // 1.96 * ipc_stderr

  std::uint64_t total_instructions = 0;     // exact dynamic count
  std::uint64_t measured_instructions = 0;  // sum over samples
  std::uint64_t detailed_instructions = 0;  // incl. warmup

  /// Units the planning pass captured checkpoints for; with
  /// confidence-driven stopping, `samples.size()` can be smaller.
  std::uint64_t units_planned = 0;

  /// Measurement windows dropped because they recorded committed
  /// instructions but zero measured cycles (warm-up ran into a run-control
  /// limit); they would otherwise poison the IPC mean with infinities.
  std::uint64_t degenerate_windows = 0;

  /// Fraction of the program that ran through the detailed pipeline.
  [[nodiscard]] double detail_fraction() const {
    return total_instructions == 0
               ? 0.0
               : static_cast<double>(detailed_instructions) /
                     static_cast<double>(total_instructions);
  }
};

/// Whether one planning pass serves both configs (the plan key): the same
/// `ghr_bits`, the same whole `memory` config and the same `fast_path`.
/// Those are the only config fields the planning pass reads.
[[nodiscard]] bool same_plan(const SimConfig& a, const SimConfig& b);

class SampledSimulator {
 public:
  /// A group of one. Aborts unless valid_sampling(sampling).
  SampledSimulator(SimConfig config, SamplingConfig sampling);

  /// A plan group. Aborts unless valid_sampling(sampling), `configs` is
  /// non-empty and every config shares the first one's plan (same_plan).
  SampledSimulator(std::vector<SimConfig> configs, SamplingConfig sampling);

  /// Runs `program` to completion under a group of one (aborts on a larger
  /// group): one functional planning pass over the whole program
  /// (checkpoints + warm state at unit starts), streaming each unit into
  /// detailed warm-up + measurement, serial or sharded. With `target_ci` >
  /// 0 the whole plan is captured first, then measured in seeded-shuffled
  /// batches. Each measurement window attaches fresh instances of every
  /// probe in `probes` (instances are per-window, so sharding stays
  /// race-free); their registry entries merge into SampledStats::registry
  /// in interval order, bit-identically at any thread count.
  [[nodiscard]] SampledStats run(const arch::Program& program,
                                 const std::vector<ProbeSpec>& probes = {})
      const;

  /// Runs `program` under every config of the group from one planning
  /// pass and returns one SampledStats per config, in order. Each captured
  /// unit is measured once per config; confidence-driven stopping and
  /// degenerate-window handling apply per config, and each result is
  /// bit-identical to that config's own run(). `probes[i]` are config i's
  /// probes (one list per config). With a `pool`, every window is a
  /// ticket on it, replaying its unit's frozen warm copy, as on a pool of
  /// the run's own, and this thread may be one of the pool's workers, as
  /// harness::run_all's plan-group tasks are: whenever 2 * pool-size
  /// windows are unmeasured, and once planning ends, it measures its own
  /// tickets that no worker has claimed yet, so it never waits on a window
  /// queued behind other tasks.
  [[nodiscard]] std::vector<SampledStats> run_group(
      const arch::Program& program,
      const std::vector<std::vector<ProbeSpec>>& probes,
      ThreadPool* pool = nullptr) const;

 private:
  std::vector<SimConfig> configs_;
  SamplingConfig sampling_;
};

/// Human-readable sampled-run report (estimate, error bars, speedup inputs).
std::string format_sampled_stats(const SampledStats& stats);

}  // namespace erel::sim

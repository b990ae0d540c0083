// Checkpointed interval sampling (SMARTS-style) over the detailed pipeline.
//
// A run is split into instruction intervals. A single planning pass
// fast-forwards the functional oracle through the whole program (training
// predictors and caches when functional warming is on) and captures an
// arch::Checkpoint plus the warm state at the start of every sampling unit.
// Each unit is measured as soon as it is captured, while planning goes on:
// on a thread pool when sharded (the unit carries its own WarmState
// snapshot, and planning waits while 2 * threads units are unmeasured), or
// inline on the calling thread, which seeds the window from the planner's
// own warm state. A window replays its unit from the
// checkpoint — `warmup` detailed-but-unmeasured instructions prime the
// short-lived pipeline state, the next `detail` instructions are measured —
// and then frees the unit's snapshot and pages. Per-unit SampleRecords merge
// in interval order regardless of which worker produced them, so results
// are bit-identical at any thread count.
//
// Unit placement within each interval is configurable (periodic starts can
// alias with program phases), and instead of measuring every planned unit
// the sampler can keep scheduling units only until the 95% confidence
// interval on IPC is tight enough (`target_ci`).
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

namespace erel::sim {

/// Where each sampling unit starts inside its interval.
enum class Placement {
  /// Unit k starts exactly at k * period (the SMARTS default). Vulnerable
  /// to aliasing when the program has phase behavior with a period that
  /// divides the sampling period.
  kPeriodic,

  /// Seeded random gaps: consecutive unit starts are separated by a uniform
  /// draw from [window, 2*period - window] (mean gap == period), so no
  /// program phase can stay synchronized with the sampler.
  kRandom,

  /// Stratified (systematic random) sampling: exactly one unit per
  /// [k*period, (k+1)*period) interval, uniformly placed within it. Keeps
  /// periodic sampling's even coverage while breaking phase alignment; this
  /// is the recommended mode for production sweeps.
  kStratified,
};

/// "periodic" / "random" / "stratified" (for reports and CLI flags).
std::string_view placement_name(Placement placement);

/// Inverse of placement_name; nullopt on an unknown name.
[[nodiscard]] std::optional<Placement> parse_placement(std::string_view name);

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
  /// Instructions between consecutive sampling-unit starts (exactly, for
  /// `kPeriodic`; in expectation, for the randomized modes). Must exceed
  /// `warmup + detail` for the fast-forward to actually skip work.
  std::uint64_t period = 100'000;

  /// Detailed but unmeasured instructions run before each measurement to
  /// warm caches, branch predictors and the register file.
  std::uint64_t warmup = 2'000;

  /// Measured detailed instructions per sampling unit.
  std::uint64_t detail = 10'000;

  /// Hard cap on sampling units (0 = sample every interval). The planning
  /// pass always fast-forwards the remainder of the program, so the total
  /// instruction count stays exact whether or not the cap trips.
  std::uint64_t max_samples = 0;

  /// Functional warming (SMARTS): train branch predictors and caches during
  /// the fast-forward so detailed windows start with live long-history
  /// state. Costs ~2x on the fast-forward, removes most cold-start bias;
  /// turn off only to measure that bias.
  bool functional_warming = true;

  /// Interval placement mode (see Placement).
  Placement placement = Placement::kPeriodic;

  /// Seed for the randomized placement modes and for the unit-scheduling
  /// shuffle used by confidence-driven stopping. The same seed reproduces
  /// the same SampleRecords bit-for-bit at any thread count.
  std::uint64_t seed = 0;

  /// Confidence-driven stopping: when > 0, units are measured in seeded
  /// random batches and measurement stops as soon as the 95% CI half-width
  /// on the IPC estimate (delta method) drops to `target_ci` or below —
  /// `max_samples` (when set) stays a hard cap. 0 = measure every planned
  /// unit.
  double target_ci = 0.0;

  /// Measurement workers. 1 (default) measures each unit inline on the
  /// calling thread, between planning steps; N > 1 measures on a pool of N
  /// workers while the calling thread plans on; 0 = hardware concurrency.
  /// Results are identical at any value.
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

class SampledSimulator {
 public:
  /// Aborts unless valid_sampling(sampling).
  SampledSimulator(SimConfig config, SamplingConfig sampling);

  /// Runs `program` to completion: one functional planning pass over the
  /// whole program (checkpoints + warm state at unit starts), streaming
  /// each unit into detailed warm-up + measurement, serial or sharded. With
  /// `target_ci` > 0 the whole plan is captured first, then measured in
  /// seeded-shuffled batches. Each measurement window attaches fresh
  /// instances of every probe in `probes` (instances are per-window, so
  /// sharding stays race-free); their registry entries merge into
  /// SampledStats::registry in interval order, bit-identically at any
  /// thread count.
  [[nodiscard]] SampledStats run(const arch::Program& program,
                                 const std::vector<ProbeSpec>& probes = {})
      const;

  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] const SamplingConfig& sampling() const { return sampling_; }

 private:
  SimConfig config_;
  SamplingConfig sampling_;
};

/// Human-readable sampled-run report (estimate, error bars, speedup inputs).
std::string format_sampled_stats(const SampledStats& stats);

}  // namespace erel::sim

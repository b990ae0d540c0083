// erelbench shared pieces: the benchmark's fixed work, host timing, the
// span tracer and the report every workload fills in.
//
// The benchmark drives erel only through its public functions and times
// each layer from outside, around the call into it. Every timing here is
// host time; simulated results appear only as exact counts (model.*) and
// as accuracy against committed full-detail references (ipc_err_pct).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/program.hpp"
#include "core/release_policy.hpp"
#include "sim/config.hpp"
#include "sim/sampling.hpp"

namespace erelbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

// ---- the benchmark's fixed work ------------------------------------------
// Pinned here, not taken from the workload registry or CLI defaults, so a
// change to either cannot silently change what the benchmark runs.

constexpr unsigned kThreads = 4;  // harness pool, daemon workers, go-long shards

struct Kernel {
  const char* name;
  bool is_fp;
  std::string (*source)();  // the kernel at the benchmark's scale
};

/// The ten SPEC95 analogues, integer then FP, at pinned scales.
const std::vector<Kernel>& kernels();
std::vector<std::string> kernel_names();
bool is_fp_kernel(const std::string& name);

/// Exits unless every kernel the sweeps name by registry name assembles
/// from exactly the pinned source above.
void verify_pinned_kernels();

const std::vector<erel::core::PolicyKind>& policies();  // conv, basic, extended
const std::vector<unsigned>& full_sizes();              // fig11-full
const std::vector<unsigned>& sampled_sizes();           // fig11-sampled
const std::vector<unsigned>& daemon_sizes();            // daemon-sweep

/// Smoke-scale sweeps (self-test only): two kernels, extended, 48 regs.
const std::vector<std::string>& smoke_kernels();

/// fig11-sampled and daemon-sweep cells: period 100k, warmup 2k, detail
/// 10k, stratified, one sampling thread per cell.
erel::sim::SamplingConfig sweep_sampling(std::uint64_t seed);

/// go-long: kernel_go(19200) at extended 64+64, period 500k, warmup 20k,
/// detail 50k, stratified, measurement sharded over kThreads.
constexpr unsigned kGoSweeps = 19200;
constexpr unsigned kGoSmokeSweeps = 240;
inline const char* const kGoLongName = "go19200";
erel::sim::SimConfig go_config();
erel::sim::SamplingConfig go_sampling(std::uint64_t seed);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       // tiny inputs: self-test only, not a measurement
  std::string scratch_dir;  // temporary stores (daemon-sweep)
  std::string spans_path;   // traced run: where spans are written
  std::string reference;    // committed full-detail reference IPCs
};

// ---- tracing ---------------------------------------------------------------

/// In-memory span recorder. A span is (name, start, end, parent); spans are
/// kept in memory and written out once, when the run ends. A disabled
/// tracer records nothing, so untraced runs pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled) for children to
  /// name as their parent.
  std::uint64_t open(const char* name, std::uint64_t parent = 0);
  void close(std::uint64_t id);

  /// Durations (seconds) of every closed span called `name`.
  [[nodiscard]] std::vector<double> seconds(std::string_view name) const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Record {
    const char* name = nullptr;
    std::uint64_t parent = 0;
    Clock::time_point start;
    Clock::time_point end;
    bool closed = false;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // span id - 1 indexes this
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

// ---- summaries ---------------------------------------------------------------

/// Linearly interpolated percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
double sum(const std::vector<double>& values);

/// a / b, or 0 when b is 0 (a layer the run did not exercise).
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// ---- the report ----------------------------------------------------------------

/// What one run prints: named metric values, and the correctness tally
/// (`attempted` operations, `failed` among them).
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }

  /// Counts one attempted operation; a false `ok` counts it failed and
  /// says why on stderr.
  void expect(bool ok, std::string_view what);

  [[nodiscard]] const std::map<std::string, double>& values() const {
    return values_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The declared metrics (name, unit) of each mode, as BENCHMARK.json
/// lists them: end-to-end for untraced runs, per-layer for traced runs.
using MetricList = std::vector<std::pair<std::string, std::string>>;
const MetricList& end_to_end_metrics();
const MetricList& layer_metrics();

/// "<workload>/<policy>/<phys>", the reference-file key of one cell.
std::string cell_key(const std::string& workload,
                     erel::core::PolicyKind policy, unsigned phys);

/// Committed full-detail IPCs (reference_ipc.tsv), keyed by cell_key().
class References {
 public:
  /// Exits on a missing or malformed file.
  static References load(const std::string& path);
  [[nodiscard]] std::optional<double> ipc(const std::string& key) const;

 private:
  std::map<std::string, double> ipc_;
};

/// Sets `ipc_err_pct`: the mean absolute IPC error (percent) of
/// `(cell_key, ipc)` cells against the references. Cells without a
/// reference are skipped; finding none at all is a failure unless `smoke`.
void report_ipc_error(const References& refs,
                      const std::vector<std::pair<std::string, double>>& cells,
                      bool smoke, Report& report);

/// Writes reference_ipc.tsv: the 90 fig11-full cells and one full go-long
/// run, all at full detail.
void write_references(const std::string& path);

// ---- workloads -------------------------------------------------------------------

/// Each runs one workload for about `opts.seconds` and fills `report`: the
/// end-to-end metrics when untraced, the per-layer metrics when traced.
void run_fig11(const Options& opts, bool sampled, Tracer& tracer,
               Report& report);
void run_go_long(const Options& opts, Tracer& tracer, Report& report);
void run_daemon_sweep(const Options& opts, Tracer& tracer, Report& report);

/// A sampled run replayed from public calls (ArchState::step,
/// WarmState::observe, arch::capture, the WarmState copy and one
/// pipeline::Core per unit), so each sampling stage gets its own spans.
struct Replay {
  bool is_fp = false;
  std::vector<erel::sim::SampleRecord> samples;
  std::uint64_t total_instructions = 0;
  std::uint64_t window_committed = 0;  // warmup + measured, all windows
  std::uint64_t window_cycles = 0;
  std::uint64_t warmed = 0;     // instructions stepped through WarmState
  double plan_s = 0.0;          // the serial planning pass
  double window_s = 0.0;        // summed host time of the detailed windows
  double measure_wall_s = 0.0;  // wall time of the (sharded) measurement
};

/// Plans `program` once, then measures every unit once per entry of
/// `shard_threads`, on that many threads; `out[j]` is the measurement on
/// `shard_threads[j]` threads. Only the first measurement is spanned.
std::vector<Replay> replay_sampled(const erel::arch::Program& program,
                                   const erel::sim::SimConfig& config,
                                   const erel::sim::SamplingConfig& sampling,
                                   const std::vector<unsigned>& shard_threads,
                                   Tracer& tracer, std::uint64_t parent);

/// Fills the sampling- and pipeline-layer metrics from replays whose
/// measurement a timed run shards over `threads`.
void report_replays(const std::vector<Replay>& replays, unsigned threads,
                    const Tracer& tracer, Report& report);

// ---- shared helpers -----------------------------------------------------------

/// Set-up repetitions, made once before a run's passes and once after
/// them, so one burst of host noise cannot set setup_s; setup_s reports
/// the median of both batches.
constexpr unsigned kSetupReps = 25;

/// Times `reps` calls of `fn`, appending each call's host seconds to
/// `out`. Whatever `fn` returns (a pool, a daemon) is destroyed after its
/// call is timed, so tear-down stays out of the measurement.
template <typename Fn>
void time_calls(unsigned reps, Fn&& fn, std::vector<double>& out) {
  for (unsigned i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      out.push_back(seconds_since(t0));
    } else {
      const auto kept = fn();
      out.push_back(seconds_since(t0));
    }
  }
}

/// Runs `pass` at least `min_passes` times, then keeps going while one
/// more pass would end closer to `budget` seconds than stopping now does.
/// Returns each pass's wall time.
template <typename Pass>
std::vector<double> timed_passes(double budget, unsigned min_passes,
                                 Pass&& pass) {
  std::vector<double> walls;
  const Clock::time_point t0 = Clock::now();
  while (walls.size() < min_passes ||
         seconds_since(t0) + walls.back() / 2 < budget) {
    const Clock::time_point p0 = Clock::now();
    pass();
    walls.push_back(seconds_since(p0));
  }
  return walls;
}

/// Assembles (asmkit.assemble spans) and decodes (arch.decode spans) the
/// named programs: registry kernels, or "go@<sweeps>" for go-long's
/// kernel_go(<sweeps>). The set-up a run does before its first cell.
std::vector<erel::arch::Program> assemble_programs(
    const std::vector<std::string>& names, Tracer& tracer);

/// Sets asmkit.assemble_ms and arch.decode_ms from the spans
/// assemble_programs recorded.
void report_setup_layers(const Tracer& tracer, Report& report);

/// Fills the model.* counts: exact simulated totals over the run's cells.
void report_model(Report& report, std::uint64_t committed,
                  std::uint64_t cycles, std::uint64_t detailed,
                  std::uint64_t units);

/// Checks one cell's outcome: halted, committed > 0, finite positive IPC.
void expect_cell(Report& report, const std::string& what, bool halted,
                 std::uint64_t committed, double ipc);

/// Sets wall_s and cell_ms.p50 for a workload whose caller receives every
/// cell at the end of a pass: each cell's latency is that pass's wall.
void report_batch_walls(const std::vector<double>& walls, Report& report);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Process CPU time (user + system), seconds.
double process_cpu_s();

}  // namespace erelbench

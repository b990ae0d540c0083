// Typed experiment results: (structured key -> stats) with the aggregates
// the paper's tables and figures need, CSV/JSON sinks, and the text
// serialization the on-disk result cache stores.
//
// Keys are structural, not positional: an `ExpKey` names a cell of the
// experiment cross-product (workload x policy x register-file size x
// free-form variant), so results never depend on replaying a sweep's loop
// order — the pairing bug the old benchutil::run_sweep had by construction.
//
// Cache entry format (one file per cell, named <fingerprint-hex>.erelres,
// see harness/fingerprint.hpp):
//
//   erel-result v1
//   fingerprint <hex16>
//   key.workload <name>
//   key.policy conv|basic|extended
//   key.phys <unsigned>
//   key.variant [axis=label[,axis=label...]]
//   kind full|sampled
//   stats.<field> <value>              every SimStats field, exhaustively
//   [sampled.estimate.<field> ...]     sampled runs: full SampledStats
//   [sampled.measured.<field> ...]
//   [sampled.<moment> ...]
//   [samples <count>]
//   [s <start_instruction> <instructions> <cycles>]...
//   [metric.<name> <double>]...        open probe-exported metrics, in order
//   end
//
// The lines are common/record.hpp records: values are decimal integers,
// exact "0"/"1" bools or "%.17g" doubles (bit-exact round-trip for IEEE
// binary64). An entry parses only when every field its kind requires
// appears exactly once and nothing else does: a full entry carries no
// sampled., samples or s line, a sampled one needs them all, and the
// sample count matches the s lines. Anything else — an unknown or repeated
// line, a malformed value, a missing "end" (a truncated write) or text
// after it — is a cache miss, never a wrong result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/release_policy.hpp"
#include "sim/probe.hpp"
#include "sim/sampling.hpp"
#include "sim/stats.hpp"

namespace erel::harness {

/// Structured coordinates of one experiment cell.
struct ExpKey {
  std::string workload;
  core::PolicyKind policy = core::PolicyKind::Conventional;
  unsigned phys = 0;       // symmetric register-file size axis
  std::string variant;     // joined extra-axis labels, "" when none

  auto operator<=>(const ExpKey&) const = default;

  /// "workload/policy/phys[/variant]" for logs and error messages.
  [[nodiscard]] std::string to_string() const;
};

/// One cell's result. `sampled` is set when the cell ran (or was cached)
/// under interval sampling; `stats` then holds the sampled estimate.
struct ExpEntry {
  ExpKey key;
  sim::SimStats stats;
  std::optional<sim::SampledStats> sampled;

  /// Open named metrics exported by the cell's probes (Instrumentation API
  /// v2). Flow through the CSV/JSON sinks as extra columns and round-trip
  /// through the cache format's `metric.` lines.
  std::vector<sim::Metric> metrics;

  bool from_cache = false;

  [[nodiscard]] double ipc() const { return stats.ipc(); }

  /// 95% CI half-width on IPC; 0 for full-detail cells (exact).
  [[nodiscard]] double ipc_ci95() const {
    return sampled ? sampled->ipc_ci95 : 0.0;
  }

  /// Metric lookup; nullopt when the cell has no metric of that name.
  [[nodiscard]] std::optional<double> metric(std::string_view name) const;
};

class ResultSet {
 public:
  void add(ExpEntry entry);

  [[nodiscard]] bool contains(const ExpKey& key) const;
  /// Aborts with the key's coordinates when the cell is missing.
  [[nodiscard]] const ExpEntry& at(const ExpKey& key) const;
  [[nodiscard]] const sim::SimStats& stats(const ExpKey& key) const;
  [[nodiscard]] double ipc(const ExpKey& key) const;

  [[nodiscard]] const std::vector<ExpEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  // ---- axis slices (unique values, first-seen order) ----
  [[nodiscard]] std::vector<std::string> workloads() const;
  [[nodiscard]] std::vector<core::PolicyKind> policies() const;
  [[nodiscard]] std::vector<unsigned> phys_sizes() const;
  [[nodiscard]] std::vector<std::string> variants() const;

  // ---- aggregates (the paper reduces sweeps to harmonic-mean IPC) ----

  /// Harmonic-mean IPC over `names` at one (policy, phys, variant) point.
  [[nodiscard]] double hmean_ipc(const std::vector<std::string>& names,
                                 core::PolicyKind policy, unsigned phys,
                                 const std::string& variant = "") const;

  /// Delta-method propagation of the per-cell sampling CIs through the
  /// harmonic mean: dH/dx_i = H^2 / (n x_i^2). 0 when every cell is exact.
  [[nodiscard]] double hmean_ipc_ci95(const std::vector<std::string>& names,
                                      core::PolicyKind policy, unsigned phys,
                                      const std::string& variant = "") const;

  /// hmean(policy) / hmean(baseline) - 1; NaN when either mean collapses
  /// to 0 (TextTable::pct renders NaN as "n/a").
  [[nodiscard]] double speedup_vs(const std::vector<std::string>& names,
                                  core::PolicyKind policy,
                                  core::PolicyKind baseline, unsigned phys,
                                  const std::string& variant = "") const;

  /// Union of metric names across entries, first-seen order (the open
  /// metric columns of the CSV sink).
  [[nodiscard]] std::vector<std::string> metric_names() const;

  // ---- provenance ----
  [[nodiscard]] std::size_t cache_hits() const;
  [[nodiscard]] std::size_t simulated() const {
    return entries_.size() - cache_hits();
  }

  // ---- sinks ----
  /// One row per cell: key columns, headline stats, sampling CI.
  void write_csv(const std::string& path) const;
  /// Full dump: every SimStats field per cell, plus the sampled moments
  /// and per-sample records when present.
  void write_json(const std::string& path) const;

 private:
  [[nodiscard]] const ExpEntry* find(const ExpKey& key) const;

  std::vector<ExpEntry> entries_;
};

// ---- cache-entry text serialization (format documented above) ----

std::string serialize_entry(const ExpEntry& entry, std::string_view fp_hex);

/// Parses one cache file's contents. Returns nullopt on any malformed,
/// truncated or version-mismatched input (treated as a cache miss), or when
/// the stored fingerprint — or any key coordinate the fingerprint pins
/// (workload, policy, phys) — disagrees with the expected ones (a
/// collision or a stale rename — never silently returns the wrong cell).
/// A differing `variant` label alone is a legitimate alias (two vary()
/// labelings mutating a config into identical values share one entry); the
/// returned entry carries `expect_key`.
std::optional<ExpEntry> parse_entry(std::string_view text,
                                    std::string_view expect_fp_hex,
                                    const ExpKey& expect_key);

}  // namespace erel::harness

// Hierarchical statistics registry: the open observation surface of the
// simulator.
//
// Every metric is a named entry in a flat, '/'-separated namespace
// ("stall/ros_full", "policy/int/reuses", "channel/occupancy/fp/idle").
// Three entry kinds exist:
//
//   Counter      monotone 64-bit event counter            (merge: sum)
//   Accum        additive real accumulator (integrals)    (merge: sum)
//   TimeSeries   fixed-stride channel of double samples   (merge: append)
//
// pipeline::Core owns one registry per run and publishes its counter block,
// a sim::SimStats, into it when the run finishes (publish_sim_stats);
// probes (sim/probe.hpp) may add entries of their own. SimStats is also the
// registry's typed *view* (materialize_sim_stats). Both walk the one table
// of built-in paths, sim::for_each_stat (sim/stats.hpp), while open-ended
// consumers (probe metric export, sampled merging, time-series exports)
// iterate the registry directly.
//
// Handles returned by counter()/accum()/... are stable references into the
// registry for its lifetime (std::map nodes); copying a registry copies the
// values, not the handles.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace erel::sim {

class StatRegistry {
 public:
  /// Monotone event counter.
  struct Counter {
    std::uint64_t value = 0;

    Counter& operator++() {
      ++value;
      return *this;
    }
    Counter& operator+=(std::uint64_t delta) {
      value += delta;
      return *this;
    }
    bool operator==(const Counter&) const = default;
  };

  /// Additive real-valued accumulator (occupancy integrals, energies).
  struct Accum {
    double value = 0.0;

    Accum& operator+=(double delta) {
      value += delta;
      return *this;
    }
    bool operator==(const Accum&) const = default;
  };

  /// Fixed-stride time-series channel. `stride` is the x-axis step in
  /// whatever unit the producer documents (the core's built-in channels use
  /// cycles); points[k] covers [k*stride, (k+1)*stride). The final point of
  /// a run may cover a partial stride.
  struct TimeSeries {
    std::uint64_t stride = 0;
    std::vector<double> points;

    void push(double v) { points.push_back(v); }
    bool operator==(const TimeSeries&) const = default;
  };

  using Entry = std::variant<Counter, Accum, TimeSeries>;

  // ---- registration / lookup (create on first use) ----
  // Re-registering an existing path with a different kind is fatal: two
  // subsystems disagreeing about a metric's type is a bug, not a merge.
  Counter& counter(std::string_view path);
  Accum& accum(std::string_view path);
  TimeSeries& channel(std::string_view path, std::uint64_t stride);

  // ---- const lookup (nullptr / default when missing) ----
  [[nodiscard]] const Counter* find_counter(std::string_view path) const;
  [[nodiscard]] const Accum* find_accum(std::string_view path) const;
  [[nodiscard]] const TimeSeries* find_channel(std::string_view path) const;

  [[nodiscard]] std::uint64_t counter_value(std::string_view path) const;
  [[nodiscard]] double accum_value(std::string_view path) const;

  /// All entries, path-sorted (deterministic iteration for sinks/tests).
  [[nodiscard]] const std::map<std::string, Entry, std::less<>>& entries()
      const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Folds `other` into this registry: counters and accums add, time-series
  /// append (callers merge window registries in interval order, so appended
  /// channels are deterministic). Entries missing on either side are copied
  /// / left alone; a path present on both sides with different kinds is
  /// fatal.
  void merge_from(const StatRegistry& other);

  bool operator==(const StatRegistry&) const = default;

 private:
  template <class Kind>
  Kind& get_or_create(std::string_view path);

  std::map<std::string, Entry, std::less<>> entries_;
};

// ---------------------------------------------------------------------------
// Built-in registry paths populated by pipeline::Core. sim::for_each_stat
// pairs each SimStats field with its path; adding a core metric means
// adding a SimStats field and its line there.
// ---------------------------------------------------------------------------

inline constexpr std::string_view kStatCycles = "core/cycles";
inline constexpr std::string_view kStatCommitted = "core/committed";
inline constexpr std::string_view kStatHalted = "core/halted";
inline constexpr std::string_view kStatFlushes = "core/flushes_injected";
inline constexpr std::string_view kStatIcacheStalls =
    "fetch/icache_stall_cycles";

inline constexpr std::string_view kStatCondBranches = "branch/cond_branches";
inline constexpr std::string_view kStatCondMispredicts =
    "branch/cond_mispredicts";
inline constexpr std::string_view kStatIndirectJumps = "branch/indirect_jumps";
inline constexpr std::string_view kStatIndirectMispredicts =
    "branch/indirect_mispredicts";

inline constexpr std::string_view kStatStallRos = "stall/ros_full";
inline constexpr std::string_view kStatStallLsq = "stall/lsq_full";
inline constexpr std::string_view kStatStallCheckpoints =
    "stall/checkpoints_full";
inline constexpr std::string_view kStatStallFreeList = "stall/free_list_empty";

/// Group prefixes: "<prefix>/<int|fp>/<leaf>" per register class, and
/// "cache/<l1i|l1d|l2>/<leaf>".
inline constexpr std::string_view kStatPolicyPrefix = "policy";
inline constexpr std::string_view kStatRegfilePrefix = "regfile";
inline constexpr std::string_view kStatCachePrefix = "cache";

/// Fixed-stride channels recorded when SimConfig::stat_stride > 0:
///   channel/occupancy/<int|fp>/<empty|ready|idle>  avg registers per stride
inline constexpr std::string_view kChannelPrefix = "channel";

/// "int" / "fp" path component for class index 0 / 1.
[[nodiscard]] std::string_view stat_class_name(unsigned cls);

/// Occupancy integral leaves, ordered {empty, ready, idle}.
inline constexpr std::string_view kStatOccIntegralLeaves[3] = {
    "empty_integral", "ready_integral", "idle_integral"};

struct SimStats;

/// Writes every field of `counters` to its for_each_stat path: a counter
/// per integer or bool field, an accum per occupancy field. An occupancy
/// field is written as it stands, so a publisher puts the integral there
/// (pipeline::Core's counter block does).
void publish_sim_stats(const SimStats& counters, StatRegistry& registry);

/// Materializes the SimStats view from a finalized registry, reading each
/// field from its for_each_stat path. Occupancy averages are derived as
/// integral / cycles, so the view is value-identical to the pre-registry
/// implementation (golden-pinned by tests).
[[nodiscard]] SimStats materialize_sim_stats(const StatRegistry& registry);

}  // namespace erel::sim

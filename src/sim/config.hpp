// Simulation configuration. Defaults reproduce the paper's Table 2
// processor; experiments vary `policy` and the physical register counts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/release_policy.hpp"
#include "core/rename_unit.hpp"
#include "mem/hierarchy.hpp"
#include "pipeline/fetch.hpp"
#include "pipeline/fu_pool.hpp"

namespace erel::sim {

struct SimConfig {
  core::PolicyKind policy = core::PolicyKind::Conventional;

  /// When set, overrides `policy` with a user-supplied ReleasePolicy
  /// implementation (see examples/custom_release_policy.cpp).
  core::PolicyFactory policy_factory;

  // Register files (paper: 40-160 int / 40-160 FP, 32+32 logical).
  unsigned phys_int = 96;
  unsigned phys_fp = 96;

  // Pipeline widths and structures (Table 2).
  unsigned ros_size = 128;
  unsigned lsq_size = 64;
  unsigned decode_width = 8;
  unsigned issue_width = 8;
  unsigned commit_width = 8;
  unsigned max_pending_branches = 20;
  unsigned ghr_bits = 18;
  pipeline::FetchConfig fetch;
  pipeline::FuConfig fus;
  mem::HierarchyConfig memory;

  // Run control.
  std::uint64_t max_cycles = 2'000'000'000;
  std::uint64_t max_instructions = 0;  // 0 = run to completion (HALT)

  // Verification.
  bool check_oracle = true;  // lock-step functional co-simulation at commit

  /// Decode-once fast path (arch::DecodedProgram): pre-decode the program
  /// into micro-op records shared by fetch, the commit oracle and sampled
  /// planning/warming. Semantics-preserving by construction (stores into
  /// the code image fall back to byte-accurate decode), so results are
  /// bit-identical either way and the flag is excluded from the result-cache
  /// fingerprint. Off only for A/B throughput measurement
  /// (bench/sim_throughput) and the engine-equivalence tests.
  bool fast_path = true;

  /// Instrumentation (API v2): when > 0, the core records fixed-stride
  /// time-series channels into its StatRegistry — per-stride Empty/Ready/
  /// Idle occupancy per register class and commits per stride — with one
  /// point every `stat_stride` cycles. Channels never change simulation
  /// results (stats are value-identical at any stride), so the field is
  /// excluded from the result-cache fingerprint; read channels from a live
  /// core's registry, not from cached cells.
  ///
  /// Per-committed-instruction observation (the old `trace` callback) is a
  /// probe now: attach a sim::Probe (e.g. trace::CaptureProbe) to the core
  /// and handle CommitEvents.
  // erel-lint: allow(fingerprint-coverage): stats are stride-invariant
  std::uint64_t stat_stride = 0;

  // Exception-injection fuzzing (§4.3 recovery): flush the pipeline and
  // re-execute from the head instruction every `flush_period` commits.
  std::uint64_t flush_period = 0;  // 0 = off

  /// Loose/tight classification (paper §2): loose iff P >= L + N.
  [[nodiscard]] bool is_loose(unsigned phys) const {
    return phys >= isa::kNumLogicalRegs + ros_size;
  }
};

/// True when the config's simulation results are a pure function of the
/// fields below — i.e. no user-supplied callbacks. Configs carrying a
/// `policy_factory` cannot be fingerprinted for the on-disk result cache
/// (harness/fingerprint.hpp) and are always re-run.
[[nodiscard]] bool config_fingerprintable(const SimConfig& config);

/// Appends every result-affecting field as canonical `name=value` lines.
/// This is the stable serialization the experiment-result cache hashes:
/// adding, removing or reordering a field here invalidates old cache
/// entries (by design — the hash must change when semantics can).
void append_canonical_fields(const SimConfig& config, std::string& out);

/// Inverse of append_canonical_fields, used by the experiment daemon to
/// reconstruct a client's config from the wire (src/service/). Strict by
/// design: every canonical field must be present exactly once and no
/// unknown name may appear, so a client and daemon built from different
/// field lists fail loudly (nullopt) instead of silently simulating a
/// different machine. Fields excluded from the canonical rendering
/// (fast_path, stat_stride) keep their defaults: neither changes results.
[[nodiscard]] std::optional<SimConfig> config_from_canonical_fields(
    const std::map<std::string, std::string, std::less<>>& fields);

}  // namespace erel::sim

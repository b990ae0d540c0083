// Content-addressed fingerprints for experiment cells.
//
// A fingerprint is a 64-bit FNV-1a hash over a canonical text rendering of
// everything that determines a cell's simulation result:
//
//   erel-fp-v1                      format version (bump to flush caches)
//   workload=<name>
//   workload_content=<hash>         FNV-1a of the kernel's assembly source
//   <SimConfig canonical fields>    sim::append_canonical_fields
//   sampling=none | <SamplingConfig canonical fields>
//   [probe=<name>]...               declared probe names, in order
//
// Probe lines only appear when an experiment attaches probes, so every
// pre-probe fingerprint is unchanged. A probe's *name* stands in for its
// implementation (probes are user code with no hashable content): rename a
// probe when its exported metrics change meaning, exactly like vary()
// axis labels.
//
// Two cells with equal fingerprints therefore produce bit-identical
// statistics, which is what lets `Experiment::run` reuse on-disk results
// across processes: the cache file name *is* the fingerprint
// (<hex16>.erelres in the cache directory). Thread counts are excluded on
// both levels (harness pool size and SamplingConfig::threads) because they
// never change results, only wall-clock.
//
// Workloads hash their generated assembly text, so a kernel generator
// change invalidates exactly that kernel's entries. Only names the workload
// registry resolves (find_workload) have a fingerprint; nothing here reads
// the filesystem. A SimConfig is plain data, so every config has one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "sim/sampling.hpp"

namespace erel::harness {

/// 64-bit FNV-1a (offset 14695981039346656037, prime 1099511628211).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t seed = 14695981039346656037ull);

struct Fingerprint {
  std::uint64_t value = 0;

  bool operator==(const Fingerprint&) const = default;

  /// 16 lowercase hex digits, the cache file basename.
  [[nodiscard]] std::string hex() const;
};

/// Fingerprint of one experiment cell. Aborts (via the workload registry)
/// on unknown workload names; a caller holding an untrusted name checks it
/// with workloads::find_workload first. `probe_names` are the cell's
/// attached probe names in declaration order ({} = none, the historical
/// hash).
[[nodiscard]] Fingerprint fingerprint_cell(
    const std::string& workload, const sim::SimConfig& config,
    const std::optional<sim::SamplingConfig>& sampling,
    const std::vector<std::string>& probe_names = {});

}  // namespace erel::harness

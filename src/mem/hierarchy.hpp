// Three-level memory hierarchy matching the paper's Table 2:
//   L1 I-cache : 32 KB, 2-way, 32 B lines, 1-cycle hit
//   L1 D-cache : 32 KB, 2-way, 64 B lines, 1-cycle hit
//   L2 unified : 1 MB, 2-way, 64 B lines, 12-cycle hit
//   Memory     : unbounded, 50-cycle access
//
// The hierarchy is a latency model: each access returns the number of cycles
// until data is available. Caches are non-blocking with unbounded MSHRs
// (bandwidth is limited by the pipeline's four load/store units); writebacks
// are counted but charged no latency, as in sim-outorder's default model.
#pragma once

#include <cstdint>

#include "mem/cache.hpp"

namespace erel::mem {

struct HierarchyConfig {
  CacheConfig l1i{"L1I", 32 * 1024, 2, 32, 1};
  CacheConfig l1d{"L1D", 32 * 1024, 2, 64, 1};
  CacheConfig l2{"L2", 1024 * 1024, 2, 64, 12};
  unsigned memory_latency = 50;

  bool operator==(const HierarchyConfig&) const = default;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& config);

  /// Latency of an instruction fetch touching `addr`.
  unsigned ifetch(std::uint64_t addr);

  /// Latency of a data load / store touching `addr`.
  unsigned dload(std::uint64_t addr);
  unsigned dstore(std::uint64_t addr);

  [[nodiscard]] const Cache& l1i() const { return l1i_; }
  [[nodiscard]] const Cache& l1d() const { return l1d_; }
  [[nodiscard]] const Cache& l2() const { return l2_; }

  /// Zeroes all cache counters, keeping contents. Used when a pre-warmed
  /// hierarchy is handed to a measured run (sampled simulation): the tags
  /// carry over, the warming accesses must not pollute the window's stats.
  void reset_stats() {
    l1i_.reset_stats();
    l1d_.reset_stats();
    l2_.reset_stats();
  }

 private:
  unsigned data_access(std::uint64_t addr, bool is_write);

  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  unsigned memory_latency_;
};

}  // namespace erel::mem

// Set-associative cache with true-LRU replacement and write-back /
// write-allocate policy. Purely a timing/occupancy model: data always lives
// in SparseMemory; the cache tracks tags so the hierarchy can assign
// latencies (matching sim-outorder's cache model granularity).
//
// A way is one 64-bit word: its tag, with the valid and dirty flags in the
// two top bits (a tag is addr >> log2(line_bytes * sets), and the
// constructor requires line_bytes * sets >= 4, so those bits are always
// free). Recency is the order of the ways within their set, most recent
// first, so there is no per-way timestamp: a hit moves its way to the
// front, a fill enters at the front and the last way leaves. Invalid ways
// therefore always trail the valid ones, and the victim is an invalid way
// while one is left, else the least recently used — the same victim a
// global LRU clock picks. The sampler copies the warmed caches into every
// detailed window (sim/warm_state.hpp), so the word per way is what a copy
// costs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace erel::mem {

struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  unsigned associativity = 2;
  unsigned line_bytes = 64;
  unsigned hit_latency = 1;

  bool operator==(const CacheConfig&) const = default;
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / accesses;
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Probes and updates the cache for one access. Returns true on hit. On a
  /// miss the line is filled (victim writeback counted if dirty).
  bool access(std::uint64_t addr, bool is_write);

  /// Probe without side effects (used by tests).
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  static constexpr std::uint64_t kValid = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kDirty = std::uint64_t{1} << 62;

  // Line size and set count are powers of two (checked at construction), so
  // the per-access index/tag math is a shift+mask — no divisions on the hot
  // path (every warmed instruction and pipeline memory access lands here).
  [[nodiscard]] std::uint64_t set_index(std::uint64_t addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const {
    return addr >> tag_shift_;
  }

  CacheConfig config_;
  CacheStats stats_;
  // sets_ * associativity words (tag | kValid | kDirty, 0 when invalid),
  // set-contiguous, each set most recently used first.
  std::vector<std::uint64_t> ways_;
  std::uint64_t sets_ = 0;
  unsigned line_shift_ = 0;  // log2(line_bytes)
  unsigned tag_shift_ = 0;   // log2(line_bytes * sets)
  std::uint64_t set_mask_ = 0;  // sets - 1
};

}  // namespace erel::mem

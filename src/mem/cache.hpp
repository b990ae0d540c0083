// Set-associative cache with true-LRU replacement and write-back /
// write-allocate policy. Purely a timing/occupancy model: data always lives
// in SparseMemory; the cache tracks tags so the hierarchy can assign
// latencies (matching sim-outorder's cache model granularity).
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
  struct Way {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;  // larger == more recently used
  };

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
  std::vector<Way> ways_;  // sets_ * associativity entries, set-contiguous
  std::uint64_t sets_ = 0;
  unsigned line_shift_ = 0;  // log2(line_bytes)
  unsigned tag_shift_ = 0;   // log2(line_bytes * sets)
  std::uint64_t set_mask_ = 0;  // sets - 1
  std::uint64_t lru_clock_ = 0;
};

}  // namespace erel::mem

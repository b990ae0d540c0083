#include "mem/cache.hpp"

#include "common/bits.hpp"
#include "common/log.hpp"

namespace erel::mem {

Cache::Cache(const CacheConfig& config) : config_(config) {
  EREL_CHECK(is_pow2(config.line_bytes), "line size must be a power of two");
  EREL_CHECK(config.associativity > 0);
  EREL_CHECK(config.size_bytes % (config.line_bytes * config.associativity) == 0,
             "cache geometry does not divide evenly");
  sets_ = config.size_bytes / (config.line_bytes * config.associativity);
  EREL_CHECK(is_pow2(sets_), "set count must be a power of two");
  line_shift_ = log2_exact(config.line_bytes);
  tag_shift_ = line_shift_ + log2_exact(sets_);
  // Keeps the two top bits of every tag free for kValid and kDirty.
  EREL_CHECK(tag_shift_ >= 2, "cache geometry needs line size times sets "
             ">= 4 bytes");
  set_mask_ = sets_ - 1;
  ways_.resize(sets_ * config.associativity);
}

bool Cache::contains(std::uint64_t addr) const {
  const std::uint64_t line = tag_of(addr) | kValid;
  const std::uint64_t* set_ways =
      ways_.data() + set_index(addr) * config_.associativity;
  for (unsigned w = 0; w < config_.associativity; ++w) {
    if ((set_ways[w] & ~kDirty) == line) return true;
  }
  return false;
}

bool Cache::access(std::uint64_t addr, bool is_write) {
  ++stats_.accesses;
  const unsigned ways = config_.associativity;
  const std::uint64_t line = tag_of(addr) | kValid;
  std::uint64_t dirty = is_write ? kDirty : 0;
  // The set's ways are contiguous: one base-pointer computation, then the
  // probe walks a cache-line-friendly stretch, most recent way first.
  std::uint64_t* const set_ways = ways_.data() + set_index(addr) * ways;
  unsigned w = 0;
  while (w < ways && (set_ways[w] & ~kDirty) != line) ++w;
  const bool hit = w < ways;
  if (hit) {
    dirty |= set_ways[w] & kDirty;
  } else {
    // Miss: the last way is invalid if any is, else the least recently
    // used. It leaves the set.
    ++stats_.misses;
    w = ways - 1;
    if ((set_ways[w] & kDirty) != 0) ++stats_.writebacks;
  }
  // The ways ahead of w move back one place; the line goes to the front.
  for (; w > 0; --w) set_ways[w] = set_ways[w - 1];
  set_ways[0] = line | dirty;
  return hit;
}

}  // namespace erel::mem

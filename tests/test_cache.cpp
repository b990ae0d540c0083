// Cache model: hit/miss behaviour, LRU replacement, write-back accounting,
// and the three-level hierarchy's latency composition.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bits.hpp"
#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"

namespace erel::mem {
namespace {

CacheConfig tiny_cache(unsigned ways) {
  // 4 sets x ways x 64B lines.
  return {"tiny", 4u * ways * 64u, ways, 64, 1};
}

TEST(Cache, FirstAccessMissesThenHits) {
  Cache c(tiny_cache(2));
  EXPECT_FALSE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x103F, false));  // same line
  EXPECT_FALSE(c.access(0x1040, false)); // next line
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(tiny_cache(2));
  // Three lines mapping to the same set (stride = sets * line = 256).
  c.access(0x0000, false);
  c.access(0x0100, false);
  c.access(0x0000, false);   // touch line A: B becomes LRU
  c.access(0x0200, false);   // evicts B
  EXPECT_TRUE(c.contains(0x0000));
  EXPECT_FALSE(c.contains(0x0100));
  EXPECT_TRUE(c.contains(0x0200));
}

TEST(Cache, WritebackCountedOnlyForDirtyVictims) {
  Cache c(tiny_cache(1));  // direct-mapped: every conflict evicts
  c.access(0x0000, true);   // dirty
  c.access(0x0100, false);  // evicts dirty -> writeback
  EXPECT_EQ(c.stats().writebacks, 1u);
  c.access(0x0200, false);  // evicts clean -> no writeback
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, WriteHitMarksLineDirty) {
  Cache c(tiny_cache(1));
  c.access(0x0000, false);  // clean fill
  c.access(0x0000, true);   // dirty it
  c.access(0x0100, false);  // evict -> writeback
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, DistinctSetsDoNotConflict) {
  Cache c(tiny_cache(1));
  c.access(0x0000, false);
  c.access(0x0040, false);
  c.access(0x0080, false);
  c.access(0x00C0, false);
  EXPECT_TRUE(c.contains(0x0000));
  EXPECT_TRUE(c.contains(0x00C0));
}

TEST(Cache, PaperGeometriesConstruct) {
  const HierarchyConfig cfg;
  Cache l1i(cfg.l1i), l1d(cfg.l1d), l2(cfg.l2);
  EXPECT_EQ(l1i.config().line_bytes, 32u);
  EXPECT_EQ(l1d.config().line_bytes, 64u);
  EXPECT_EQ(l2.config().size_bytes, 1024u * 1024u);
}

TEST(CacheDeath, RejectsBadGeometry) {
  EXPECT_DEATH(Cache({"bad", 1000, 2, 64, 1}), "geometry");
  EXPECT_DEATH(Cache({"bad", 4096, 2, 60, 1}), "power of two");
  // A way must span at least 4 bytes, or a tag has no free bits for the
  // valid and dirty flags.
  EXPECT_DEATH(Cache({"bad", 4, 2, 2, 1}), ">= 4 bytes");
  Cache smallest({"ok", 8, 2, 4, 1});  // one set of two 4-byte lines
  EXPECT_FALSE(smallest.access(0xFFFF'FFFF'FFFF'FFFCull, true));
  EXPECT_TRUE(smallest.contains(0xFFFF'FFFF'FFFF'FFFFull));
}

/// A reference cache that keeps LRU the direct way: each way holds a tag,
/// valid and dirty flags and a timestamp from one global clock, and the
/// victim is the first invalid way, else the oldest. Cache must agree with
/// it on every hit, miss, writeback and contains().
class ClockLruCache {
 public:
  explicit ClockLruCache(const CacheConfig& config)
      : ways_(config.associativity),
        line_bytes_(config.line_bytes),
        sets_(config.size_bytes / (config.line_bytes * config.associativity)),
        lines_(sets_ * ways_) {}

  bool access(std::uint64_t addr, bool is_write) {
    Line* const set = lines_.data() + set_of(addr) * ways_;
    const std::uint64_t tag = tag_of(addr);
    for (unsigned w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].tag == tag) {
        set[w].lru = ++clock_;
        set[w].dirty = set[w].dirty || is_write;
        return true;
      }
    }
    Line* victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
      if (!set[w].valid) {
        victim = &set[w];
        break;
      }
      if (victim == nullptr || set[w].lru < victim->lru) victim = &set[w];
    }
    if (victim->valid && victim->dirty) ++writebacks;
    *victim = {tag, true, is_write, ++clock_};
    return false;
  }

  [[nodiscard]] bool contains(std::uint64_t addr) const {
    const Line* const set = lines_.data() + set_of(addr) * ways_;
    for (unsigned w = 0; w < ways_; ++w)
      if (set[w].valid && set[w].tag == tag_of(addr)) return true;
    return false;
  }

  std::uint64_t writebacks = 0;

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  [[nodiscard]] std::uint64_t set_of(std::uint64_t addr) const {
    return (addr / line_bytes_) % sets_;
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const {
    return addr / line_bytes_ / sets_;
  }

  unsigned ways_;
  std::uint64_t line_bytes_;
  std::uint64_t sets_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
};

TEST(Cache, MatchesAGlobalClockLruModelOnRandomStreams) {
  // Seeded streams of reads and writes over a few more lines than the cache
  // holds, so sets fill, conflict and evict dirty and clean victims.
  for (const unsigned ways : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(std::to_string(ways) + " ways");
    const CacheConfig config{"ref", 8u * ways * 32u, ways, 32, 1};  // 8 sets
    Cache cache(config);
    ClockLruCache model(config);
    Xorshift rng(ways);
    const std::uint64_t footprint = 3u * 8u * ways;  // lines
    for (int i = 0; i < 20'000; ++i) {
      // High address bits too: the flags share a word with the tag.
      const std::uint64_t addr = (rng.below(4) << 60) +
                                 rng.below(footprint) * 32 + rng.below(32);
      const bool is_write = rng.below(3) == 0;
      ASSERT_EQ(cache.access(addr, is_write), model.access(addr, is_write))
          << "access " << i;
      ASSERT_EQ(cache.stats().writebacks, model.writebacks) << "access " << i;
      const std::uint64_t probe = (rng.below(4) << 60) +
                                  rng.below(footprint) * 32;
      ASSERT_EQ(cache.contains(probe), model.contains(probe)) << "access " << i;
    }
    EXPECT_GT(model.writebacks, 0u);
  }
}

TEST(Hierarchy, LatencyComposition) {
  MemoryHierarchy h{HierarchyConfig{}};
  // Cold: L1 miss + L2 miss -> 1 + 12 + 50.
  EXPECT_EQ(h.dload(0x4000), 63u);
  // Hot in both.
  EXPECT_EQ(h.dload(0x4000), 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  MemoryHierarchy h{HierarchyConfig{}};
  h.dload(0x0);
  // L1D is 32KB 2-way with 64B lines: 256 sets, stride 16KB. Touch two more
  // conflicting lines to evict the first from L1; L2 (1MB) still holds it.
  h.dload(16 * 1024);
  h.dload(32 * 1024);
  EXPECT_EQ(h.dload(0x0), 13u);  // 1 + 12, L2 hit
}

TEST(Hierarchy, IfetchUsesICache) {
  MemoryHierarchy h{HierarchyConfig{}};
  EXPECT_EQ(h.ifetch(0x10000), 63u);
  EXPECT_EQ(h.ifetch(0x10000), 1u);
  // 0x10020 is the next 32B I-line but shares the 64B L2 line: L1 miss,
  // L2 hit -> 1 + 12.
  EXPECT_EQ(h.ifetch(0x10020), 13u);
}

TEST(Hierarchy, IfetchSecondLineHitsL2) {
  MemoryHierarchy h{HierarchyConfig{}};
  h.ifetch(0x10000);                   // fills 64B line in L2
  EXPECT_EQ(h.ifetch(0x10020), 13u);   // L1I miss (32B lines), L2 hit
}

TEST(Cache, NonPowerOfTwoAssociativityIndexesCorrectly) {
  // The shift/mask index math only assumes pow2 line size and set count;
  // 3-way geometry (sets = 4) must still hit/miss per set correctly.
  Cache c({"odd", 3u * 4u * 64u, 3, 64, 1});
  // Four lines mapping to the same set (stride = sets * line = 256).
  EXPECT_FALSE(c.access(0x0000, false));
  EXPECT_FALSE(c.access(0x0100, false));
  EXPECT_FALSE(c.access(0x0200, false));
  EXPECT_TRUE(c.access(0x0000, false));   // all three ways resident
  EXPECT_TRUE(c.access(0x0100, false));
  EXPECT_TRUE(c.access(0x0200, false));
  EXPECT_FALSE(c.access(0x0300, false));  // fourth line evicts LRU (0x0000)
  EXPECT_FALSE(c.access(0x0000, false));
  EXPECT_FALSE(c.access(0x0040, false));  // different set: its own miss
  EXPECT_TRUE(c.access(0x0040, false));
}

TEST(Hierarchy, StoresUpdateDirtyState) {
  MemoryHierarchy h{HierarchyConfig{}};
  h.dstore(0x8000);
  EXPECT_EQ(h.l1d().stats().misses, 1u);
  h.dstore(0x8000);
  EXPECT_EQ(h.l1d().stats().misses, 1u);
  EXPECT_EQ(h.l1d().stats().accesses, 2u);
}

}  // namespace
}  // namespace erel::mem

// SparseMemory: paging, zero-fill, block writes, alignment.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "arch/memory.hpp"
#include "common/bits.hpp"

namespace erel::arch {
namespace {

TEST(SparseMemory, ReadsZeroBeforeAnyWrite) {
  SparseMemory mem;
  EXPECT_EQ(mem.read_u64(0x1000), 0u);
  EXPECT_EQ(mem.read_u8(0xdeadbee0), 0u);
  EXPECT_EQ(mem.resident_pages(), 0u);  // reads must not materialize pages
}

TEST(SparseMemory, WriteReadRoundTripAllSizes) {
  SparseMemory mem;
  mem.write(0x100, 0xAB, 1);
  mem.write(0x102, 0xBEEF, 2);
  mem.write(0x104, 0xCAFEBABE, 4);
  mem.write(0x108, 0x0123456789abcdefull, 8);
  EXPECT_EQ(mem.read(0x100, 1), 0xABu);
  EXPECT_EQ(mem.read(0x102, 2), 0xBEEFu);
  EXPECT_EQ(mem.read(0x104, 4), 0xCAFEBABEu);
  EXPECT_EQ(mem.read(0x108, 8), 0x0123456789abcdefull);
}

TEST(SparseMemory, ByteWritesComposeLittleEndian) {
  SparseMemory mem;
  for (unsigned i = 0; i < 8; ++i) mem.write(0x200 + i, 0x10 + i, 1);
  EXPECT_EQ(mem.read_u64(0x200), 0x1716151413121110ull);
}

TEST(SparseMemory, NarrowWriteLeavesNeighborsIntact) {
  SparseMemory mem;
  mem.write(0x300, ~0ull, 8);
  mem.write(0x302, 0, 2);
  EXPECT_EQ(mem.read_u64(0x300), 0xFFFFFFFF0000FFFFull);
}

TEST(SparseMemory, BlockWriteSpansPages) {
  SparseMemory mem;
  std::vector<std::uint8_t> bytes(SparseMemory::kPageBytes + 64);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i);
  const std::uint64_t base = SparseMemory::kPageBytes - 32;  // crosses a page
  mem.write_block(base, bytes);
  EXPECT_EQ(mem.resident_pages(), 3u);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    ASSERT_EQ(mem.read_u8(base + i), bytes[i]) << i;
}

TEST(SparseMemory, DistinctPagesAreIndependent) {
  SparseMemory mem;
  mem.write(0x0, 0x11, 1);
  mem.write(SparseMemory::kPageBytes, 0x22, 1);
  EXPECT_EQ(mem.read_u8(0x0), 0x11u);
  EXPECT_EQ(mem.read_u8(SparseMemory::kPageBytes), 0x22u);
  EXPECT_EQ(mem.resident_pages(), 2u);
}

TEST(SparseMemoryDeath, UnalignedAccessAborts) {
  SparseMemory mem;
  EXPECT_DEATH((void)mem.read(0x101, 8), "unaligned");
  EXPECT_DEATH(mem.write(0x102, 0, 4), "unaligned");
}

// --- page-pointer cache (software TLB) -----------------------------------

TEST(SparseMemoryTlb, ConflictingSlotsStayCoherent) {
  // Pages whose indexes differ by the TLB slot count map to the same
  // direct-mapped slot; ping-ponging between them must always read the
  // right page.
  SparseMemory mem;
  const std::uint64_t a = 0;
  const std::uint64_t b = 64 * SparseMemory::kPageBytes;   // same slot as a
  const std::uint64_t c = 128 * SparseMemory::kPageBytes;  // same slot again
  mem.write(a, 0xAAAAAAAAull, 4);
  mem.write(b, 0xBBBBBBBBull, 4);
  mem.write(c, 0xCCCCCCCCull, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(mem.read(a, 4), 0xAAAAAAAAull);
    EXPECT_EQ(mem.read(b, 4), 0xBBBBBBBBull);
    EXPECT_EQ(mem.read(c, 4), 0xCCCCCCCCull);
  }
}

TEST(SparseMemoryTlb, AbsentPageReadIsNotCachedStale) {
  // A read of an untouched page returns 0 and must not cache "absent":
  // when a later write materializes the page, reads must see it.
  SparseMemory mem;
  EXPECT_EQ(mem.read(0x4000, 8), 0u);
  EXPECT_EQ(mem.resident_pages(), 0u);
  mem.write(0x4000, 0x1234, 8);
  EXPECT_EQ(mem.read(0x4000, 8), 0x1234u);
}

TEST(SparseMemoryTlb, ClearInvalidatesCachedPointers) {
  SparseMemory mem;
  mem.write(0x1000, 0xFF, 1);
  EXPECT_EQ(mem.read_u8(0x1000), 0xFFu);  // TLB now holds the page
  mem.clear();
  EXPECT_EQ(mem.resident_pages(), 0u);
  EXPECT_EQ(mem.read_u8(0x1000), 0u);  // must not read through a stale slot
  mem.write(0x1000, 0x42, 1);
  EXPECT_EQ(mem.read_u8(0x1000), 0x42u);
}

TEST(SparseMemoryTlb, MatchesWordModel) {
  // 1 MiB is 256 pages against 64 TLB slots, so slots keep being refilled
  // and evicted; every read must agree with a plain map of written words.
  SparseMemory mem;
  std::map<std::uint64_t, std::uint64_t> model;
  Xorshift rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t addr = (rng.next() % (1u << 20)) & ~std::uint64_t{7};
    if (rng.chance(0.5)) {
      const std::uint64_t v = rng.next();
      mem.write(addr, v, 8);
      model[addr] = v;
    } else {
      const auto it = model.find(addr);
      EXPECT_EQ(mem.read(addr, 8), it == model.end() ? std::uint64_t{0} : it->second) << addr;
    }
  }
  std::set<std::uint64_t> pages;
  for (const auto& [addr, value] : model) {
    EXPECT_EQ(mem.read(addr, 8), value) << addr;
    pages.insert(addr / SparseMemory::kPageBytes);
  }
  EXPECT_EQ(mem.resident_pages(), pages.size());
}

TEST(SparseMemoryTlb, SnapshotMatchesPageBases) {
  SparseMemory mem;
  mem.write(5 * SparseMemory::kPageBytes, 1, 1);
  mem.write(1 * SparseMemory::kPageBytes, 2, 1);
  mem.write(9 * SparseMemory::kPageBytes, 3, 1);
  const auto snapshot = mem.pages_snapshot();
  const auto bases = mem.page_bases();
  ASSERT_EQ(snapshot.size(), bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    EXPECT_EQ(snapshot[i].first, bases[i]);
    EXPECT_EQ(snapshot[i].second, mem.page_data(bases[i]));
  }
}

}  // namespace
}  // namespace erel::arch

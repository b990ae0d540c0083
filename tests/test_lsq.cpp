// LSQ: conservative disambiguation, store->load forwarding (full cover,
// partial overlap, sub-word extraction), commit order, squash.
#include <gtest/gtest.h>

#include "pipeline/lsq.hpp"

namespace erel::pipeline {
namespace {

TEST(Lsq, LoadWithNoOlderStoresGoesToMemory) {
  Lsq lsq(8);
  lsq.push(1, /*is_store=*/false, 8);
  lsq.set_address(1, 0x1000);
  EXPECT_EQ(lsq.query_load(1, nullptr), LoadStatus::Memory);
}

TEST(Lsq, LoadWaitsForUnknownOlderStoreAddress) {
  Lsq lsq(8);
  lsq.push(1, true, 8);
  lsq.push(2, false, 8);
  lsq.set_address(2, 0x2000);
  // Store address unknown: the paper's conservative rule blocks the load.
  EXPECT_EQ(lsq.query_load(2, nullptr), LoadStatus::Wait);
  lsq.set_address(1, 0x1000);  // disjoint
  EXPECT_EQ(lsq.query_load(2, nullptr), LoadStatus::Memory);
}

TEST(Lsq, FullCoverForwardsWhenDataReady) {
  Lsq lsq(8);
  lsq.push(1, true, 8);
  lsq.push(2, false, 8);
  lsq.set_address(1, 0x1000);
  lsq.set_address(2, 0x1000);
  EXPECT_EQ(lsq.query_load(2, nullptr), LoadStatus::Wait);  // data not ready
  lsq.set_store_data(1, 0xdeadbeefcafef00dull);
  std::uint64_t value = 0;
  EXPECT_EQ(lsq.query_load(2, &value), LoadStatus::Forward);
  EXPECT_EQ(value, 0xdeadbeefcafef00dull);
}

TEST(Lsq, SubWordForwardExtractsBytes) {
  Lsq lsq(8);
  lsq.push(1, true, 8);
  lsq.set_address(1, 0x1000);
  lsq.set_store_data(1, 0x8877665544332211ull);
  // Byte load from the middle of the stored dword.
  lsq.push(2, false, 1);
  lsq.set_address(2, 0x1003);
  std::uint64_t value = 0;
  EXPECT_EQ(lsq.query_load(2, &value), LoadStatus::Forward);
  EXPECT_EQ(value, 0x44u);
  // Word load from the upper half.
  lsq.push(3, false, 4);
  lsq.set_address(3, 0x1004);
  EXPECT_EQ(lsq.query_load(3, &value), LoadStatus::Forward);
  EXPECT_EQ(value, 0x88776655u);
}

TEST(Lsq, PartialOverlapWaits) {
  Lsq lsq(8);
  lsq.push(1, true, 1);           // byte store
  lsq.set_address(1, 0x1002);
  lsq.set_store_data(1, 0xAB);
  lsq.push(2, false, 8);          // dword load covering the byte
  lsq.set_address(2, 0x1000);
  EXPECT_EQ(lsq.query_load(2, nullptr), LoadStatus::Wait);
  // Once the store commits (leaves the queue) the load may read memory.
  lsq.pop_commit(1);
  EXPECT_EQ(lsq.query_load(2, nullptr), LoadStatus::Memory);
}

TEST(Lsq, YoungestOverlappingStoreWins) {
  Lsq lsq(8);
  lsq.push(1, true, 8);
  lsq.set_address(1, 0x1000);
  lsq.set_store_data(1, 0x1111111111111111ull);
  lsq.push(2, true, 8);
  lsq.set_address(2, 0x1000);
  lsq.set_store_data(2, 0x2222222222222222ull);
  lsq.push(3, false, 8);
  lsq.set_address(3, 0x1000);
  std::uint64_t value = 0;
  EXPECT_EQ(lsq.query_load(3, &value), LoadStatus::Forward);
  EXPECT_EQ(value, 0x2222222222222222ull);
}

TEST(Lsq, YoungerStoresDoNotAffectLoad) {
  Lsq lsq(8);
  lsq.push(1, false, 8);
  lsq.push(2, true, 8);  // younger store, address unknown
  lsq.set_address(1, 0x1000);
  EXPECT_EQ(lsq.query_load(1, nullptr), LoadStatus::Memory);
}

TEST(Lsq, PartiallyCoveringYoungestWithFullCoverBehind) {
  Lsq lsq(8);
  lsq.push(1, true, 8);  // full cover, older
  lsq.set_address(1, 0x1000);
  lsq.set_store_data(1, ~0ull);
  lsq.push(2, true, 1);  // partial, youngest overlapping
  lsq.set_address(2, 0x1001);
  lsq.set_store_data(2, 0);
  lsq.push(3, false, 8);
  lsq.set_address(3, 0x1000);
  // The youngest overlapping store only partially covers: must wait.
  EXPECT_EQ(lsq.query_load(3, nullptr), LoadStatus::Wait);
}

TEST(Lsq, CommitPopsInProgramOrder) {
  Lsq lsq(4);
  lsq.push(1, true, 8);
  lsq.push(2, false, 4);
  lsq.set_address(1, 0x1000);
  lsq.set_store_data(1, 7);
  const LsqEntry store = lsq.pop_commit(1);
  EXPECT_TRUE(store.is_store);
  EXPECT_EQ(store.addr, 0x1000u);
  EXPECT_EQ(store.data, 7u);
  EXPECT_EQ(lsq.size(), 1u);
}

TEST(Lsq, SquashDropsYoungerEntries) {
  Lsq lsq(8);
  lsq.push(1, true, 8);
  lsq.push(2, false, 8);
  lsq.push(3, true, 8);
  lsq.squash_after(1);
  EXPECT_EQ(lsq.size(), 1u);
  lsq.push(5, false, 8);  // new seq after squash
  EXPECT_EQ(lsq.size(), 2u);
}

TEST(Lsq, FullnessTracking) {
  Lsq lsq(2);
  lsq.push(1, false, 8);
  EXPECT_FALSE(lsq.full());
  lsq.push(2, false, 8);
  EXPECT_TRUE(lsq.full());
}

TEST(LsqDeath, CommitOrderViolationAborts) {
  Lsq lsq(4);
  lsq.push(1, false, 8);
  lsq.push(2, false, 8);
  EXPECT_DEATH(lsq.pop_commit(2), "commit order");
}

}  // namespace
}  // namespace erel::pipeline

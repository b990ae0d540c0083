// MapTable / IOMT: identity reset, stale bits. Squash restores are
// RenameUnit's (test_rename_unit).
#include <gtest/gtest.h>

#include "core/map_table.hpp"

namespace erel::core {
namespace {

TEST(MapTable, IdentityInitialization) {
  MapTable mt;
  for (unsigned r = 0; r < isa::kNumLogicalRegs; ++r) {
    EXPECT_EQ(mt.get(r).phys, r);
    EXPECT_FALSE(mt.get(r).stale);
  }
}

TEST(MapTable, SetInstallsFreshMapping) {
  MapTable mt;
  mt.set(5, 77);
  EXPECT_EQ(mt.get(5).phys, 77);
  EXPECT_FALSE(mt.get(5).stale);
}

TEST(MapTable, SetClearsStale) {
  MapTable mt;
  mt.mark_stale(5);
  EXPECT_TRUE(mt.get(5).stale);
  mt.set(5, 40);
  EXPECT_FALSE(mt.get(5).stale);
}

}  // namespace
}  // namespace erel::core

#include "common/bits.hpp"

#include <gtest/gtest.h>

#include "common/parse.hpp"

namespace erel {
namespace {

TEST(Bits, ExtractInsertRoundTrip) {
  std::uint32_t word = 0;
  word = put_bits(word, 24, 8, 0xAB);
  word = put_bits(word, 19, 5, 0x15);
  word = put_bits(word, 0, 9, 0x1FF);
  EXPECT_EQ(bits(word, 24, 8), 0xABu);
  EXPECT_EQ(bits(word, 19, 5), 0x15u);
  EXPECT_EQ(bits(word, 0, 9), 0x1FFu);
}

TEST(Bits, PutBitsOverwritesField) {
  std::uint32_t word = ~0u;
  word = put_bits(word, 8, 4, 0x0);
  EXPECT_EQ(bits(word, 8, 4), 0u);
  EXPECT_EQ(bits(word, 0, 8), 0xFFu);
  EXPECT_EQ(bits(word, 12, 20), 0xFFFFFu);
}

TEST(Bits, SignExtension) {
  EXPECT_EQ(sext(0x3FFF, 14), -1);
  EXPECT_EQ(sext(0x1FFF, 14), 8191);
  EXPECT_EQ(sext(0x2000, 14), -8192);
  EXPECT_EQ(sext(0, 14), 0);
  EXPECT_EQ(sext(0x80000000u, 32), INT64_C(-2147483648));
}

TEST(Bits, FitsSigned) {
  EXPECT_TRUE(fits_signed(8191, 14));
  EXPECT_FALSE(fits_signed(8192, 14));
  EXPECT_TRUE(fits_signed(-8192, 14));
  EXPECT_FALSE(fits_signed(-8193, 14));
  EXPECT_TRUE(fits_signed(0, 1));
  EXPECT_TRUE(fits_signed(-1, 1));
  EXPECT_FALSE(fits_signed(1, 1));
}

TEST(Bits, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(96));
  EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(Bits, FpBitCastRoundTrip) {
  for (const double d : {0.0, 1.5, -3.25, 1e300, -1e-300}) {
    EXPECT_EQ(u2f(f2u(d)), d);
  }
}

TEST(Xorshift, DeterministicAcrossInstances) {
  Xorshift a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xorshift, DifferentSeedsDiverge) {
  Xorshift a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 5);
}

TEST(Xorshift, RangeBounds) {
  Xorshift rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Xorshift, Uniform01InRange) {
  Xorshift rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(ParseU64, DigitsOnlyWithoutSignSpaceOrOverflow) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.0",
                          "18446744073709551616"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << '"' << bad << '"';
}

TEST(ParseUint, RejectsValuesAboveTheFieldType) {
  EXPECT_EQ(parse_uint<std::uint16_t>("65535"), std::uint16_t{65535});
  EXPECT_FALSE(parse_uint<std::uint16_t>("65536").has_value());
  EXPECT_EQ(parse_uint<unsigned>("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_uint<unsigned>("4294967296").has_value());
  EXPECT_FALSE(parse_uint<unsigned>("-1").has_value());
}

TEST(ParseDouble, WholeTokenOnly) {
  EXPECT_EQ(parse_double("0.02"), 0.02);
  EXPECT_EQ(parse_double("1e-3"), 1e-3);
  EXPECT_EQ(parse_double("0x1.8p+1"), 3.0);  // "%a" rendering
  for (const char* bad : {"", " 1", "1x", "0.5 "})
    EXPECT_FALSE(parse_double(bad).has_value()) << '"' << bad << '"';
}

}  // namespace
}  // namespace erel

// Bit-field extraction/insertion helpers used by the ISA encoding and the
// cache index math. All field positions are [lo, lo+width).
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

#include "common/log.hpp"

namespace erel {

/// Extracts an unsigned bit-field of `width` bits starting at `lo`.
constexpr std::uint32_t bits(std::uint32_t value, unsigned lo, unsigned width) {
  return (value >> lo) & ((width >= 32u) ? ~0u : ((1u << width) - 1u));
}

/// Inserts `field` (must fit) into a word at [lo, lo+width).
constexpr std::uint32_t put_bits(std::uint32_t word, unsigned lo, unsigned width,
                                 std::uint32_t field) {
  const std::uint32_t mask = (width >= 32u) ? ~0u : ((1u << width) - 1u);
  return (word & ~(mask << lo)) | ((field & mask) << lo);
}

/// Sign-extends the low `width` bits of `value` to 64 bits.
constexpr std::int64_t sext(std::uint64_t value, unsigned width) {
  const unsigned shift = 64u - width;
  return static_cast<std::int64_t>(value << shift) >> shift;
}

/// True if `value` fits in a signed field of `width` bits.
constexpr bool fits_signed(std::int64_t value, unsigned width) {
  const std::int64_t lo = -(std::int64_t{1} << (width - 1));
  const std::int64_t hi = (std::int64_t{1} << (width - 1)) - 1;
  return value >= lo && value <= hi;
}

/// log2 of a power of two.
constexpr unsigned log2_exact(std::uint64_t value) {
  return static_cast<unsigned>(std::countr_zero(value));
}

constexpr bool is_pow2(std::uint64_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

/// Bit-casts between double and its IEEE-754 bit pattern; the simulator keeps
/// FP register values as uint64 so that state is trivially comparable.
inline std::uint64_t f2u(double d) { return std::bit_cast<std::uint64_t>(d); }
inline double u2f(std::uint64_t u) { return std::bit_cast<double>(u); }

/// The splitmix64 state increment: 2^64 divided by the golden ratio.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

/// splitmix64 (Steele, Lea & Flood): advances the state `x` by
/// kGoldenGamma and returns the finalized result. A pure function, so a
/// seeded draw is reproducible anywhere, and nearby inputs give
/// uncorrelated outputs.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// xorshift128+ deterministic RNG: reproducible across platforms, fast enough
/// to sit inside workload generation and fuzz tests.
class Xorshift {
 public:
  /// splitmix64 seeding so nearby seeds give uncorrelated streams.
  explicit Xorshift(std::uint64_t seed = kGoldenGamma)
      : s0_(splitmix64(seed)), s1_(splitmix64(seed + kGoldenGamma)) {
    if (s0_ == 0 && s1_ == 0) s1_ = 1;
  }

  std::uint64_t next() {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform in [0, bound). bound must be nonzero.
  std::uint64_t below(std::uint64_t bound) {
    EREL_CHECK(bound != 0);
    return next() % bound;
  }

  /// Uniform in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    EREL_CHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli with probability p.
  bool chance(double p) { return uniform01() < p; }

 private:
  std::uint64_t s0_;
  std::uint64_t s1_;
};

}  // namespace erel

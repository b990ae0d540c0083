// Strict decimal parsing for numbers that arrive as text from outside the
// program: result-cache entries, daemon messages, canonical config fields,
// ports and workload names.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace erel {

/// Parses a plain decimal digit string. No sign, no whitespace, no empty
/// string and no value above 2^64 - 1: anything else is nullopt, so a
/// corrupt token can never read as a wrapped or truncated number.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view text) {
  // from_chars skips no whitespace and takes no sign for an unsigned type;
  // an empty string or a stray character leaves `ptr` short of the end.
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

}  // namespace erel

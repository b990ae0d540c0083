// Strict number parsing for text that arrives from outside the program:
// result-cache entries, daemon messages, canonical config fields, command
// lines, ports and workload names.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
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

/// parse_u64 narrowed to the unsigned type `T`: nullopt when the value
/// does not fit, so a number can never wrap into a narrower field.
template <class T>
[[nodiscard]] std::optional<T> parse_uint(std::string_view text) {
  const std::optional<std::uint64_t> v = parse_u64(text);
  if (!v || *v > std::numeric_limits<T>::max()) return std::nullopt;
  return static_cast<T>(*v);
}

/// Parses a whole token as strtod reads it (decimal, exponent or "%a"
/// hexfloat). Empty text, leading whitespace and any unparsed trailing
/// byte are nullopt. Range checks (sign, finiteness) are the caller's.
[[nodiscard]] inline std::optional<double> parse_double(std::string_view text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front())))
    return std::nullopt;
  const std::string copy(text);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  return v;
}

}  // namespace erel

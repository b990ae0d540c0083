// Line-oriented text records: the one codec behind result-cache entries
// (harness/results.hpp), the daemon's message payloads
// (service/protocol.hpp) and the canonical field text that cell
// fingerprints hash (sim/config.hpp, sim/sampling.hpp).
//
// A record is a run of `name<sep>value` lines, <sep> being ' ' (cache
// entries, messages) or '=' (canonical fields). Writer renders, and Reader
// parses, each value type one way:
//
//   std::uint64_t, unsigned   decimal digits: no sign, no space, in range
//   bool                      exactly "0" or "1"
//   double                    "%.17g" (bit-exact for IEEE binary64)
//   hexfloat(double)          "%a" (the exact bit pattern)
//   enum, up to `last`        decimal, at most `last`
//   text                      the rest of the line, verbatim
//
// This module alone decides what makes a record malformed: a line without
// its separator, a repeated name (callers collect the repeatable kinds
// themselves), a value that does not parse as its type, a missing field,
// or a field no one reads. A malformed record is a cache miss or a refused
// message, never a wrong number.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/parse.hpp"

namespace erel::record {

/// The '\n'-terminated lines of a text; a trailing unterminated line
/// counts as a line too.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  /// Sets `line` to the next line, without its '\n'; false at the end.
  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const std::size_t nl = rest_.find('\n');
    line = rest_.substr(0, nl);
    rest_.remove_prefix(nl == std::string_view::npos ? rest_.size() : nl + 1);
    return true;
  }

  /// The text after the lines read so far.
  [[nodiscard]] std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

/// The lines between a first line equal to `header` and an "end" line that
/// closes the text. nullopt when the header differs, when no "end" line
/// follows (a truncated write), or when anything follows it.
[[nodiscard]] std::optional<std::string_view> body(std::string_view text,
                                                   std::string_view header);

struct Field {
  std::string_view name;
  std::string_view value;
};

/// Splits `line` at its first `sep`; the value may contain `sep` (variant
/// labels, error text). nullopt when the line has no `sep`.
[[nodiscard]] inline std::optional<Field> split(std::string_view line,
                                                char sep) {
  const std::size_t at = line.find(sep);
  if (at == std::string_view::npos) return std::nullopt;
  return Field{line.substr(0, at), line.substr(at + 1)};
}

/// A record's once-only fields by name.
using FieldMap = std::map<std::string, std::string, std::less<>>;

/// Adds `field`; false when its name is already there. A repeated field is
/// corruption, not a value to pick between.
[[nodiscard]] inline bool add(FieldMap& fields, const Field& field) {
  return fields.emplace(field.name, field.value).second;
}

/// A double field carried as "%a" rather than "%.17g": wraps a const
/// double to write or a double to read.
template <class D>
struct Hexfloat {
  D* value;
};
inline Hexfloat<const double> hexfloat(const double& v) { return {&v}; }
inline Hexfloat<double> hexfloat(double& v) { return {&v}; }

/// "%.17g": the decimal rendering that reads back bit-exactly.
[[nodiscard]] std::string format_double(double v);

// Strict value parsers: `v` is set, and the result true, only when `text`
// is a whole value of the type.
namespace detail {
template <class T>
bool assign(const std::optional<T>& parsed, T& v) {
  if (parsed) v = *parsed;
  return parsed.has_value();
}
}  // namespace detail
inline bool parse(std::string_view text, std::uint64_t& v) {
  return detail::assign(parse_u64(text), v);
}
inline bool parse(std::string_view text, unsigned& v) {
  return detail::assign(parse_uint<unsigned>(text), v);
}
inline bool parse(std::string_view text, double& v) {
  return detail::assign(parse_double(text), v);
}
inline bool parse(std::string_view text, Hexfloat<double> v) {
  return parse(text, *v.value);
}
inline bool parse(std::string_view text, bool& v) {
  if (text != "0" && text != "1") return false;
  v = text == "1";
  return true;
}
inline bool parse(std::string_view text, std::string& v) {
  v = text;
  return true;
}
template <class E>
  requires std::is_enum_v<E>
bool parse(std::string_view text, E& v, E last) {
  std::uint64_t raw = 0;
  if (!parse(text, raw) || raw > static_cast<std::uint64_t>(last))
    return false;
  v = static_cast<E>(raw);
  return true;
}

/// Appends one `name<sep>value` line per call.
class Writer {
 public:
  Writer(std::string& out, char sep) : out_(out), sep_(sep) {}

  void operator()(std::string_view name, std::uint64_t v) const {
    line(name, std::to_string(v));
  }
  void operator()(std::string_view name, unsigned v) const {
    line(name, std::to_string(v));
  }
  void operator()(std::string_view name, bool v) const {
    line(name, v ? "1" : "0");
  }
  void operator()(std::string_view name, double v) const {
    line(name, format_double(v));
  }
  void operator()(std::string_view name, Hexfloat<const double> v) const;
  void operator()(std::string_view name, std::string_view text) const {
    line(name, text);
  }
  // Without this overload a string literal would convert to bool.
  void operator()(std::string_view name, const char* text) const {
    line(name, text);
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(std::string_view name, E v, E /*last*/) const {
    (*this)(name, static_cast<std::uint64_t>(v));
  }

 private:
  void line(std::string_view name, std::string_view value) const {
    out_ += name;
    out_ += sep_;
    out_ += value;
    out_ += '\n';
  }

  std::string& out_;
  char sep_;
};

/// Reads typed fields out of a FieldMap and counts the ones it consumed, so
/// "every expected field exactly once, and nothing else" is one check.
class Reader {
 public:
  explicit Reader(const FieldMap& fields) : fields_(fields) {}

  /// Reads field `name` into `v` (an enum also takes its `last` value).
  template <class T, class... Last>
  void operator()(std::string_view name, T&& v, Last... last) {
    const auto it = fields_.find(name);
    if (it != fields_.end() && parse(it->second, v, last...)) {
      ++consumed_;
    } else {
      ok_ = false;
    }
  }

  /// Every field read was present and well formed, and none went unread.
  [[nodiscard]] bool complete() const {
    return ok_ && consumed_ == fields_.size();
  }

 private:
  const FieldMap& fields_;
  std::size_t consumed_ = 0;
  bool ok_ = true;
};

/// Reads the next line of `lines` as the space-separated field `name`, for
/// records whose leading lines come in a fixed order. False at the end of
/// the text, on another name or on a malformed value.
template <class T>
[[nodiscard]] bool read_line(Lines& lines, std::string_view name, T& v) {
  std::string_view line;
  if (!lines.next(line)) return false;
  const std::optional<Field> field = split(line, ' ');
  return field && field->name == name && parse(field->value, v);
}

}  // namespace erel::record

#include "common/record.hpp"

#include <cstdio>

namespace erel::record {

std::optional<std::string_view> body(std::string_view text,
                                     std::string_view header) {
  Lines lines(text);
  std::string_view line;
  if (!lines.next(line) || line != header) return std::nullopt;
  const std::string_view rest = lines.rest();
  while (lines.next(line)) {
    if (line != "end") continue;
    if (!lines.rest().empty()) return std::nullopt;
    return rest.substr(0, static_cast<std::size_t>(line.data() - rest.data()));
  }
  return std::nullopt;
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Writer::operator()(std::string_view name, Hexfloat<const double> v) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", *v.value);
  line(name, buf);
}

}  // namespace erel::record

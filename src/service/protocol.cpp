#include "service/protocol.hpp"

#include <map>

#include "common/parse.hpp"
#include "core/release_policy.hpp"

namespace erel::service {

namespace {

// ---- line-oriented payload scanning ------------------------------------

/// Splits `text` into '\n'-terminated lines; a trailing unterminated line
/// counts as a line too.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : rest_(text) {}

  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const std::size_t nl = rest_.find('\n');
    if (nl == std::string_view::npos) {
      line = rest_;
      rest_ = {};
    } else {
      line = rest_.substr(0, nl);
      rest_ = rest_.substr(nl + 1);
    }
    return true;
  }

  [[nodiscard]] std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

/// "key value" -> (key, value); "key" alone -> (key, ""). The value may
/// contain spaces (workload paths, variant labels, error messages).
void split_first_space(std::string_view line, std::string_view& key,
                       std::string_view& value) {
  const std::size_t space = line.find(' ');
  if (space == std::string_view::npos) {
    key = line;
    value = {};
  } else {
    key = line.substr(0, space);
    value = line.substr(space + 1);
  }
}

std::optional<bool> parse_bool(std::string_view text) {
  if (text == "0") return false;
  if (text == "1") return true;
  return std::nullopt;
}

void append_u64_line(std::string& out, std::string_view key,
                     std::uint64_t value) {
  out += key;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

}  // namespace

// ---- message tags -------------------------------------------------------

std::string_view msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kRunCell: return "run_cell";
    case MsgType::kResult: return "result";
    case MsgType::kError: return "error";
    case MsgType::kStats: return "stats";
    case MsgType::kStatsReply: return "stats_reply";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kBusy: return "busy";
  }
  return "unknown";
}

// ---- CellRequest --------------------------------------------------------

std::string encode_cell_request(const CellRequest& request) {
  std::string out = "erel-cell v1\n";
  append_u64_line(out, "id", request.id);
  out += "fp ";
  out += request.fingerprint_hex;
  out += '\n';
  out += "workload ";
  out += request.workload;
  out += '\n';
  out += "key.policy ";
  out += core::policy_name(request.key.policy);
  out += '\n';
  append_u64_line(out, "key.phys", request.key.phys);
  out += "key.variant ";
  out += request.key.variant;
  out += '\n';
  for (const std::string& name : request.probe_names) {
    out += "probe ";
    out += name;
    out += '\n';
  }
  // The canonical renderings are reused verbatim (prefixed for config so
  // the decoder can route lines); whatever the fingerprint hashes is what
  // crosses the wire.
  std::string canon;
  sim::append_canonical_fields(request.config, canon);
  LineScanner scanner(canon);
  for (std::string_view line; scanner.next(line);) {
    out += "cfg.";
    out += line;
    out += '\n';
  }
  if (request.sampling) {
    std::string sampling_canon;
    sim::append_canonical_fields(*request.sampling, sampling_canon);
    out += sampling_canon;  // lines already namespaced "sampling.*=..."
  }
  out += "end\n";
  return out;
}

std::optional<CellRequest> decode_cell_request(std::string_view payload) {
  LineScanner scanner(payload);
  std::string_view line;
  if (!scanner.next(line) || line != "erel-cell v1") return std::nullopt;

  CellRequest request;
  std::map<std::string, std::string, std::less<>> cfg_fields;
  std::map<std::string, std::string, std::less<>> sampling_fields;
  bool saw_id = false, saw_fp = false, saw_workload = false;
  bool saw_policy = false, saw_phys = false, saw_variant = false;
  bool saw_end = false;

  while (scanner.next(line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    // Canonical field lines are "name=value"; everything else "key value".
    if (line.substr(0, 4) == "cfg." || line.substr(0, 9) == "sampling.") {
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) return std::nullopt;
      const bool is_cfg = line[0] == 'c';
      std::string name(line.substr(is_cfg ? 4 : 0, eq - (is_cfg ? 4 : 0)));
      auto& fields = is_cfg ? cfg_fields : sampling_fields;
      if (!fields.emplace(std::move(name), std::string(line.substr(eq + 1)))
               .second)
        return std::nullopt;  // duplicate field
      continue;
    }
    std::string_view key, value;
    split_first_space(line, key, value);
    if (key == "id") {
      const auto v = parse_u64(value);
      if (!v || saw_id) return std::nullopt;
      request.id = *v;
      saw_id = true;
    } else if (key == "fp") {
      if (value.empty() || saw_fp) return std::nullopt;
      request.fingerprint_hex = value;
      saw_fp = true;
    } else if (key == "workload") {
      if (value.empty() || saw_workload) return std::nullopt;
      request.workload = value;
      saw_workload = true;
    } else if (key == "key.policy") {
      const auto kind = core::try_parse_policy(value);
      if (!kind || saw_policy) return std::nullopt;
      request.key.policy = *kind;
      saw_policy = true;
    } else if (key == "key.phys") {
      const auto v = parse_u64(value);
      if (!v || *v > 0xffffffffull || saw_phys) return std::nullopt;
      request.key.phys = static_cast<unsigned>(*v);
      saw_phys = true;
    } else if (key == "key.variant") {
      if (saw_variant) return std::nullopt;
      request.key.variant = value;
      saw_variant = true;
    } else if (key == "probe") {
      if (value.empty() || value.find(' ') != std::string_view::npos)
        return std::nullopt;
      request.probe_names.emplace_back(value);
    } else {
      return std::nullopt;  // unknown line: reject, never skip silently
    }
  }
  if (!saw_end || !saw_id || !saw_fp || !saw_workload || !saw_policy ||
      !saw_phys || !saw_variant)
    return std::nullopt;

  const std::optional<sim::SimConfig> config =
      sim::config_from_canonical_fields(cfg_fields);
  if (!config) return std::nullopt;
  request.config = *config;
  if (!sampling_fields.empty()) {
    const std::optional<sim::SamplingConfig> sampling =
        sim::sampling_from_canonical_fields(sampling_fields);
    if (!sampling) return std::nullopt;
    request.sampling = *sampling;
  }
  request.key.workload = request.workload;
  return request;
}

// ---- ResultMsg ----------------------------------------------------------

std::string encode_result(const ResultMsg& msg) {
  std::string out;
  append_u64_line(out, "id", msg.id);
  out += msg.cached ? "cached 1\n" : "cached 0\n";
  out += msg.entry_text;
  return out;
}

std::optional<ResultMsg> decode_result(std::string_view payload) {
  LineScanner scanner(payload);
  std::string_view line, key, value;
  ResultMsg msg;
  if (!scanner.next(line)) return std::nullopt;
  split_first_space(line, key, value);
  const auto id = parse_u64(value);
  if (key != "id" || !id) return std::nullopt;
  msg.id = *id;
  if (!scanner.next(line)) return std::nullopt;
  split_first_space(line, key, value);
  const auto cached = parse_bool(value);
  if (key != "cached" || !cached) return std::nullopt;
  msg.cached = *cached;
  msg.entry_text = scanner.rest();
  if (msg.entry_text.empty()) return std::nullopt;
  return msg;
}

// ---- ErrorMsg -----------------------------------------------------------

std::string encode_error(const ErrorMsg& msg) {
  std::string out;
  append_u64_line(out, "id", msg.id);
  out += msg.message;
  return out;
}

std::optional<ErrorMsg> decode_error(std::string_view payload) {
  LineScanner scanner(payload);
  std::string_view line, key, value;
  if (!scanner.next(line)) return std::nullopt;
  split_first_space(line, key, value);
  const auto id = parse_u64(value);
  if (key != "id" || !id) return std::nullopt;
  return ErrorMsg{*id, std::string(scanner.rest())};
}

// ---- BusyMsg ------------------------------------------------------------

std::string encode_busy(const BusyMsg& msg) {
  std::string out;
  append_u64_line(out, "id", msg.id);
  append_u64_line(out, "retry_ms", msg.retry_ms);
  return out;
}

std::optional<BusyMsg> decode_busy(std::string_view payload) {
  LineScanner scanner(payload);
  std::string_view line, key, value;
  BusyMsg msg;
  if (!scanner.next(line)) return std::nullopt;
  split_first_space(line, key, value);
  const auto id = parse_u64(value);
  if (key != "id" || !id) return std::nullopt;
  msg.id = *id;
  if (!scanner.next(line)) return std::nullopt;
  split_first_space(line, key, value);
  const auto retry = parse_u64(value);
  if (key != "retry_ms" || !retry) return std::nullopt;
  msg.retry_ms = *retry;
  if (!scanner.rest().empty()) return std::nullopt;
  return msg;
}

// ---- DaemonStats --------------------------------------------------------

namespace {

template <class Stats, class Fn>
void daemon_stats_fields(Stats& stats, Fn&& f) {
  f("requests", stats.requests);
  f("cache_hits", stats.cache_hits);
  f("simulated", stats.simulated);
  f("deduped", stats.deduped);
  f("errors", stats.errors);
  f("inflight", stats.inflight);
  f("busy", stats.busy);
  f("cancelled", stats.cancelled);
  f("dropped_clients", stats.dropped_clients);
  f("evicted", stats.evicted);
  f("quarantined", stats.quarantined);
}

}  // namespace

std::string encode_stats(const DaemonStats& stats) {
  std::string out;
  daemon_stats_fields(stats, [&out](std::string_view name, std::uint64_t v) {
    append_u64_line(out, name, v);
  });
  return out;
}

std::optional<DaemonStats> decode_stats(std::string_view payload) {
  std::map<std::string, std::string, std::less<>> fields;
  LineScanner scanner(payload);
  for (std::string_view line; scanner.next(line);) {
    if (line.empty()) continue;
    std::string_view key, value;
    split_first_space(line, key, value);
    if (!fields.emplace(std::string(key), std::string(value)).second)
      return std::nullopt;
  }
  DaemonStats stats;
  bool ok = true;
  std::size_t consumed = 0;
  daemon_stats_fields(stats, [&](std::string_view name, std::uint64_t& v) {
    const auto it = fields.find(name);
    if (it == fields.end()) {
      ok = false;
      return;
    }
    ++consumed;
    const auto parsed = parse_u64(it->second);
    if (!parsed) {
      ok = false;
      return;
    }
    v = *parsed;
  });
  if (!ok || consumed != fields.size()) return std::nullopt;
  return stats;
}

}  // namespace erel::service

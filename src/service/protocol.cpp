#include "service/protocol.hpp"

#include "common/record.hpp"
#include "core/release_policy.hpp"

namespace erel::service {

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
  }
  return "unknown";
}

// ---- CellRequest --------------------------------------------------------

std::string encode_cell_request(const CellRequest& request) {
  std::string out = "erel-cell v1\n";
  const record::Writer write(out, ' ');
  write("id", request.id);
  write("fp", request.fingerprint_hex);
  write("workload", request.workload);
  write("key.policy", core::policy_name(request.key.policy));
  write("key.phys", request.key.phys);
  write("key.variant", request.key.variant);
  for (const std::string& name : request.probe_names) write("probe", name);
  // The canonical renderings are reused verbatim (prefixed for config so
  // the decoder can route lines); whatever the fingerprint hashes is what
  // crosses the wire.
  std::string canon;
  sim::append_canonical_fields(request.config, canon);
  record::Lines lines(canon);
  for (std::string_view line; lines.next(line);) {
    out += "cfg.";
    out += line;
    out += '\n';
  }
  // Sampling lines are already namespaced "sampling.*=...".
  if (request.sampling) sim::append_canonical_fields(*request.sampling, out);
  out += "end\n";
  return out;
}

std::optional<CellRequest> decode_cell_request(std::string_view payload) {
  const std::optional<std::string_view> body =
      record::body(payload, "erel-cell v1");
  if (!body) return std::nullopt;
  CellRequest request;
  record::FieldMap fields, cfg_fields, sampling_fields;
  record::Lines lines(*body);
  for (std::string_view line; lines.next(line);) {
    // Canonical field lines are "name=value"; everything else "key value".
    const bool cfg = line.starts_with("cfg.");
    if (cfg || line.starts_with("sampling.")) {
      const auto field = record::split(line.substr(cfg ? 4 : 0), '=');
      if (!field || !record::add(cfg ? cfg_fields : sampling_fields, *field))
        return std::nullopt;
      continue;
    }
    const std::optional<record::Field> field = record::split(line, ' ');
    if (!field) return std::nullopt;
    if (field->name == "probe") {
      if (field->value.empty() ||
          field->value.find(' ') != std::string_view::npos)
        return std::nullopt;
      request.probe_names.emplace_back(field->value);
    } else if (!record::add(fields, *field)) {
      return std::nullopt;
    }
  }
  record::Reader read(fields);
  std::string policy;
  read("id", request.id);
  read("fp", request.fingerprint_hex);
  read("workload", request.workload);
  read("key.policy", policy);
  read("key.phys", request.key.phys);
  read("key.variant", request.key.variant);
  // Only policy_name()'s spelling, as parse_entry requires: the CLI aliases
  // ("conventional", "ext") are for humans, and no encoder writes them.
  const std::optional<core::PolicyKind> kind = core::try_parse_policy(policy);
  if (!read.complete() || !kind || policy != core::policy_name(*kind) ||
      request.fingerprint_hex.empty() || request.workload.empty())
    return std::nullopt;
  request.key.policy = *kind;
  request.key.workload = request.workload;

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
  return request;
}

// ---- ResultMsg ----------------------------------------------------------

std::string encode_result(const ResultMsg& msg) {
  std::string out;
  const record::Writer write(out, ' ');
  write("id", msg.id);
  write("cached", msg.cached);
  out += msg.entry_text;
  return out;
}

std::optional<ResultMsg> decode_result(std::string_view payload) {
  record::Lines lines(payload);
  ResultMsg msg;
  if (!record::read_line(lines, "id", msg.id) ||
      !record::read_line(lines, "cached", msg.cached) || lines.rest().empty())
    return std::nullopt;
  msg.entry_text = lines.rest();
  return msg;
}

// ---- ErrorMsg -----------------------------------------------------------

std::string encode_error(const ErrorMsg& msg) {
  std::string out;
  const record::Writer write(out, ' ');
  write("id", msg.id);
  out += msg.message;
  return out;
}

std::optional<ErrorMsg> decode_error(std::string_view payload) {
  record::Lines lines(payload);
  ErrorMsg msg;
  if (!record::read_line(lines, "id", msg.id)) return std::nullopt;
  msg.message = lines.rest();
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
  f("cancelled", stats.cancelled);
  f("dropped_clients", stats.dropped_clients);
  f("quarantined", stats.quarantined);
}

}  // namespace

std::string encode_stats(const DaemonStats& stats) {
  std::string out;
  daemon_stats_fields(stats, record::Writer(out, ' '));
  return out;
}

std::optional<DaemonStats> decode_stats(std::string_view payload) {
  record::FieldMap fields;
  record::Lines lines(payload);
  for (std::string_view line; lines.next(line);) {
    const std::optional<record::Field> field = record::split(line, ' ');
    if (!field || !record::add(fields, *field)) return std::nullopt;
  }
  DaemonStats stats;
  record::Reader read(fields);
  daemon_stats_fields(stats, read);
  if (!read.complete()) return std::nullopt;
  return stats;
}

}  // namespace erel::service

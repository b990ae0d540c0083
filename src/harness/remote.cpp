#include "harness/remote.hpp"

#include <utility>

namespace erel::harness {

RemoteBackend::RemoteBackend(std::string endpoint,
                             const service::ClientOptions& opts)
    : endpoint_(std::move(endpoint)), client_(opts) {}

bool RemoteBackend::connect() { return client_.connect(endpoint_); }

std::optional<std::uint64_t> RemoteBackend::dispatch(
    const ExpKey& key, const RunSpec& spec, const std::string& fp_hex) {
  service::CellRequest request;
  request.id = next_id_++;
  request.key = key;
  request.workload = spec.workload;
  request.fingerprint_hex = fp_hex;
  request.config = spec.config;
  request.sampling = spec.sampling;
  request.probe_names = spec.probes;
  if (client_.send_cell(request)) return request.id;
  return std::nullopt;
}

std::optional<ExpEntry> RemoteBackend::await(std::uint64_t wire_id,
                                             const ExpKey& key,
                                             const std::string& fp_hex,
                                             std::string* raw_text,
                                             std::string* why) {
  const std::optional<service::ResultMsg> msg = client_.await(wire_id, why);
  if (!msg) return std::nullopt;
  // The daemon validated its own side; validate ours with the cache parser
  // (same fingerprint + key discipline as a local .erelres file).
  std::optional<ExpEntry> entry = parse_entry(msg->entry_text, fp_hex, key);
  if (!entry) {
    if (why != nullptr)
      *why = "daemon result failed local validation (diverged builds?)";
    return std::nullopt;
  }
  entry->from_cache = msg->cached;
  if (raw_text != nullptr) *raw_text = msg->entry_text;
  return entry;
}

}  // namespace erel::harness

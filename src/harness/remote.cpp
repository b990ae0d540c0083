#include "harness/remote.hpp"

#include <utility>

#include "service/client.hpp"

namespace erel::harness {

namespace {

service::ClientOptions to_client_options(const RemoteOptions& opts) {
  service::ClientOptions copts;
  copts.connect_timeout_ms = opts.connect_timeout_ms;
  copts.call_timeout_ms = opts.call_timeout_ms;
  copts.jitter_seed = opts.jitter_seed;
  return copts;
}

bool status_retryable(service::CallStatus status) {
  switch (status) {
    case service::CallStatus::kBusy:
    case service::CallStatus::kTimeout:
    case service::CallStatus::kDisconnected:
      return true;
    case service::CallStatus::kOk:
    case service::CallStatus::kRefused:
    case service::CallStatus::kProtocolError:
      return false;
  }
  return false;
}

}  // namespace

RemoteBackend::RemoteBackend(std::string endpoint, const RemoteOptions& opts)
    : endpoint_(std::move(endpoint)),
      client_(
          std::make_unique<service::RemoteClient>(to_client_options(opts))) {}

RemoteBackend::~RemoteBackend() = default;

bool RemoteBackend::connect() {
  if (client_->connect(endpoint_)) return true;
  error_ = client_->error();
  return false;
}

std::optional<std::uint64_t> RemoteBackend::dispatch(
    const ExpKey& key, const RunSpec& spec, const std::string& fp_hex) {
  service::CellRequest request;
  request.id = next_id_++;
  request.key = key;
  request.workload = spec.workload;
  request.fingerprint_hex = fp_hex;
  request.config = spec.config;
  request.sampling = spec.sampling;
  for (const sim::ProbeSpec& probe : spec.probes)
    request.probe_names.push_back(probe.name);
  if (client_->send_cell(request)) return request.id;
  error_ = client_->error();
  retryable_ = status_retryable(client_->last_status());
  return std::nullopt;
}

std::optional<ExpEntry> RemoteBackend::await(std::uint64_t wire_id,
                                             const ExpKey& key,
                                             const std::string& fp_hex,
                                             std::string* raw_text,
                                             std::string* why) {
  const std::optional<service::ResultMsg> msg = client_->await(wire_id, why);
  if (!msg) {
    error_ = client_->error();
    retryable_ = status_retryable(client_->last_status());
    return std::nullopt;
  }
  // The daemon validated its own side; validate ours with the cache parser
  // (same fingerprint + key discipline as a local .erelres file).
  std::optional<ExpEntry> entry = parse_entry(msg->entry_text, fp_hex, key);
  if (!entry) {
    if (why != nullptr)
      *why = "daemon result failed local validation (diverged builds?)";
    retryable_ = false;  // the same daemon would send the same bytes again
    return std::nullopt;
  }
  entry->from_cache = msg->cached;
  if (raw_text != nullptr) *raw_text = msg->entry_text;
  return entry;
}

std::uint64_t RemoteBackend::retry_hint_ms() const {
  return client_->last_status() == service::CallStatus::kBusy
             ? client_->last_busy_retry_ms()
             : 0;
}

void RemoteBackend::abandon(std::uint64_t wire_id) {
  client_->cancel(wire_id);
}

void RemoteBackend::reset_connection() { client_->reset_connection(); }

}  // namespace erel::harness

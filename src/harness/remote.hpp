// harness::RemoteBackend — routes experiment cells through an
// ExperimentDaemon (src/service/) instead of the local thread pool.
//
// The backend is deliberately dumb: Experiment::run still owns cell
// materialization, fingerprinting, the local cache check and the fallback
// policy; RemoteBackend only translates (key, spec, fingerprint) into wire
// requests and wire responses back into validated ExpEntry values. Every
// retry happens inside service::RemoteClient. Every failure — unreachable
// daemon, spent retry budget, refused cell, malformed reply — is a
// nullopt/false with the reason in error()/the `why` out-param, never an
// abort: a dead daemon must degrade a sweep to local simulation, not kill
// it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "harness/harness.hpp"
#include "harness/results.hpp"
#include "service/client.hpp"

namespace erel::harness {

class RemoteBackend {
 public:
  /// `endpoint` is "host:port". Does not connect yet.
  explicit RemoteBackend(std::string endpoint,
                         const service::ClientOptions& opts = {});

  /// Connects and validates the protocol greeting. False (with error())
  /// when the daemon is unreachable or speaks a different version.
  [[nodiscard]] bool connect();

  [[nodiscard]] const std::string& error() const { return client_.error(); }

  /// Ships one cell on a fresh wire id (unique per backend lifetime).
  /// Returns the wire id to await on, or nullopt once the client has
  /// failed. `fp_hex` is the spec's fingerprint (fingerprint_cell).
  [[nodiscard]] std::optional<std::uint64_t> dispatch(
      const ExpKey& key, const RunSpec& spec, const std::string& fp_hex);

  /// Blocks for the response to `wire_id`, retries included. The returned
  /// entry is re-validated against (fp_hex, key) with the same parser the
  /// disk cache uses; `raw_text` (optional) receives the daemon's verbatim
  /// `.erelres` text so the caller can populate its local cache
  /// byte-identically. nullopt (reason in `why`) means the daemon will not
  /// serve this cell: simulate it locally.
  [[nodiscard]] std::optional<ExpEntry> await(std::uint64_t wire_id,
                                              const ExpKey& key,
                                              const std::string& fp_hex,
                                              std::string* raw_text,
                                              std::string* why);

 private:
  std::string endpoint_;
  std::uint64_t next_id_ = 1;
  service::RemoteClient client_;
};

}  // namespace erel::harness

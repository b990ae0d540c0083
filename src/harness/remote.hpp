// harness::RemoteBackend — routes experiment cells through an
// ExperimentDaemon (src/service/) instead of the local thread pool.
//
// The backend is deliberately dumb: Experiment::run still owns cell
// materialization, fingerprinting, the local cache check and the fallback
// policy; RemoteBackend only translates (key, spec, fingerprint) into wire
// requests and wire responses back into validated ExpEntry values. Every
// failure — unreachable daemon, refused cell, malformed reply — is a
// nullopt/false with the reason in error()/the `why` out-param, never an
// abort: a dead daemon must degrade a sweep to local simulation, not kill
// it.
//
// Failure classification (v2): after a failed await() the caller asks
// last_failure_retryable(). Deadline timeouts, kBusy admission refusals and
// torn connections are retryable — re-dispatching the same cell is safe
// because requests are content-addressed (the daemon serves a cache hit or
// joins the in-flight run, never simulates twice). Version mismatches,
// refused cells and protocol violations are fatal for the daemon path and
// go straight to local simulation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "harness/harness.hpp"
#include "harness/results.hpp"

namespace erel::service {
class RemoteClient;
}

namespace erel::harness {

/// Deadline and retry tuning for the daemon path of a sweep. The defaults
/// suit a loopback daemon; sweeps over a real network raise the deadlines.
struct RemoteOptions {
  unsigned connect_timeout_ms = 5'000;
  /// Deadline for one await of one cell's result (covers transparent
  /// reconnects the client performs inside the call).
  unsigned call_timeout_ms = 120'000;
  /// Re-dispatch attempts per cell after the first, spent only on
  /// retryable failures (timeout / kBusy / torn connection) before the
  /// cell degrades to local simulation.
  unsigned retries = 3;
  /// Backoff between re-dispatches: base doubled per attempt, capped.
  /// A kBusy retry hint from the daemon overrides a shorter backoff.
  unsigned backoff_base_ms = 50;
  unsigned backoff_cap_ms = 1'000;
  /// Seed for the client's reconnect-backoff jitter (deterministic so
  /// tests replay exactly).
  std::uint64_t jitter_seed = 0;
};

class RemoteBackend {
 public:
  /// `endpoint` is "host:port". Does not connect yet.
  explicit RemoteBackend(std::string endpoint, const RemoteOptions& opts = {});
  ~RemoteBackend();

  RemoteBackend(const RemoteBackend&) = delete;
  RemoteBackend& operator=(const RemoteBackend&) = delete;

  /// Connects and validates the protocol greeting. False (with error())
  /// when the daemon is unreachable or speaks a different version.
  [[nodiscard]] bool connect();

  [[nodiscard]] const std::string& error() const { return error_; }

  /// Ships one cell on a fresh wire id (unique per backend lifetime, so a
  /// retried cell never collides with the id of an abandoned attempt).
  /// Returns the wire id to await on, or nullopt on connection loss.
  /// The spec must be fingerprintable — the caller already computed
  /// `fp_hex` from it.
  [[nodiscard]] std::optional<std::uint64_t> dispatch(
      const ExpKey& key, const RunSpec& spec, const std::string& fp_hex);

  /// Blocks for the response to `wire_id` (bounded by the call deadline).
  /// The returned entry is re-validated against (fp_hex, key) with the same
  /// parser the disk cache uses; `raw_text` (optional) receives the
  /// daemon's verbatim `.erelres` text so the caller can populate its
  /// local cache byte-identically. nullopt (reason in `why`) means the
  /// attempt failed — consult last_failure_retryable() before falling back
  /// to local simulation.
  [[nodiscard]] std::optional<ExpEntry> await(std::uint64_t wire_id,
                                              const ExpKey& key,
                                              const std::string& fp_hex,
                                              std::string* raw_text,
                                              std::string* why);

  /// True when the last failed await() is worth re-dispatching (deadline
  /// timeout, kBusy, torn connection); false for fatal refusals (version
  /// mismatch, refused cell, protocol violation, validation failure).
  [[nodiscard]] bool last_failure_retryable() const { return retryable_; }

  /// The daemon's suggested wait from the last kBusy refusal (ms), 0
  /// otherwise.
  [[nodiscard]] std::uint64_t retry_hint_ms() const;

  /// Withdraws an outstanding request before re-dispatching it: tells the
  /// daemon (kCancel, when still connected) and drops client-side state
  /// for the id, so a late result for the old attempt is discarded instead
  /// of clashing with the retry.
  void abandon(std::uint64_t wire_id);

  /// Tears the connection down before a retry when the failure pattern
  /// suggests the connection itself is sick (an await deadline with no
  /// kBusy hint: the daemon either never saw the request or its reply is
  /// stuck in a half-dead pipe). The next dispatch revives the connection
  /// and resubmission is safe by content addressing. Without this, a
  /// blackholed connection makes every remaining cell burn its full retry
  /// budget on the same dead socket.
  void reset_connection();

 private:
  std::string endpoint_;
  std::string error_;
  bool retryable_ = false;
  std::uint64_t next_id_ = 1;
  std::unique_ptr<service::RemoteClient> client_;
};

}  // namespace erel::harness

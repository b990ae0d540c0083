// Blocking client for the experiment daemon (service/daemon.hpp): one TCP
// connection, pipelined cell requests, synchronous await with out-of-order
// response buffering.
//
// The client never throws and never aborts on network trouble: every
// failure surfaces as a false/nullopt return with the reason in error()
// and a CallStatus classification in last_status(), so callers
// (harness::RemoteBackend) can tell retryable trouble (timeout, kBusy,
// torn connection) from fatal refusals (version mismatch, fingerprint
// refusal) and degrade to local simulation only when retrying is useless.
//
// Every blocking call is deadline-bounded (ClientOptions::call_timeout_ms),
// connects are bounded and retried with capped exponential backoff +
// deterministic jitter, and a torn connection is revived transparently —
// outstanding requests are resubmitted on the new connection, which is
// safe by construction because requests are content-addressed
// fingerprints: the daemon answers a resubmitted cell from its cache or
// joins it to the in-flight simulation, never simulates it twice. A daemon
// greeting with another protocol version is refused outright and never
// retried.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "common/bits.hpp"
#include "net/socket.hpp"
#include "service/protocol.hpp"

namespace erel::service {

/// Deadlines and retry shape for one RemoteClient. The defaults suit a
/// loopback daemon; sweeps over a real network raise call_timeout_ms.
struct ClientOptions {
  unsigned connect_timeout_ms = 5'000;
  /// Deadline for one await()/stats() call, covering any transparent
  /// reconnects it performs. An await that times out leaves the
  /// connection (and the pending request) intact: the result is picked up
  /// by a later await or retry.
  unsigned call_timeout_ms = 120'000;
  /// Reconnect attempts after a torn connection (per call), with capped
  /// exponential backoff + jitter between attempts.
  unsigned reconnect_attempts = 3;
  unsigned backoff_base_ms = 20;
  unsigned backoff_cap_ms = 1'000;
  /// Seed for backoff jitter: deterministic, so tests replay exactly.
  std::uint64_t jitter_seed = 0;
};

/// How the last await()/stats() call ended; the retry/degrade decision in
/// harness::RemoteBackend keys off this, not off error-message strings.
enum class CallStatus {
  kOk,
  kRefused,        // daemon answered kError for this id: fatal for the cell
  kBusy,           // daemon refused admission (kBusy): back off and retry
  kTimeout,        // call deadline expired: connection intact, retryable
  kDisconnected,   // connection torn and could not be revived: retryable
  kProtocolError,  // peer broke the protocol: connection closed
};

std::string_view call_status_name(CallStatus status);

class RemoteClient {
 public:
  RemoteClient() = default;
  explicit RemoteClient(const ClientOptions& opts)
      : opts_(opts), jitter_(opts.jitter_seed) {}

  /// Connects to "host:port" and validates the daemon's kHello (a version
  /// mismatch is a fatal refusal — the payload encodings may have
  /// diverged). Retries non-fatal failures with backoff.
  [[nodiscard]] bool connect(const std::string& endpoint);

  [[nodiscard]] bool connected() const { return socket_.valid(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] CallStatus last_status() const { return last_status_; }
  /// The daemon's retry hint from the last kBusy refusal, milliseconds.
  [[nodiscard]] std::uint64_t last_busy_retry_ms() const {
    return last_busy_retry_ms_;
  }
  /// Successful transparent reconnects performed so far (test observability).
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }

  /// Pipelined send; the response is read by await(). The request is held
  /// for transparent resubmission until its response arrives (or the id is
  /// cancelled/forgotten). Ids must be unique per client lifetime.
  [[nodiscard]] bool send_cell(const CellRequest& request);

  /// Blocks until the response for `id` arrives or the call deadline
  /// expires (responses to other pipelined ids are buffered). nullopt on
  /// anything but kResult; `why` (optional) receives the reason and
  /// last_status() the classification.
  [[nodiscard]] std::optional<ResultMsg> await(std::uint64_t id,
                                               std::string* why = nullptr);

  /// Withdraws request `id`: tells the daemon (kCancel, when connected)
  /// and drops all local state for the id. The daemon's acknowledgement
  /// and any late result are discarded silently.
  void cancel(std::uint64_t id);

  /// Drops all local state for `id` without telling the daemon (for ids
  /// that died with a torn connection).
  void forget(std::uint64_t id);

  /// Tears the connection down on purpose, keeping pending requests: the
  /// next call revives it and resubmits them (idempotent by content
  /// addressing). For callers that judge a connection suspect — e.g.
  /// repeated await deadlines on a path that normally answers fast, the
  /// signature of a half-dead (blackholed) peer that send() cannot detect.
  void reset_connection();

  /// Round-trips kStats within the call deadline. nullopt on failure.
  [[nodiscard]] std::optional<DaemonStats> stats();

  /// Sends kShutdown and waits (bounded) for the daemon to close.
  [[nodiscard]] bool shutdown_server();

 private:
  enum class Pumped { kDelivered, kOther, kClosed, kTimeout };
  /// Reads one frame within `timeout_ms` and buffers it if it is a
  /// response. Enforces the response-buffer cap and treats a duplicate
  /// response id as a protocol error (closes the connection).
  Pumped pump(int timeout_ms);
  Pumped protocol_error(std::string message);
  Pumped enforce_buffer_cap();
  [[nodiscard]] bool response_buffered(std::uint64_t id) const;

  /// One bounded connect + hello validation; sets fatal_ on refusals that
  /// retrying cannot fix.
  bool connect_once();
  /// Reconnect loop with backoff; resubmits pending requests on success.
  bool revive();
  bool resubmit_pending();
  void backoff_sleep(unsigned attempt);

  ClientOptions opts_;
  net::Socket socket_;
  std::string endpoint_;
  std::string error_;
  bool fatal_ = false;  // refusal that reconnecting cannot fix
  CallStatus last_status_ = CallStatus::kOk;
  std::uint64_t last_busy_retry_ms_ = 0;
  std::uint64_t reconnects_ = 0;
  Xorshift jitter_{0};

  std::map<std::uint64_t, CellRequest> pending_;  // sent, not yet answered
  std::set<std::uint64_t> discard_ids_;           // cancelled; drop replies
  std::map<std::uint64_t, ResultMsg> results_;
  std::map<std::uint64_t, ErrorMsg> errors_;
  std::map<std::uint64_t, BusyMsg> busies_;
  std::optional<DaemonStats> last_stats_;
};

}  // namespace erel::service

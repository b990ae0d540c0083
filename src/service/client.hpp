// Blocking client for the experiment daemon (service/daemon.hpp): one TCP
// connection, pipelined cell requests, synchronous await with out-of-order
// response buffering.
//
// The client never throws and never aborts on network trouble: every
// failure surfaces as a false/nullopt return with the reason in error(),
// and the caller (harness::RemoteBackend, Experiment::run) simulates the
// cell locally.
//
// The client owns every retry of the daemon path, in one loop shared by
// connect(), await() and stats():
//   - a kResult returns;
//   - a refusal (kError), a protocol violation or a version mismatch fails
//     at once;
//   - an expired call deadline or a torn connection spends one retry from
//     the call's budget (ClientOptions::retries). The client waits one
//     capped exponential backoff, drops the connection if the call timed
//     out, and reconnects.
// Reconnecting resubmits every pending request. That is safe by
// construction because requests are content-addressed fingerprints: the
// daemon answers a resubmitted cell from its cache or joins it to the
// in-flight simulation, never simulates it twice. A call that spends its
// whole budget, a protocol violation and a version mismatch leave the
// client failed: every later call returns at once, so a dead or mute daemon
// costs one budget per sweep, not one per cell.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "net/socket.hpp"
#include "service/protocol.hpp"

namespace erel::service {

/// Deadlines and retry budget of the daemon path: the values a sweep's
/// --server-timeout-ms and --server-retries set. The defaults suit a
/// loopback daemon; sweeps over a real network raise call_timeout_ms.
struct ClientOptions {
  /// Bounds one TCP connect plus the daemon's greeting.
  unsigned connect_timeout_ms = 5'000;
  /// Bounds one attempt of an await()/stats() call.
  unsigned call_timeout_ms = 120'000;
  /// Retries per call after the first attempt, spent on expired deadlines
  /// and torn connections.
  unsigned retries = 3;
};

class RemoteClient {
 public:
  RemoteClient() = default;
  explicit RemoteClient(const ClientOptions& opts) : opts_(opts) {}

  /// Connects to "host:port" and validates the daemon's kHello (a version
  /// mismatch fails the client: the payload encodings may have diverged).
  [[nodiscard]] bool connect(const std::string& endpoint);

  [[nodiscard]] const std::string& error() const { return error_; }

  /// Pipelined send; the response is read by await(). The request is held
  /// for resubmission until await() claims its response. Ids must be
  /// unique per client lifetime. False only once the client has failed.
  [[nodiscard]] bool send_cell(const CellRequest& request);

  /// Blocks until the response for `id` arrives, retrying as described
  /// above (responses to other pipelined ids are buffered). nullopt on
  /// anything but kResult; `why` (optional) receives the reason.
  [[nodiscard]] std::optional<ResultMsg> await(std::uint64_t id,
                                               std::string* why = nullptr);

  /// Round-trips kStats. nullopt on failure.
  [[nodiscard]] std::optional<DaemonStats> stats();

  /// Sends kShutdown and waits (bounded) for the daemon to close.
  [[nodiscard]] bool shutdown_server();

 private:
  /// How one attempt of a call ended.
  enum class Step { kDone, kFailed, kRetry };
  /// The retry loop: runs `attempt` until it is done, fails, or spends the
  /// budget.
  bool call(const std::function<Step()>& attempt);
  /// Marks the client failed with `message`, closing the connection.
  Step fail(std::string message);

  /// Reads one frame within `timeout_ms` and buffers it if it is a
  /// response. A response must answer a pending request that has no
  /// buffered response yet; any other id is a protocol violation, so the
  /// buffers never hold more responses than the caller pipelined. False
  /// when the connection closed: torn, or the peer broke the protocol and
  /// the client failed.
  bool pump(int timeout_ms);
  /// Pumps until `arrived()` or the call deadline; a call that times out
  /// drops the connection and asks for a retry.
  Step wait_until(const std::function<bool()>& arrived,
                  const std::string& what);
  [[nodiscard]] bool response_buffered(std::uint64_t id) const;

  /// Opens a connection if there is none: one bounded connect, hello
  /// validation and resubmission of every pending request. kFailed at once
  /// on a failed client.
  Step reconnect();
  bool send_request(const CellRequest& request);

  ClientOptions opts_;
  net::Socket socket_;
  std::string endpoint_;
  std::string error_;
  bool failed_ = false;  // every later call returns at once

  std::map<std::uint64_t, CellRequest> pending_;  // sent, not yet claimed
  std::map<std::uint64_t, ResultMsg> results_;
  std::map<std::uint64_t, ErrorMsg> errors_;
  std::optional<DaemonStats> last_stats_;
};

}  // namespace erel::service

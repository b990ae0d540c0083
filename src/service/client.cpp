#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace erel::service {

namespace {

/// The await/stats buffers hold responses to *pipelined* requests, so
/// their size is bounded by how many requests a sane client pipelines. A
/// peer that pushes more responses than that is broken or hostile; cap the
/// buffers instead of letting it grow our heap without bound.
constexpr std::size_t kMaxBufferedResponses = 1024;

int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 1'000'000'000) return 1'000'000'000;
  return static_cast<int>(left.count());
}

}  // namespace

std::string_view call_status_name(CallStatus status) {
  switch (status) {
    case CallStatus::kOk: return "ok";
    case CallStatus::kRefused: return "refused";
    case CallStatus::kBusy: return "busy";
    case CallStatus::kTimeout: return "timeout";
    case CallStatus::kDisconnected: return "disconnected";
    case CallStatus::kProtocolError: return "protocol_error";
  }
  return "?";
}

// ---- connection management ----------------------------------------------

bool RemoteClient::connect_once() {
  const auto parsed = net::parse_endpoint(endpoint_);
  if (!parsed) {
    error_ = "malformed endpoint '" + endpoint_ + "' (want host:port)";
    fatal_ = true;
    return false;
  }
  socket_ = net::connect_to(parsed->first, parsed->second, &error_,
                            static_cast<int>(opts_.connect_timeout_ms));
  if (!socket_.valid()) return false;

  net::Frame hello;
  bool clean_eof = false;
  switch (socket_.recv_frame_deadline(
      hello, static_cast<int>(opts_.connect_timeout_ms), &clean_eof)) {
    case net::Socket::RecvStatus::kFrame:
      break;
    case net::Socket::RecvStatus::kTimeout:
      error_ = "timed out waiting for ereld greeting from " + endpoint_;
      socket_ = net::Socket{};
      return false;
    case net::Socket::RecvStatus::kEof:
    case net::Socket::RecvStatus::kError:
      error_ = "no ereld greeting from " + endpoint_;
      socket_ = net::Socket{};
      return false;
  }
  if (static_cast<MsgType>(hello.type) != MsgType::kHello) {
    error_ = "expected hello from " + endpoint_ + ", got " +
             std::string(msg_type_name(static_cast<MsgType>(hello.type)));
    socket_ = net::Socket{};
    fatal_ = true;  // whatever answered is not an ereld we can talk to
    return false;
  }
  const std::string expected = "ereld " + std::to_string(kProtocolVersion);
  if (hello.payload != expected) {
    error_ = "protocol mismatch: daemon says '" + hello.payload +
             "', client speaks '" + expected + "'";
    socket_ = net::Socket{};
    fatal_ = true;  // reconnecting reaches the same daemon
    return false;
  }
  return true;
}

void RemoteClient::backoff_sleep(unsigned attempt) {
  std::uint64_t backoff = opts_.backoff_base_ms;
  for (unsigned i = 0; i < attempt && backoff < opts_.backoff_cap_ms; ++i)
    backoff *= 2;
  backoff = std::min<std::uint64_t>(backoff, opts_.backoff_cap_ms);
  // Jitter in [backoff/2, backoff]: desynchronizes a fleet of clients
  // hammering one recovering daemon, deterministically per jitter_seed.
  const std::uint64_t jittered = backoff / 2 + jitter_.below(backoff / 2 + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
}

bool RemoteClient::resubmit_pending() {
  // Content-addressed requests make this resubmission idempotent: the
  // daemon serves a repeat from cache or joins it to the in-flight cell.
  for (const auto& [id, request] : pending_) {
    if (!socket_.send_frame(
            net::Frame{static_cast<std::uint8_t>(MsgType::kRunCell),
                       encode_cell_request(request)})) {
      error_ = "connection lost while resubmitting request " +
               std::to_string(id);
      socket_ = net::Socket{};
      return false;
    }
  }
  return true;
}

bool RemoteClient::revive() {
  if (endpoint_.empty() || fatal_) return false;
  for (unsigned attempt = 0; attempt < opts_.reconnect_attempts; ++attempt) {
    backoff_sleep(attempt);
    if (connect_once()) {
      // The old connection's cancel acks died with it; the new daemon-side
      // state has no memory of them.
      discard_ids_.clear();
      if (resubmit_pending()) {
        ++reconnects_;
        return true;
      }
      continue;  // torn again mid-resubmit: next attempt
    }
    if (fatal_) return false;
  }
  return false;
}

bool RemoteClient::connect(const std::string& endpoint) {
  endpoint_ = endpoint;
  fatal_ = false;
  error_.clear();
  if (connect_once()) return true;
  if (fatal_) return false;
  return revive();
}

// ---- sends ---------------------------------------------------------------

bool RemoteClient::send_cell(const CellRequest& request) {
  pending_[request.id] = request;
  if (!socket_.valid() && !revive()) {
    pending_.erase(request.id);
    last_status_ = CallStatus::kDisconnected;
    return false;
  }
  if (socket_.send_frame(
          net::Frame{static_cast<std::uint8_t>(MsgType::kRunCell),
                     encode_cell_request(request)}))
    return true;
  error_ = "connection lost while sending cell request";
  socket_ = net::Socket{};
  if (revive()) return true;  // resubmit_pending() already sent it
  pending_.erase(request.id);
  last_status_ = CallStatus::kDisconnected;
  return false;
}

void RemoteClient::cancel(std::uint64_t id) {
  const bool was_pending = pending_.erase(id) != 0;
  results_.erase(id);
  errors_.erase(id);
  busies_.erase(id);
  if (was_pending && socket_.valid()) {
    // Best effort: the ack (and any racing result) is dropped by pump().
    discard_ids_.insert(id);
    if (!socket_.send_frame(
            net::Frame{static_cast<std::uint8_t>(MsgType::kCancel),
                       encode_cancel(CancelMsg{id})})) {
      socket_ = net::Socket{};
      discard_ids_.erase(id);
    }
  }
}

void RemoteClient::forget(std::uint64_t id) {
  pending_.erase(id);
  results_.erase(id);
  errors_.erase(id);
  busies_.erase(id);
  discard_ids_.erase(id);
}

void RemoteClient::reset_connection() {
  socket_ = net::Socket{};
  // Cancel acknowledgements in flight died with the connection; the ids
  // must not linger and swallow unrelated future responses.
  discard_ids_.clear();
}

// ---- receive pump --------------------------------------------------------

RemoteClient::Pumped RemoteClient::protocol_error(std::string message) {
  error_ = std::move(message);
  last_status_ = CallStatus::kProtocolError;
  socket_ = net::Socket{};
  return Pumped::kClosed;
}

bool RemoteClient::response_buffered(std::uint64_t id) const {
  return results_.count(id) != 0 || errors_.count(id) != 0 ||
         busies_.count(id) != 0;
}

RemoteClient::Pumped RemoteClient::enforce_buffer_cap() {
  if (results_.size() + errors_.size() + busies_.size() >
      kMaxBufferedResponses)
    return protocol_error("response buffer overflow (more than " +
                          std::to_string(kMaxBufferedResponses) +
                          " unclaimed responses)");
  return Pumped::kDelivered;
}

RemoteClient::Pumped RemoteClient::pump(int timeout_ms) {
  net::Frame frame;
  bool clean_eof = false;
  switch (socket_.recv_frame_deadline(frame, timeout_ms, &clean_eof)) {
    case net::Socket::RecvStatus::kFrame:
      break;
    case net::Socket::RecvStatus::kTimeout:
      return Pumped::kTimeout;
    case net::Socket::RecvStatus::kEof:
    case net::Socket::RecvStatus::kError:
      error_ = clean_eof ? "daemon closed the connection"
                         : "connection lost (corrupt frame or read error)";
      socket_ = net::Socket{};
      return Pumped::kClosed;
  }
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kResult: {
      std::optional<ResultMsg> msg = decode_result(frame.payload);
      if (!msg) return protocol_error("malformed kResult payload");
      if (discard_ids_.erase(msg->id) != 0) return Pumped::kOther;
      if (response_buffered(msg->id))
        return protocol_error("duplicate response id " +
                              std::to_string(msg->id));
      results_.emplace(msg->id, std::move(*msg));
      return enforce_buffer_cap();
    }
    case MsgType::kError: {
      std::optional<ErrorMsg> msg = decode_error(frame.payload);
      if (!msg) return protocol_error("malformed kError payload");
      if (msg->id != 0 && discard_ids_.erase(msg->id) != 0)
        return Pumped::kOther;  // ack for a cancelled id
      if (msg->id == 0) {
        // Connection-level error: latest wins, never a duplicate.
        errors_[0] = std::move(*msg);
        return Pumped::kDelivered;
      }
      if (response_buffered(msg->id))
        return protocol_error("duplicate response id " +
                              std::to_string(msg->id));
      errors_.emplace(msg->id, std::move(*msg));
      return enforce_buffer_cap();
    }
    case MsgType::kBusy: {
      std::optional<BusyMsg> msg = decode_busy(frame.payload);
      if (!msg) return protocol_error("malformed kBusy payload");
      if (discard_ids_.erase(msg->id) != 0) return Pumped::kOther;
      if (response_buffered(msg->id))
        return protocol_error("duplicate response id " +
                              std::to_string(msg->id));
      busies_.emplace(msg->id, *msg);
      return enforce_buffer_cap();
    }
    case MsgType::kStatsReply: {
      last_stats_ = decode_stats(frame.payload);
      return Pumped::kOther;
    }
    default:
      return Pumped::kOther;  // not a response: ignore, stay connected
  }
}

// ---- blocking calls ------------------------------------------------------

std::optional<ResultMsg> RemoteClient::await(std::uint64_t id,
                                             std::string* why) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.call_timeout_ms);
  last_status_ = CallStatus::kOk;
  for (;;) {
    if (const auto it = results_.find(id); it != results_.end()) {
      ResultMsg msg = std::move(it->second);
      results_.erase(it);
      pending_.erase(id);
      last_status_ = CallStatus::kOk;
      return msg;
    }
    if (const auto it = errors_.find(id); it != errors_.end()) {
      if (why != nullptr) *why = "daemon refused cell: " + it->second.message;
      errors_.erase(it);
      pending_.erase(id);
      last_status_ = CallStatus::kRefused;
      return std::nullopt;
    }
    if (const auto it = busies_.find(id); it != busies_.end()) {
      last_busy_retry_ms_ = it->second.retry_ms;
      if (why != nullptr)
        *why = "daemon busy (retry in " +
               std::to_string(it->second.retry_ms) + "ms)";
      busies_.erase(it);
      pending_.erase(id);  // kBusy means it was never enqueued
      last_status_ = CallStatus::kBusy;
      return std::nullopt;
    }
    // Connection-level errors (id 0) poison every pending await.
    if (const auto it = errors_.find(0); id != 0 && it != errors_.end()) {
      if (why != nullptr) *why = "daemon error: " + it->second.message;
      last_status_ = CallStatus::kRefused;
      return std::nullopt;
    }
    if (!socket_.valid() && !revive()) {
      if (why != nullptr) *why = error_;
      if (last_status_ != CallStatus::kProtocolError)
        last_status_ = CallStatus::kDisconnected;
      return std::nullopt;
    }
    const int left = remaining_ms(deadline);
    if (left <= 0) {
      error_ = "await deadline expired for request " + std::to_string(id);
      if (why != nullptr) *why = error_;
      last_status_ = CallStatus::kTimeout;
      return std::nullopt;  // connection and pending request stay intact
    }
    switch (pump(left)) {
      case Pumped::kClosed:
        if (last_status_ == CallStatus::kProtocolError) {
          // The peer broke the protocol; do not quietly reconnect over it.
          if (why != nullptr) *why = error_;
          return std::nullopt;
        }
        // Loop: the !socket_.valid() branch above revives (which also
        // resubmits the awaited request) or gives up.
        break;
      case Pumped::kTimeout:
      case Pumped::kDelivered:
      case Pumped::kOther:
        break;
    }
  }
}

std::optional<DaemonStats> RemoteClient::stats() {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.call_timeout_ms);
  last_status_ = CallStatus::kOk;
  last_stats_.reset();
  if (!socket_.valid() && !revive()) {
    last_status_ = CallStatus::kDisconnected;
    return std::nullopt;
  }
  if (!socket_.send_frame(
          net::Frame{static_cast<std::uint8_t>(MsgType::kStats), ""})) {
    error_ = "connection lost while requesting stats";
    socket_ = net::Socket{};
    last_status_ = CallStatus::kDisconnected;
    return std::nullopt;
  }
  while (!last_stats_) {
    const int left = remaining_ms(deadline);
    if (left <= 0) {
      error_ = "stats deadline expired";
      last_status_ = CallStatus::kTimeout;
      return std::nullopt;
    }
    switch (pump(left)) {
      case Pumped::kClosed:
        if (last_status_ != CallStatus::kProtocolError)
          last_status_ = CallStatus::kDisconnected;
        return std::nullopt;
      default:
        break;
    }
  }
  last_status_ = CallStatus::kOk;
  return last_stats_;
}

bool RemoteClient::shutdown_server() {
  if (!socket_.valid()) return false;
  if (!socket_.send_frame(
          net::Frame{static_cast<std::uint8_t>(MsgType::kShutdown), ""}))
    return false;
  // Drain (bounded) until the daemon closes; clean EOF acknowledges.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.call_timeout_ms);
  for (;;) {
    net::Frame frame;
    bool clean_eof = false;
    switch (socket_.recv_frame_deadline(frame, remaining_ms(deadline),
                                        &clean_eof)) {
      case net::Socket::RecvStatus::kFrame:
        continue;
      case net::Socket::RecvStatus::kTimeout:
        error_ = "daemon did not close after kShutdown within the deadline";
        socket_ = net::Socket{};
        return false;
      case net::Socket::RecvStatus::kEof:
      case net::Socket::RecvStatus::kError:
        socket_ = net::Socket{};
        return clean_eof;
    }
  }
}

}  // namespace erel::service

#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace erel::service {

namespace {

/// Backoff before retry k (from 0): kBackoffBaseMs << k, capped.
constexpr std::uint64_t kBackoffBaseMs = 50;
constexpr std::uint64_t kBackoffCapMs = 1'000;

int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 1'000'000'000) return 1'000'000'000;
  return static_cast<int>(left.count());
}

}  // namespace

// ---- the retry loop ------------------------------------------------------

bool RemoteClient::call(const std::function<Step()>& attempt) {
  for (unsigned retry = 0;; ++retry) {
    switch (attempt()) {
      case Step::kDone:
        return true;
      case Step::kFailed:
        return false;
      case Step::kRetry:
        break;
    }
    if (retry == opts_.retries) {
      fail(error_ + " (gave up after " + std::to_string(retry + 1) +
           " attempt(s))");
      return false;
    }
    const std::uint64_t backoff = std::min<std::uint64_t>(
        kBackoffBaseMs << std::min(retry, 5u), kBackoffCapMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

RemoteClient::Step RemoteClient::fail(std::string message) {
  error_ = std::move(message);
  failed_ = true;
  socket_ = net::Socket{};  // lets the daemon reap what we still own
  return Step::kFailed;
}

// ---- connection management ----------------------------------------------

RemoteClient::Step RemoteClient::reconnect() {
  if (failed_) return Step::kFailed;
  if (socket_.valid()) return Step::kDone;
  const auto parsed = net::parse_endpoint(endpoint_);
  if (!parsed)
    return fail("malformed endpoint '" + endpoint_ + "' (want host:port)");
  socket_ = net::connect_to(parsed->first, parsed->second, &error_,
                            static_cast<int>(opts_.connect_timeout_ms));
  if (!socket_.valid()) return Step::kRetry;

  net::Frame hello;
  switch (socket_.recv_frame_deadline(
      hello, static_cast<int>(opts_.connect_timeout_ms))) {
    case net::Socket::RecvStatus::kFrame:
      break;
    case net::Socket::RecvStatus::kTimeout:
      error_ = "timed out waiting for ereld greeting from " + endpoint_;
      socket_ = net::Socket{};
      return Step::kRetry;
    case net::Socket::RecvStatus::kEof:
    case net::Socket::RecvStatus::kError:
      error_ = "no ereld greeting from " + endpoint_;
      socket_ = net::Socket{};
      return Step::kRetry;
  }
  if (static_cast<MsgType>(hello.type) != MsgType::kHello)
    return fail("expected hello from " + endpoint_ + ", got " +
                std::string(msg_type_name(static_cast<MsgType>(hello.type))));
  const std::string expected = "ereld " + std::to_string(kProtocolVersion);
  if (hello.payload != expected)
    return fail("protocol mismatch: daemon says '" + hello.payload +
                "', client speaks '" + expected + "'");

  // Resubmit every request still waiting for an answer. Content
  // addressing makes this idempotent: the daemon serves a repeat from its
  // store or joins it to the in-flight cell.
  for (const auto& [id, request] : pending_) {
    if (response_buffered(id)) continue;
    if (!send_request(request)) return Step::kRetry;
  }
  return Step::kDone;
}

bool RemoteClient::connect(const std::string& endpoint) {
  endpoint_ = endpoint;
  failed_ = false;
  error_.clear();
  socket_ = net::Socket{};
  return call([this] { return reconnect(); });
}

// ---- sends ---------------------------------------------------------------

bool RemoteClient::send_request(const CellRequest& request) {
  if (socket_.send_frame(
          net::Frame{static_cast<std::uint8_t>(MsgType::kRunCell),
                     encode_cell_request(request)}))
    return true;
  error_ = "connection lost while sending request " +
           std::to_string(request.id);
  socket_ = net::Socket{};
  return false;
}

bool RemoteClient::send_cell(const CellRequest& request) {
  if (failed_) return false;
  pending_[request.id] = request;
  // On a dead connection the next call reconnects and resubmits it.
  if (socket_.valid()) send_request(request);
  return true;
}

// ---- receive pump --------------------------------------------------------

bool RemoteClient::response_buffered(std::uint64_t id) const {
  return results_.count(id) != 0 || errors_.count(id) != 0;
}

bool RemoteClient::pump(int timeout_ms) {
  net::Frame frame;
  bool clean_eof = false;
  switch (socket_.recv_frame_deadline(frame, timeout_ms, &clean_eof)) {
    case net::Socket::RecvStatus::kFrame:
      break;
    case net::Socket::RecvStatus::kTimeout:
      return true;
    case net::Socket::RecvStatus::kEof:
    case net::Socket::RecvStatus::kError:
      error_ = clean_eof ? "daemon closed the connection"
                         : "connection lost (corrupt frame or read error)";
      socket_ = net::Socket{};
      return false;
  }
  // A peer that breaks the protocol fails the client: reconnecting would
  // reach the same peer.
  const auto broken = [this](std::string message) {
    fail(std::move(message));
    return false;
  };
  const auto buffer = [&](auto& responses, auto msg) {
    const std::uint64_t id = msg.id;
    if (pending_.count(id) == 0)
      return broken("response to id " + std::to_string(id) +
                    ", which no pending request has");
    if (response_buffered(id))
      return broken("duplicate response id " + std::to_string(id));
    responses.emplace(id, std::move(msg));
    return true;
  };
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kResult: {
      std::optional<ResultMsg> msg = decode_result(frame.payload);
      if (!msg) return broken("malformed kResult payload");
      return buffer(results_, std::move(*msg));
    }
    case MsgType::kError: {
      std::optional<ErrorMsg> msg = decode_error(frame.payload);
      if (!msg) return broken("malformed kError payload");
      // Id 0 is connection-level: the daemon cannot serve this client.
      if (msg->id == 0) return broken("daemon error: " + msg->message);
      return buffer(errors_, std::move(*msg));
    }
    case MsgType::kStatsReply:
      last_stats_ = decode_stats(frame.payload);
      if (!last_stats_) return broken("malformed kStatsReply payload");
      return true;
    default:
      return true;  // not a response: ignore, stay connected
  }
}

RemoteClient::Step RemoteClient::wait_until(
    const std::function<bool()>& arrived, const std::string& what) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.call_timeout_ms);
  while (!arrived()) {
    const int left = remaining_ms(deadline);
    if (left <= 0) {
      error_ = what + " deadline expired";
      // The connection is suspect (a blackholed peer looks exactly like
      // this); the retry reconnects and resubmits.
      socket_ = net::Socket{};
      return Step::kRetry;
    }
    if (!pump(left)) return failed_ ? Step::kFailed : Step::kRetry;
  }
  return Step::kDone;
}

// ---- blocking calls ------------------------------------------------------

std::optional<ResultMsg> RemoteClient::await(std::uint64_t id,
                                             std::string* why) {
  std::optional<ResultMsg> result;
  const bool ok = call([&] {
    if (!response_buffered(id)) {
      if (pending_.count(id) == 0) {
        error_ = "no request " + std::to_string(id) + " is pending";
        return Step::kFailed;
      }
      // After a dropped connection, reconnecting resubmits the request.
      if (const Step step = reconnect(); step != Step::kDone) return step;
      if (const Step step =
              wait_until([&] { return response_buffered(id); },
                         "await of request " + std::to_string(id));
          step != Step::kDone)
        return step;
    }
    if (const auto it = results_.find(id); it != results_.end()) {
      result = std::move(it->second);
      results_.erase(it);
      pending_.erase(id);
      return Step::kDone;
    }
    const auto it = errors_.find(id);  // buffered, not a result: refused
    error_ = "daemon refused cell: " + it->second.message;
    errors_.erase(it);
    pending_.erase(id);
    return Step::kFailed;
  });
  if (!ok && why != nullptr) *why = error_;
  return result;
}

std::optional<DaemonStats> RemoteClient::stats() {
  last_stats_.reset();
  const bool ok = call([this] {
    if (const Step step = reconnect(); step != Step::kDone) return step;
    if (!socket_.send_frame(
            net::Frame{static_cast<std::uint8_t>(MsgType::kStats), ""})) {
      error_ = "connection lost while requesting stats";
      socket_ = net::Socket{};
      return Step::kRetry;
    }
    return wait_until([this] { return last_stats_.has_value(); }, "stats");
  });
  return ok ? last_stats_ : std::nullopt;
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
